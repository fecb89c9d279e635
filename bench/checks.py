"""Output checks applied to every benchmark operation.

An operation is one ``attnsim`` invocation: its arguments, exit code,
standard output, standard error and, with ``--trace``, the trace file. The
checks read the transcript's own records to know how many rows to expect,
so they do not depend on the program under test.
"""

from __future__ import annotations

import json
from collections import Counter

# Exit-1 messages of known defects, so a crash can be told from a new one.
KNOWN_DEFECTS = (
    ("defect-4a-retrieval-failure", "was discarded and cannot be retrieved"),
    ("defect-4b-case-gold-outside", "gold antecedent not among candidates"),
)

# ``attnsim pops fixtures/return_pops.dlg``, pinned by the acceptance tests.
RETURN_POPS_HISTOGRAM = [10, 5, 2, 2, 2, 0]
RETURN_POPS_STAGES = [21, 11, 6, 4, 2]


def count_records(text: str) -> Counter:
    """Count the records of a transcript by their leading keyword."""

    counts: Counter = Counter()
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            counts[tokens[0]] += 1
    return counts


def classify_exit(code: int, stderr: str, generated: bool) -> str:
    """Name the failure behind a non-zero exit code."""

    if code == 2:
        return "exit-2-generator-bug" if generated else "exit-2-parse-error"
    if code == 1:
        for name, marker in KNOWN_DEFECTS:
            if marker in stderr:
                return name
        return "exit-1-unclassified"
    return f"exit-{code}"


def is_known_defect(failure: str) -> bool:
    return failure.startswith("defect-")


def check_output(
    command: str,
    records: Counter,
    stdout: str,
    trace_text: str | None,
    return_pops_fixture: bool = False,
) -> str | None:
    """Return the name of the first failed check, or None."""

    try:
        return _check(command, records, stdout, trace_text, return_pops_fixture)
    except (KeyError, TypeError, AttributeError):
        return "report-shape"


def _check(
    command: str,
    records: Counter,
    stdout: str,
    trace_text: str | None,
    return_pops_fixture: bool,
) -> str | None:
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout-not-json"
    mentions = records["PRON"] + records["ELLIPSIS"]
    if command == "run" and len(report["resolutions"]) != mentions:
        return "resolution-rows"
    if command == "compare" and len(report["perMention"]) != mentions:
        return "per-mention-rows"
    if command == "pops":
        if len(report["cases"]) != records["CASE"]:
            return "case-rows"
        if return_pops_fixture and (
            list(report["histogram"].values()) != RETURN_POPS_HISTOGRAM
            or list(report["stageCounts"].values()) != RETURN_POPS_STAGES
        ):
            return "return-pops-statistics"
    if trace_text is not None:
        try:
            trace = json.loads(trace_text)
        except ValueError:
            return "trace-not-json"
        if len(trace) != records["UTT"]:
            return "trace-records"
        efforts = [record["cumulativeEffort"] for record in trace]
        if efforts != sorted(efforts) or (efforts and efforts[-1] != report["totalEffort"]):
            return "trace-effort"
    return None
