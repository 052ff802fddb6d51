"""Per-spec lint reports and corpus-level aggregation.

A LintReport holds one spec's violations plus per-rule counts; a
CorpusSummary rolls many reports up into per-rule rows of occurrence
totals, affected-project counts, and an integer percentage of affected
projects (rounded half up). Rendering is deterministic bytes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import EmptyCorpus, UnsupportedFormat
from .rules import RULE_NAMES, RULE_ORDER, RuleId, Violation

FORMATS = ("text", "json", "csv")


class LintReport(NamedTuple):
    spec_id: str
    violations: tuple[Violation, ...]
    counts: Mapping[RuleId, int]


class SummaryRow(NamedTuple):
    rule: RuleId
    occurrences: int
    projects_affected: int
    percentage: int


class CorpusSummary(NamedTuple):
    total_projects: int
    rows: tuple[SummaryRow, ...]


def build_report(spec_id: str, violations: Iterable[Violation]) -> LintReport:
    """Assemble a report from run_rules' violations: keep the first one given
    of each (path, method, rule name, fragment, status key), sort by that key,
    count per rule. The key is the report order and the coalescing key:
    violations equal on it are one."""
    unique: dict[tuple, Violation] = {}
    counts = dict.fromkeys(RULE_ORDER, 0)
    for violation in violations:
        rule, path, method, status_key, fragment, _ = violation
        key = (path, method or "", RULE_NAMES[rule], fragment, status_key or "")
        if key not in unique:
            unique[key] = violation
            counts[rule] += 1
    ordered = tuple(map(unique.__getitem__, sorted(unique)))
    return LintReport(spec_id=spec_id, violations=ordered, counts=counts)


def aggregate(reports: list[LintReport], total_projects: int) -> CorpusSummary:
    """Roll reports up into per-rule corpus rows.

    occurrences sums every report's count; projects_affected counts
    distinct spec_ids with at least one hit; percentage is the share of
    affected projects out of total_projects, rounded half up to an
    integer. Permutation-invariant over the report list.
    """
    if not reports:
        raise EmptyCorpus("no reports to aggregate")
    distinct = {report.spec_id for report in reports}
    if total_projects < len(distinct):
        raise ValueError(
            f"total_projects={total_projects} is less than the "
            f"{len(distinct)} distinct spec ids in the reports"
        )
    rows = []
    for rule in RULE_ORDER:
        occurrences = sum(report.counts.get(rule, 0) for report in reports)
        affected = len({
            report.spec_id for report in reports if report.counts.get(rule, 0) > 0
        })
        rows.append(SummaryRow(
            rule=rule,
            occurrences=occurrences,
            projects_affected=affected,
            percentage=_percent_half_up(affected, total_projects),
        ))
    return CorpusSummary(total_projects=total_projects, rows=tuple(rows))


def _percent_half_up(affected: int, total: int) -> int:
    # floor(100 * affected / total + 1/2) in exact integer arithmetic
    return (200 * affected + total) // (2 * total)


def render(payload: LintReport | CorpusSummary, format: str) -> bytes:
    """Render a report or summary as deterministic bytes."""
    if format not in FORMATS:
        raise UnsupportedFormat(f"unknown format {format!r}; expected one of {FORMATS}")
    if isinstance(payload, LintReport):
        if format == "csv":
            raise UnsupportedFormat("csv output applies to corpus summaries only")
        return _report_json(payload) if format == "json" else _report_text(payload)
    if isinstance(payload, CorpusSummary):
        if format == "json":
            return _summary_json(payload)
        if format == "csv":
            return _summary_csv(payload)
        return _summary_text(payload)
    raise UnsupportedFormat(f"cannot render {type(payload).__name__}")


def _report_json(report: LintReport) -> bytes:
    """The bytes of json.dumps(doc, separators=(",", ":")) for the report's
    document, written piece by piece without building the document. Findings
    come sorted by path, so each run of one path's findings quotes it once."""
    from json.encoder import encode_basestring_ascii as quote

    # How each rule's findings start, up to the path's value.
    prefixes = {rule: '{"rule":%s,"category":%s,"path":' % (quote(rule.value),
                                                            quote(rule.category.value))
                for rule in RULE_ORDER}
    pieces = ['{"spec_id":', quote(report.spec_id), ',"violations":[']
    last_path = quoted_path = None
    for rule, path, method, status_key, fragment, message in report.violations:
        if path != last_path:
            last_path, quoted_path = path, quote(path)
        where = quoted_path
        if method is not None:
            where += ',"method":' + quote(method)
        if status_key is not None:
            where += ',"status_key":' + quote(status_key)
        pieces.append(f'{prefixes[rule]}{where},"fragment":{quote(fragment)},'
                      f'"message":{quote(message)}}},')
    if report.violations:
        pieces[-1] = pieces[-1][:-1]  # no comma after the last finding
    counts = ",".join(f"{quote(RULE_NAMES[rule])}:{report.counts.get(rule, 0)}"
                      for rule in RULE_ORDER)
    pieces.append(f'],"counts":{{{counts}}}}}\n')
    text = "".join(pieces)
    del pieces  # the pieces are as large as the text: free them before encoding
    return text.encode("utf-8")


def _report_text(report: LintReport) -> bytes:
    total = len(report.violations)
    noun = "violation" if total == 1 else "violations"
    lines = [f"{report.spec_id}: {total} {noun}"]
    for v in report.violations:  # sorted by path, so paths group together
        location = v.path
        if v.method is not None:
            location += f" {v.method}"
        if v.status_key is not None:
            location += f" [{v.status_key}]"
        lines.append(f"  {location} {RULE_NAMES[v.rule]} '{v.fragment}': {v.message}")
    # A lone surrogate, from an escape in the document or an undecodable file
    # name, prints as the \udXXX escape that the json format also shows.
    return ("\n".join(lines) + "\n").encode("utf-8", "backslashreplace")


def _summary_json(summary: CorpusSummary) -> bytes:
    import json

    doc = {
        "total_projects": summary.total_projects,
        "rows": [
            {
                "rule": row.rule.value,
                "category": row.rule.category.value,
                "occurrences": row.occurrences,
                "projects": row.projects_affected,
                "percentage": row.percentage,
            }
            for row in summary.rows
        ],
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _summary_csv(summary: CorpusSummary) -> bytes:
    lines = ["rule,occurrences,projects,percentage"]
    lines.extend(
        f"{row.rule.value},{row.occurrences},{row.projects_affected},{row.percentage}"
        for row in summary.rows
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _summary_text(summary: CorpusSummary) -> bytes:
    lines = [
        f"total projects: {summary.total_projects}",
        f"{'rule':<16} {'occurrences':>11} {'projects':>8} {'percent':>7}",
    ]
    lines.extend(
        f"{row.rule.value:<16} {row.occurrences:>11} {row.projects_affected:>8} "
        f"{row.percentage:>7}"
        for row in summary.rows
    )
    return ("\n".join(lines) + "\n").encode("utf-8")
