"""chaos-lint orchestration: run the selected layers, filter, render a
report.

``run_lint`` is what both the ``repro lint`` CLI subcommand and the
tier-1 regression test call; keeping it pure (no process exit, no
printing) makes the report easy to assert on.

Three layers:

* the semantic checker over the in-process catalogs/registry (C1xx,
  M2xx),
* the single-pass AST lint (A3xx),
* the chaos-race concurrency pass (R6xx) over the same source roots.

The ``--select``/``--ignore`` filter chooses the layers: one runs only
when the filter keeps at least one of its codes.  Each source file is
read once; inline ``# chaos: ignore[CODE] -- reason`` comments are
honored for every file-based finding, and stale or justification-free
suppressions come back as W001/W002 (see
:mod:`repro.analysis.suppress`).  A suppression naming a family whose
layer did not run is not judged stale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.astlint import (
    DEFAULT_AST_ROOTS,
    iter_python_files,
    lint_source,
)
from repro.analysis.findings import RULES, Finding, kept_codes
from repro.analysis.races import check_races_source
from repro.analysis.semantic import check_all_platforms
from repro.analysis.suppress import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
)


@dataclass
class LintReport:
    """Everything one chaos-lint invocation produced."""

    findings: list[Finding] = field(default_factory=list)
    n_files_scanned: int = 0
    n_platforms_checked: int = 0
    n_files_race_analyzed: int = 0
    n_suppressions: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        summary = (
            f"chaos-lint: {len(self.findings)} finding(s) in "
            f"{self.n_files_scanned} file(s), "
            f"{self.n_platforms_checked} platform catalog(s), "
            f"{self.n_files_race_analyzed} file(s) race-analyzed"
        )
        if self.n_suppressions:
            summary += f", {self.n_suppressions} suppression(s)"
        if self.findings:
            breakdown = ", ".join(
                f"{code} x{count}"
                for code, count in self.counts_by_code().items()
            )
            summary += f" [{breakdown}]"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "clean": self.clean,
                "n_files_scanned": self.n_files_scanned,
                "n_platforms_checked": self.n_platforms_checked,
                "n_files_race_analyzed": self.n_files_race_analyzed,
                "n_suppressions": self.n_suppressions,
                "counts_by_code": self.counts_by_code(),
                "rules": RULES,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )

    def render_sarif(self, root: str | Path | None = None) -> str:
        from repro.analysis.sarif import render_sarif

        return render_sarif(self, root=root)

    def render(
        self, format: str = "text", root: str | Path | None = None
    ) -> str:
        if format == "json":
            return self.render_json()
        if format == "sarif":
            return self.render_sarif(root=root)
        if format == "text":
            return self.render_text()
        raise ValueError(f"unknown lint report format {format!r}")


def _resolve_scan_paths(
    root: str | Path | None, paths: Sequence[str | Path] | None
) -> list[Path]:
    if paths is None:
        base = Path(root) if root is not None else Path.cwd()
        scan = [base / name for name in DEFAULT_AST_ROOTS]
        return [p for p in scan if p.exists()]
    scan = [Path(p) for p in paths]
    missing = [str(p) for p in scan if not p.exists()]
    if missing:
        # A typo'd path in a CI invocation must not pass green.
        raise ValueError(
            "lint path(s) do not exist: " + ", ".join(missing)
        )
    return scan


#: Rule family -> the layer that produces its findings.  W0xx comes
#: from the suppression bookkeeping of the file-based layers.
_LAYER_OF_FAMILY = {"C": "semantic", "M": "semantic", "A": "ast", "R": "races"}


def run_lint(
    root: str | Path | None = None,
    paths: Sequence[str | Path] | None = None,
    select: str | Iterable[str] | None = None,
    ignore: str | Iterable[str] | None = None,
) -> LintReport:
    """Run chaos-lint and return the (filtered) report.

    ``root`` anchors the default scan roots (``src``, ``benchmarks``,
    ``examples``); pass explicit ``paths`` to lint arbitrary files or
    directories instead.  The semantic layer is path-independent: it
    checks the in-process platform catalogs and model registry.  A
    layer runs only when ``select``/``ignore`` keep one of its codes.
    """
    from repro.platforms.specs import ALL_PLATFORMS

    kept = kept_codes(select, ignore)
    families = {code[0] for code in kept}
    layers = {
        _LAYER_OF_FAMILY[family]
        for family in families
        if family in _LAYER_OF_FAMILY
    }
    scan = _resolve_scan_paths(root, paths)
    report = LintReport()
    findings: list[Finding] = []
    if "semantic" in layers:
        findings += check_all_platforms()
        report.n_platforms_checked = len(ALL_PLATFORMS)

    file_findings: list[Finding] = []
    suppressions: list[Suppression] = []
    if layers & {"ast", "races"} or "W" in families:
        for path in iter_python_files(scan):
            source = path.read_text()
            suppressions += parse_suppressions(source, path)
            if "ast" in layers:
                report.n_files_scanned += 1
                file_findings += lint_source(source, path)
            if "races" in layers:
                report.n_files_race_analyzed += 1
                file_findings += check_races_source(source, path)

    skipped = tuple(
        family
        for family, layer in _LAYER_OF_FAMILY.items()
        if layer not in layers
    )
    kept_findings, hygiene = apply_suppressions(
        file_findings, suppressions, skipped=skipped
    )
    report.n_suppressions = len(suppressions)
    findings += kept_findings + hygiene
    report.findings = [
        finding for finding in findings if finding.code in kept
    ]
    return report
