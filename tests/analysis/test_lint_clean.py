"""Tier-1 gate: the shipped tree is chaos-lint clean, and seeded faults
are detected end-to-end through the ``repro lint`` CLI.

The whole tree is linted once per session (``tree_lint_report`` in
``conftest.py``); every family gate filters that one report.  The
filter checks run on a one-file tree seeded with a fault of the family
they filter out, so each shows the pass was skipped, not merely clean.
"""

import io
import json

import pytest

from repro.analysis.findings import filter_findings
from repro.analysis.runner import run_lint
from repro.cli import main

RACE_FAULT = (
    "class Server:\n"
    "    async def stop(self):\n"
    "        if self._tick_task is not None:\n"
    "            await self._tick_task\n"
    "            self._tick_task = None\n"
)


def _run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _one_file_tree(root, source):
    """``root`` holding ``src/fault.py`` with ``source``."""
    path = root / "src" / "fault.py"
    path.parent.mkdir()
    path.write_text(source)
    return root


class TestCleanTree:
    def test_repository_is_lint_clean(self, tree_lint_report):
        report = tree_lint_report
        assert report.findings == [], report.render_text()
        assert report.exit_code == 0
        assert report.n_platforms_checked == 6
        assert report.n_files_scanned > 100
        assert report.n_files_race_analyzed > 100

    def test_cli_exits_zero_on_clean_tree(self, tmp_path):
        root = _one_file_tree(tmp_path, "x = 1\n")
        code, text = _run_cli(["lint", "--root", str(root)])
        assert code == 0
        assert "0 finding(s)" in text

    def test_race_family_clean_on_tree(self, tree_lint_report):
        # The acceptance gate for chaos-race: no concurrency findings
        # and zero stale suppressions anywhere in the tree.
        findings = filter_findings(tree_lint_report.findings, select="R,W")
        assert findings == [], [finding.render() for finding in findings]

    def test_ignore_r_skips_race_pass(self, tmp_path):
        root = _one_file_tree(tmp_path, RACE_FAULT)
        assert run_lint(root=root).counts_by_code() == {"R601": 1}
        report = run_lint(root=root, ignore="R")
        assert report.n_files_race_analyzed == 0
        assert report.n_files_scanned == 1
        assert report.exit_code == 0

    def test_select_runs_only_the_layers_it_keeps(self, tmp_path):
        root = _one_file_tree(tmp_path, RACE_FAULT)
        report = run_lint(root=root, select="R,W")
        assert report.counts_by_code() == {"R601": 1}
        assert report.n_files_race_analyzed == 1
        assert report.n_files_scanned == 0
        assert report.n_platforms_checked == 0
        report = run_lint(root=root, select="C")
        assert report.exit_code == 0
        assert report.n_platforms_checked == 6
        assert report.n_files_scanned == 0
        assert report.n_files_race_analyzed == 0


class TestSeededFaults:
    """Acceptance: each seeded fault is caught with a distinct code."""

    def test_unseeded_default_rng_in_benchmark(self, tmp_path):
        bad = tmp_path / "benchmarks" / "bench_seeded_fault.py"
        bad.parent.mkdir()
        bad.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        code, text = _run_cli(["lint", "--ignore", "C,M", str(bad)])
        assert code == 1
        assert "A301" in text

    def test_global_seed_and_float_eq(self, tmp_path):
        bad = tmp_path / "examples" / "fault.py"
        bad.parent.mkdir()
        bad.write_text(
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "done = progress == 1.0\n"
        )
        code, text = _run_cli(["lint", "--ignore", "C,M", str(bad)])
        assert code == 1
        assert "A302" in text and "A303" in text

    def test_select_restricts_codes(self, tmp_path):
        bad = tmp_path / "examples" / "fault.py"
        bad.parent.mkdir()
        bad.write_text(
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "done = progress == 1.0\n"
        )
        code, text = _run_cli([
            "lint", "--select", "A302", str(bad)
        ])
        assert code == 1
        assert "A302" in text and "A303" not in text
        code, _ = _run_cli([
            "lint", "--ignore", "C,M,A3", str(bad)
        ])
        assert code == 0

    def test_nonexistent_path_fails_instead_of_passing_green(self):
        code, text = _run_cli([
            "lint", "--ignore", "C,M", "/nonexistent/lint/target"
        ])
        assert code == 1
        assert "do not exist" in text

    def test_json_report_round_trips(self, tmp_path):
        bad = tmp_path / "benchmarks" / "bench_fault.py"
        bad.parent.mkdir()
        bad.write_text("from numpy import *\n")
        code, text = _run_cli([
            "lint", "--ignore", "C,M", "--json", str(bad)
        ])
        assert code == 1
        payload = json.loads(text)
        assert payload["clean"] is False
        assert payload["counts_by_code"] == {"A305": 1}
        assert payload["findings"][0]["code"] == "A305"
        assert "A305" in payload["rules"]


class TestRuleSelection:
    def test_list_rules_prints_every_code(self):
        from repro.analysis.findings import RULES

        code, text = _run_cli(["lint", "--list-rules"])
        assert code == 0
        for rule_code, summary in RULES.items():
            assert rule_code in text
            assert summary in text

    def test_unknown_select_prefix_is_an_error(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        code, text = _run_cli([
            "lint", "--select", "Z", str(clean)
        ])
        assert code == 1
        assert "unknown rule prefix" in text
        assert "Z" in text

    def test_unknown_ignore_prefix_is_an_error(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        code, text = _run_cli([
            "lint", "--ignore", "Q9", str(clean)
        ])
        assert code == 1
        assert "unknown rule prefix" in text

    @pytest.mark.parametrize("retired", ["L", "U", "N", "L401", "N701"])
    def test_retired_family_is_an_unknown_prefix(self, tmp_path, retired):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        code, text = _run_cli(["lint", "--select", retired, str(clean)])
        assert code == 1
        assert "unknown rule prefix" in text
        code, text = _run_cli(["lint", "--explain", retired])
        assert code == 2
        assert "unknown rule code" in text

    def test_known_full_code_still_selects(self, tmp_path):
        bad = tmp_path / "examples" / "fault.py"
        bad.parent.mkdir()
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        code, text = _run_cli([
            "lint", "--select", "A302", str(bad)
        ])
        assert code == 1
        assert "A302" in text


class TestRuleDocsHygiene:
    def test_every_rule_code_has_an_explain_entry(self):
        from repro.analysis.findings import RULES
        from repro.analysis.ruledocs import explain

        for rule_code in RULES:
            text = explain(rule_code)
            assert text is not None, rule_code
            assert text.startswith(f"{rule_code}:")

    def test_full_docs_cover_only_registered_rules(self):
        from repro.analysis.findings import RULES
        from repro.analysis.ruledocs import RULE_DOCS

        assert set(RULE_DOCS) <= set(RULES)

    def test_race_and_hygiene_families_have_full_docs(self):
        from repro.analysis.findings import RULES
        from repro.analysis.ruledocs import RULE_DOCS

        documented = {code for code in RULES if code[0] in "RW"}
        assert documented == {
            "R601", "R602", "R603", "R604", "R605", "W001", "W002",
        }
        assert set(RULE_DOCS) == documented
        for rule_code in documented:
            doc = RULE_DOCS[rule_code]
            assert doc.summary == RULES[rule_code]
            assert doc.bad and doc.good and doc.rationale

    def test_explain_cli_renders_race_rule(self):
        code, text = _run_cli(["lint", "--explain", "R601"])
        assert code == 0
        assert "R601" in text
        assert "Bad:" in text and "Good:" in text


class TestSarifOutput:
    def _sarif(self, argv):
        code, text = _run_cli(argv)
        payload = json.loads(text)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "chaos-lint"
        return code, run

    def test_sarif_physical_location(self, tmp_path):
        bad = tmp_path / "fault.py"
        bad.write_text(RACE_FAULT)
        code, run = self._sarif([
            "lint", "--ignore", "C,M", "--format", "sarif",
            "--root", str(tmp_path), str(bad),
        ])
        assert code == 1
        (result,) = run["results"]
        assert result["ruleId"] == "R601"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "fault.py"
        assert location["region"]["startLine"] == 5

    def test_sarif_rules_catalogue_is_complete(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        code, run = self._sarif([
            "lint", "--ignore", "C,M", "--format", "sarif", str(clean)
        ])
        assert code == 0
        assert run["results"] == []
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        from repro.analysis.findings import RULES

        assert rule_ids == set(RULES)

    def test_sarif_fingerprints_stable_under_line_shift(self, tmp_path):
        # partialFingerprints hash rule + function + normalized snippet,
        # not the line number, so annotations survive unrelated edits.
        bad = tmp_path / "fault.py"
        fault = RACE_FAULT
        bad.write_text(fault)
        _, run = self._sarif([
            "lint", "--ignore", "C,M", "--format", "sarif", str(bad)
        ])
        (before,) = run["results"]
        fp_before = before["partialFingerprints"]["chaosLint/v1"]

        bad.write_text("# a new leading comment\n\n" + fault)
        _, run = self._sarif([
            "lint", "--ignore", "C,M", "--format", "sarif", str(bad)
        ])
        (after,) = run["results"]
        shifted_line = after["locations"][0]["physicalLocation"]
        assert shifted_line["region"]["startLine"] == 7
        assert after["partialFingerprints"]["chaosLint/v1"] == fp_before

    def test_sarif_logical_location_for_semantic_findings(self):
        # Semantic findings have no file on disk; they must become
        # logicalLocations, not fake artifact URIs.
        from repro.analysis.findings import Finding
        from repro.analysis.runner import LintReport

        report = LintReport(findings=[
            Finding("C101", "dup", "catalog[amd]:cycles"),
        ])
        payload = json.loads(report.render("sarif"))
        (result,) = payload["runs"][0]["results"]
        assert "physicalLocation" not in result["locations"][0]
        logical = result["locations"][0]["logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "catalog[amd]:cycles"
