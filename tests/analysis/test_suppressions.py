"""Inline suppressions: honored per line, matched by prefix, and kept
honest by W001 (unused) and W002 (no justification)."""

import io
import textwrap

import pytest

from repro.analysis.findings import Finding
from repro.analysis.suppress import (
    apply_suppressions,
    parse_suppressions,
)
from repro.cli import main


def _run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParsing:
    def test_codes_and_justification_are_parsed(self):
        source = "x = f()  # chaos: ignore[R601, A305] -- reviewed\n"
        (supp,) = parse_suppressions(source, "mod.py")
        assert supp.line == 1
        assert supp.codes == ("R601", "A305")
        assert supp.justification == "reviewed"

    def test_justification_is_optional_in_syntax(self):
        source = "x = f()  # chaos: ignore[A305]\n"
        (supp,) = parse_suppressions(source, "mod.py")
        assert supp.justification == ""

    def test_comment_inside_string_is_not_a_suppression(self):
        source = 's = "# chaos: ignore[R601] -- not a comment"\n'
        assert parse_suppressions(source, "mod.py") == []

    def test_plain_comments_are_not_suppressions(self):
        source = "x = 1  # chaos reigns here\n"
        assert parse_suppressions(source, "mod.py") == []


class TestApplication:
    def _finding(self, code="R601", line=3, path="mod.py"):
        return Finding(code, "msg", f"{path}:{line}")

    def test_matching_finding_is_suppressed(self):
        source = "\n\nx = f()  # chaos: ignore[R601] -- single writer\n"
        supps = parse_suppressions(source, "mod.py")
        kept, hygiene = apply_suppressions([self._finding()], supps)
        assert kept == []
        assert hygiene == []

    def test_family_prefix_suppresses_member_codes(self):
        source = "\n\nx = f()  # chaos: ignore[R6] -- whole family ok\n"
        supps = parse_suppressions(source, "mod.py")
        kept, hygiene = apply_suppressions([self._finding()], supps)
        assert kept == []
        assert hygiene == []

    def test_wrong_line_does_not_suppress(self):
        source = "x = f()  # chaos: ignore[R601] -- wrong line\n"
        supps = parse_suppressions(source, "mod.py")
        kept, hygiene = apply_suppressions(
            [self._finding(line=3)], supps
        )
        assert [f.code for f in kept] == ["R601"]
        assert [f.code for f in hygiene] == ["W001"]

    def test_wrong_file_does_not_suppress(self):
        source = "x = f()  # chaos: ignore[R601] -- wrong file\n"
        supps = parse_suppressions(source, "other.py")
        kept, hygiene = apply_suppressions(
            [self._finding(line=1)], supps
        )
        assert [f.code for f in kept] == ["R601"]
        assert [f.code for f in hygiene] == ["W001"]

    def test_unused_suppression_of_a_skipped_family_is_not_judged(self):
        source = "x = f()  # chaos: ignore[R601] -- race pass filtered\n"
        supps = parse_suppressions(source, "mod.py")
        kept, hygiene = apply_suppressions([], supps, skipped=("R",))
        assert kept == []
        assert hygiene == []
        kept, hygiene = apply_suppressions([], supps, skipped=("A",))
        assert [f.code for f in hygiene] == ["W001"]

    def test_missing_justification_yields_w002_even_when_used(self):
        source = "\n\nx = f()  # chaos: ignore[R601]\n"
        supps = parse_suppressions(source, "mod.py")
        kept, hygiene = apply_suppressions([self._finding()], supps)
        assert kept == []
        assert [f.code for f in hygiene] == ["W002"]


class TestEndToEnd:
    FAULT = textwrap.dedent(
        """
        class Server:
            async def stop(self):
                if self._tick_task is not None:
                    await self._tick_task
                    self._tick_task = None
        """
    ).lstrip()

    def _suppressed(self, tail):
        """FAULT with ``tail`` appended to its R601 line (line 5)."""
        lines = self.FAULT.splitlines()
        lines[4] += tail
        return "\n".join(lines) + "\n"

    def test_suppressed_fault_passes_clean(self, tmp_path):
        bad = tmp_path / "fault.py"
        bad.write_text(self._suppressed(
            "  # chaos: ignore[R601] -- fixture exercises a split "
            "read-modify-write"
        ))
        code, text = _run_cli(["lint", "--ignore", "C,M", str(bad)])
        assert code == 0, text
        assert "1 suppression(s)" in text

    def test_unsuppressed_fault_still_fails(self, tmp_path):
        bad = tmp_path / "fault.py"
        bad.write_text(self.FAULT)
        code, text = _run_cli(["lint", "--ignore", "C,M", str(bad)])
        assert code == 1
        assert "R601" in text

    def test_unused_suppression_reports_w001(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # chaos: ignore[R601] -- nothing here anymore\n"
        )
        code, text = _run_cli(["lint", "--ignore", "C,M", str(stale)])
        assert code == 1
        assert "W001" in text

    def test_retired_code_suppression_reports_w001(self, tmp_path):
        # No layer reports U501 any more, so this ignore can never
        # silence anything again.
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # chaos: ignore[U501] -- unit rules are retired\n"
        )
        code, text = _run_cli(["lint", "--ignore", "C,M", str(stale)])
        assert code == 1
        assert "W001" in text

    def test_justification_free_suppression_reports_w002(self, tmp_path):
        bad = tmp_path / "fault.py"
        bad.write_text(self._suppressed("  # chaos: ignore[R601]"))
        code, text = _run_cli(["lint", "--ignore", "C,M", str(bad)])
        assert code == 1
        assert "W002" in text
        # The R601 itself stays suppressed; only the hygiene finding
        # remains (rendered findings read "<location>: <CODE> ...").
        assert ": R601 " not in text
        assert "W001" not in text

    @pytest.mark.parametrize("filters", [
        ["--ignore", "R"],
        ["--select", "A,W"],
        ["--select", "W"],
    ])
    def test_used_suppression_is_not_stale_when_its_family_is_filtered(
        self, tmp_path, filters
    ):
        """Regression: skipping the race pass turned a used, justified
        ``ignore[R601]`` into a W001 "suppresses nothing" finding and
        exit 1.  A suppression is judged stale only when every family
        it names ran."""
        racy = tmp_path / "racy.py"
        racy.write_text(self._suppressed(
            "  # chaos: ignore[R601] -- single caller by contract"
        ))
        code, text = _run_cli(["lint", *filters, str(racy)])
        assert code == 0, text
        assert "W001" not in text
        assert "1 suppression(s)" in text

    def test_seeded_race_suppressed_end_to_end(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(self._suppressed(
            "  # chaos: ignore[R601] -- single caller by contract"
        ))
        unsuppressed, text = _run_cli([
            "lint", "--select", "R", str(tmp_path / "racy.py"),
        ])
        assert unsuppressed == 0, text

        naked = tmp_path / "naked.py"
        naked.write_text(self.FAULT)
        code, text = _run_cli(["lint", "--select", "R", str(naked)])
        assert code == 1
        assert "R601" in text
