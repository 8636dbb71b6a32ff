"""Inline suppressions: ``# chaos: ignore[CODE,...] -- justification``.

A suppression silences matching findings *on its own line only* — the
narrowest possible scope, so an ignore cannot quietly swallow a future
finding elsewhere in the file.  Two hygiene rules keep the mechanism
honest:

* ``W001`` — the comment suppressed nothing this run; either the
  defect was fixed (delete the comment) or the code moved (the ignore
  is now a trap).  It is judged only when every family the comment
  names ran: ``--ignore R`` cannot prove an ``ignore[R601]`` stale,
* ``W002`` — the comment has no ``-- reason`` tail; a suppression is
  an audit record and must say *why* the finding is acceptable.

Codes are matched by prefix, like ``--select``: ``ignore[R601]`` is
exact, ``ignore[R6]`` silences the whole family on that line.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.analysis.findings import Finding

_IGNORE_RE = re.compile(
    r"#\s*chaos:\s*ignore\[(?P<codes>[A-Za-z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)


@dataclass
class Suppression:
    """One inline ignore comment."""

    path: str
    line: int
    codes: Tuple[str, ...]
    justification: str = ""
    used: bool = field(default=False, compare=False)

    def matches(self, finding: Finding) -> bool:
        location = finding.location
        prefix = f"{self.path}:"
        if not location.startswith(prefix):
            return False
        try:
            line = int(location[len(prefix):].split(":")[0])
        except ValueError:
            return False
        if line != self.line:
            return False
        return finding.code.startswith(self.codes)


def parse_suppressions(
    source: str, path: Union[str, Path]
) -> List[Suppression]:
    """Every ``chaos: ignore`` comment in ``source``.

    Comments are found with the tokenizer, not a per-line regex, so a
    ``# chaos: ignore[...]`` inside a string literal is not a
    suppression.
    """
    path = str(path)
    suppressions: List[Suppression] = []
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _IGNORE_RE.search(token.string)
        if match is None:
            continue
        codes = tuple(
            part.strip().upper()
            for part in match.group("codes").split(",")
            if part.strip()
        )
        if not codes:
            continue
        suppressions.append(Suppression(
            path=path,
            line=token.start[0],
            codes=codes,
            justification=(match.group("why") or "").strip(),
        ))
    return suppressions


def apply_suppressions(
    findings: List[Finding],
    suppressions: List[Suppression],
    skipped: Tuple[str, ...] = (),
) -> Tuple[List[Finding], List[Finding]]:
    """(kept findings, W001/W002 hygiene findings).

    Matching findings are dropped and their suppression is marked
    used; every unused suppression yields W001, unless one of its codes
    starts with a ``skipped`` family (one whose layer did not run), and
    every justification-free one yields W002.
    """
    by_path: Dict[str, List[Suppression]] = {}
    for suppression in suppressions:
        by_path.setdefault(suppression.path, []).append(suppression)

    kept: List[Finding] = []
    for finding in findings:
        path = finding.location.rsplit(":", 1)[0]
        suppressed = False
        for suppression in by_path.get(path, []):
            if suppression.matches(finding):
                suppression.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)

    hygiene: List[Finding] = []
    for suppression in suppressions:
        location = f"{suppression.path}:{suppression.line}"
        codes = ",".join(suppression.codes)
        if not suppression.used and not any(
            code.startswith(skipped) for code in suppression.codes
        ):
            hygiene.append(Finding(
                "W001",
                f"chaos: ignore[{codes}] suppresses nothing on this "
                "line; delete it or move it back to the finding it "
                "silences",
                location,
                context={"codes": list(suppression.codes)},
            ))
        if not suppression.justification:
            hygiene.append(Finding(
                "W002",
                f"chaos: ignore[{codes}] has no '-- reason' tail; a "
                "suppression must record why the finding is acceptable",
                location,
                context={"codes": list(suppression.codes)},
            ))
    return kept, hygiene
