"""Finding and rule-code vocabulary shared by every chaos-lint layer.

Rule codes are *stable*: tests, CI gates, and ``--select``/``--ignore``
filters key on them, so a code is never renumbered or reused.  Codes are
grouped by family:

* ``C1xx`` — counter-catalog semantic invariants (Algorithm 1 step 2
  depends on the co-dependency documentation being correct),
* ``M2xx`` — model-pipeline invariants (feature sets and the technique
  registry),
* ``A3xx`` — AST-level source rules (determinism contract and Python
  footguns),
* ``R6xx`` — chaos-race concurrency-safety rules (shared-state races
  across interleaving points, loop-blocking calls, coroutine hygiene;
  see :mod:`repro.analysis.races`),
* ``W0xx`` — lint-infrastructure hygiene (inline suppressions that no
  longer suppress anything, or carry no justification).

Retired families, whose codes are never reused: ``L4xx`` (train/test
leakage dataflow), ``U5xx`` (physical-unit dataflow) and ``N7xx``
(static numeric-array rules).  In their records none found a real
defect; the golden sweep, the golden replay, the metric tests and the
runtime array sanitizer guard the same invariants by running the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

#: code -> one-line description of what the rule guards.
RULES: dict[str, str] = {
    "C101": "duplicate counter name in a catalog",
    "C102": "sum_of references a counter not defined in the catalog",
    "C103": "co-dependency (sum_of) graph contains a cycle",
    "C104": "sum counter and its parts are in different categories",
    "C105": "sum counter and its parts have inconsistent units",
    "C106": "counter declares a negative noise level",
    "C107": "derivation output cannot match the trace's n_seconds",
    "C108": "catalog name index is out of sync with its definitions",
    "M201": "feature set references a counter absent from the catalog",
    "M202": "model registry entry has no working fit implementation",
    "A301": "np.random.default_rng() called without a seed",
    "A302": "np.random.seed() reseeds the legacy global RNG",
    "A303": "float equality (==/!=) comparison in experiment code",
    "A304": "mutable default argument",
    "A305": "star import",
    "R601": "shared attribute read-modify-written across an await without a lock",
    "R602": "blocking call reachable from an async-colored function",
    "R603": "coroutine created but never awaited, gathered, or task-wrapped",
    "R604": "asyncio primitive created outside the event loop that uses it",
    "R605": "lock/socket/loop captured by a TaskSpec or executor submit",
    "W001": "inline chaos: ignore comment suppresses nothing",
    "W002": "inline chaos: ignore comment carries no justification",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, locatable either in source or in a catalog."""

    code: str
    message: str
    location: str
    """``path:line`` for AST findings, ``platform:<key>`` for semantic."""

    context: dict = field(default_factory=dict, compare=False)
    """Extra machine-readable detail (counter name, rule inputs, ...)."""

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unknown rule code {self.code!r}")

    @property
    def rule(self) -> str:
        return RULES[self.code]

    def render(self) -> str:
        return f"{self.location}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "location": self.location,
            "context": dict(self.context),
        }


def normalize_codes(raw: str | Iterable[str] | None) -> tuple[str, ...]:
    """Parse a ``--select``/``--ignore`` value into code prefixes.

    Accepts a comma-separated string or an iterable; prefixes are matched
    case-insensitively (``--select C`` keeps every catalog rule).
    """
    if raw is None:
        return ()
    if isinstance(raw, str):
        parts: Iterable[str] = raw.split(",")
    else:
        parts = raw
    return tuple(p.strip().upper() for p in parts if p.strip())


def rule_families() -> dict[str, str]:
    """Family letter -> representative description, for error messages."""
    families: dict[str, str] = {}
    for code in RULES:
        families.setdefault(code[0], code)
    return families


def validate_code_prefixes(prefixes: Iterable[str]) -> None:
    """Reject prefixes that match no registered rule.

    ``--select Z`` silently selecting nothing is indistinguishable from
    a clean run — a typo'd CI gate would pass green forever.
    """
    for prefix in prefixes:
        if not any(code.startswith(prefix) for code in RULES):
            known = ", ".join(sorted(rule_families()))
            raise ValueError(
                f"unknown rule prefix {prefix!r}: matches no registered "
                f"rule (known families: {known}; see --list-rules)"
            )


def kept_codes(
    select: str | Iterable[str] | None = None,
    ignore: str | Iterable[str] | None = None,
) -> set[str]:
    """Registered codes that ruff-style prefix filters keep: select
    first, then ignore.

    Unknown prefixes raise :class:`ValueError` rather than silently
    matching nothing.
    """
    selected = normalize_codes(select)
    ignored = normalize_codes(ignore)
    validate_code_prefixes(selected)
    validate_code_prefixes(ignored)
    return {
        code
        for code in RULES
        if (not selected or code.startswith(selected))
        and not (ignored and code.startswith(ignored))
    }


def filter_findings(
    findings: list[Finding],
    select: str | Iterable[str] | None = None,
    ignore: str | Iterable[str] | None = None,
) -> list[Finding]:
    """The findings whose code :func:`kept_codes` keeps."""
    kept = kept_codes(select, ignore)
    return [finding for finding in findings if finding.code in kept]
