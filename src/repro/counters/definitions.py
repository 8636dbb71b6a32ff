"""Counter taxonomy: categories, definitions, derivation context.

A ``CounterDefinition`` describes one OS performance counter: its
Windows-style name (``\\Object(Instance)\\Counter``), its category (the
paper's Table II groups counters by object), how its noiseless value
derives from latent machine activity, and its observation noise.

Definitions may also declare an exact *co-dependence* (``sum_of``): the
counter is by definition the sum of two other counters, which is what
step 2 of Algorithm 1 eliminates using the counter documentation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.activity import ActivityTrace
from repro.platforms.specs import PlatformSpec


class CounterCategory(enum.Enum):
    """Perfmon object families used in Table II."""

    NETWORK = "Network"
    MEMORY = "Memory"
    PHYSICAL_DISK = "Physical Disk"
    PROCESS = "Process"
    PROCESSOR = "Processor"
    FILESYSTEM_CACHE = "File System Cache"
    JOB_OBJECT = "Job Object Details"
    PROCESSOR_PERFORMANCE = "Processor Performance"
    SYSTEM = "System"


@dataclass
class DerivationContext:
    """Everything a counter derivation can see for one machine-run."""

    activity: ActivityTrace
    spec: PlatformSpec
    rng: np.random.Generator
    """Counter-specific stream: deterministic per (machine, run, counter)."""

    run_index: int = 0
    """Which execution this is: counters that persist across job runs
    (e.g. System Up Time) depend on it."""


Derivation = Callable[[DerivationContext], np.ndarray]


@dataclass(frozen=True)
class CounterDefinition:
    """One OS performance counter."""

    name: str
    category: CounterCategory
    derive: Derivation
    noise_sigma: float = 0.02
    """Relative (multiplicative lognormal) observation noise."""

    additive_sigma: float = 0.0
    """Absolute Gaussian observation noise, in counter units."""

    sum_of: tuple[str, str] | None = None
    """If set, this counter is definitionally the sum of two others."""

    informative: bool = True
    """Ground truth: does this counter reflect real machine activity?
    (Used by tests and analysis, never by the selection algorithm.)"""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("counter name must be non-empty")
        if self.noise_sigma < 0 or self.additive_sigma < 0:
            raise ValueError("noise levels must be nonnegative")


@dataclass
class CounterCatalog:
    """All counters of one platform, in a stable canonical order.

    Canonical Table II counters are registered *before* their correlated
    aliases within each category, so the step 1 correlation pruning (which
    keeps the earliest member of each correlated group) retains the
    canonical names.
    """

    spec: PlatformSpec
    definitions: list[CounterDefinition] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict)

    def add(self, definition: CounterDefinition) -> None:
        if definition.name in self._index:
            raise ValueError(f"duplicate counter name {definition.name!r}")
        if definition.sum_of is not None:
            for component in definition.sum_of:
                if component not in self._index:
                    raise ValueError(
                        f"{definition.name!r} declared as sum of unknown "
                        f"counter {component!r}; register components first"
                    )
        self._index[definition.name] = len(self.definitions)
        self.definitions.append(definition)

    def __len__(self) -> int:
        return len(self.definitions)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.definitions]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown counter {name!r}")

    def __reduce__(self):
        # Derivations are closures, which cannot cross a process
        # boundary; catalogs are deterministic functions of their spec,
        # so pickling ships the spec and rebuilds on the other side
        # (process-pool workers of the experiment engine rely on this).
        from repro.counters.catalog import build_catalog

        return (build_catalog, (self.spec,))

    def definition(self, name: str) -> CounterDefinition:
        return self.definitions[self.index_of(name)]

    @property
    def codependent_triples(self) -> list[tuple[str, str, str]]:
        """(sum, addend, addend) triples declared in the definitions."""
        return [
            (d.name, d.sum_of[0], d.sum_of[1])
            for d in self.definitions
            if d.sum_of is not None
        ]
