"""Runtime array-contract sanitizer.

The declared :data:`~repro.analysis.signatures.ARRAY_CONTRACTS` fix the
shape, dtype and contiguity of each numeric kernel boundary.  While an
:class:`ArraySanitizer` is armed (``repro replay --sanitize``,
``repro serve --sanitize``) the function at every contract's ``site`` is
wrapped, and each call records the shapes, dtypes and contiguity that
*actually* flow through the kernel boundary.  A runtime observation
that contradicts the declared contract — a float32 row, a rank the spec
forbids, two arguments disagreeing on a shared symbolic dim, a
non-contiguous operand where the kernel demands contiguity — becomes a
violation CI fails on.

The contract table is the only declaration: production modules carry
no decorator and never import this package.  Arming resolves every
site before it patches anything.  A method site is replaced on its
class; a function site is rebound in every loaded ``repro`` module
whose globals hold it, so ``from``-imported names are observed too.
Disarming puts every original back, including in modules imported
while armed, so a disarmed call is the plain function again.

The wrapper is **observe-only**: arguments and results are never
touched, coerced, or copied, so scoring stays bit-identical with the
sanitizer armed (the CI golden replay asserts exactly that).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from dataclasses import dataclass, field
from types import FunctionType, TracebackType
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.analysis.signatures import (
    ARRAY_CONTRACTS,
    ArrayContract,
    ArraySpec,
)

#: The armed sanitizer, if any.  Module-global on purpose: a wrapper
#: that outlives its arming (a bound method someone kept) must see that
#: nothing is armed any more and pass straight through.
_ACTIVE: Optional["ArraySanitizer"] = None
_ACTIVE_LOCK = threading.Lock()

#: One armed site: owner (a class, or the defining module), attribute,
#: original function and the wrapper that replaces it.
_Patch = Tuple[Any, str, FunctionType, Callable[..., Any]]


def _resolve(contract: ArrayContract) -> _Patch:
    """Find the function at the contract's ``site``
    (``"module:qualname"``) and build its wrapper; patches nothing."""
    site = contract.site
    module_name, _, qualname = site.partition(":")
    *path, attr = qualname.split(".")
    try:
        owner: Any = importlib.import_module(module_name)
        for part in path:
            owner = getattr(owner, part)
        func = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as error:
        raise ValueError(
            f"array contract {contract.name!r}: site {site!r} does not "
            f"resolve ({error!r})"
        ) from error
    if not isinstance(func, FunctionType) or func.__name__ != contract.name:
        raise ValueError(
            f"array contract {contract.name!r}: site {site!r} holds "
            f"{func!r}, not a function named {contract.name!r}"
        )
    return owner, attr, func, _wrap(contract, func)


def _wrap(contract: ArrayContract, func: FunctionType) -> Callable[..., Any]:
    """An observe-only stand-in for ``func`` checking ``contract``.

    Arguments are matched to contract parameters **by name** via the
    function's signature (methods therefore work: ``self`` simply has
    no spec).
    """
    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sanitizer = _ACTIVE
        if sanitizer is not None:
            try:
                bound = signature.bind_partial(*args, **kwargs)
                arguments: Dict[str, Any] = dict(bound.arguments)
            except TypeError:
                arguments = {}
            sanitizer.observe_call(contract, arguments)
        result = func(*args, **kwargs)
        if sanitizer is not None:
            sanitizer.observe_return(contract, result)
        return result

    return wrapper


def _rebind_globals(replacements: Dict[int, Callable[..., Any]]) -> None:
    """Rebind every global of every loaded ``repro`` module whose value
    is a key of ``replacements`` (by ``id``; the caller keeps each keyed
    object alive, so an ``id`` match is that object)."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            replacement = replacements.get(id(value))
            if replacement is not None:
                namespace[key] = replacement


@dataclass
class ArrayViolation:
    """One runtime contradiction of a declared array contract."""

    kind: str
    """``dtype`` | ``rank`` | ``dim`` | ``contiguity`` | ``return``."""

    function: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "function": self.function,
            "detail": self.detail,
        }


@dataclass
class _FunctionStats:
    """What one contracted entry point actually saw at runtime."""

    n_calls: int = 0
    n_noncontiguous_args: int = 0
    shapes: Dict[str, int] = field(default_factory=dict)
    """``"param:(n, k)"`` -> observation count (capped)."""

    dtypes: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.n_calls,
            "noncontiguous_args": self.n_noncontiguous_args,
            "shapes": dict(self.shapes),
            "dtypes": dict(self.dtypes),
        }


_MAX_DISTINCT_SHAPES = 32
_MAX_VIOLATIONS_PER_KEY = 1


@dataclass
class ArraySanitizer:
    """Records runtime array observations against declared contracts.

    Use as a context manager around a replay/serve run, or call
    :meth:`install` / :meth:`uninstall` explicitly.  ``report()`` is
    JSON-safe and lands in replay telemetry under
    ``"array_sanitizer"``.
    """

    violations: List[ArrayViolation] = field(default_factory=list)
    functions: Dict[str, _FunctionStats] = field(default_factory=dict)

    _installed: bool = False
    _seen: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    _patches: List[_Patch] = field(default_factory=list)

    # -- arming --------------------------------------------------------

    def install(self) -> "ArraySanitizer":
        """Arm this sanitizer globally; idempotent per instance.

        Every contract ``site`` is resolved before anything is patched,
        so a site that does not resolve raises with nothing armed.
        """
        global _ACTIVE
        with _ACTIVE_LOCK:
            if self._installed:
                return self
            if _ACTIVE is not None:
                raise RuntimeError(
                    "another ArraySanitizer is already installed"
                )
            self._patches = [
                _resolve(contract) for contract in ARRAY_CONTRACTS.values()
            ]
            self._swap(arm=True)
            _ACTIVE = self
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Disarm and put every original function back."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if not self._installed:
                return
            self._swap(arm=False)
            self._patches = []
            if _ACTIVE is self:
                _ACTIVE = None
            self._installed = False

    def _swap(self, arm: bool) -> None:
        """Put the wrappers in place of the originals, or back."""
        rebind: Dict[int, Callable[..., Any]] = {}
        for owner, attr, original, wrapper in self._patches:
            old: Callable[..., Any] = original if arm else wrapper
            new: Callable[..., Any] = wrapper if arm else original
            setattr(owner, attr, new)
            if not isinstance(owner, type):
                # A function site: ``from``-imported names elsewhere
                # hold it too, and on disarm so do modules imported
                # while armed.
                rebind[id(old)] = new
        _rebind_globals(rebind)

    def __enter__(self) -> "ArraySanitizer":
        return self.install()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.uninstall()

    # -- observation ---------------------------------------------------

    def observe_call(
        self, contract: ArrayContract, arguments: Dict[str, Any]
    ) -> None:
        stats = self.functions.setdefault(contract.name, _FunctionStats())
        stats.n_calls += 1
        bindings: Dict[str, int] = {}
        for param_name, spec in contract.params:
            if spec is None:
                continue
            value = arguments.get(param_name)
            if not isinstance(value, np.ndarray):
                # Lists and scalars are legal at tolerant entry points;
                # the contract constrains arrays only.
                continue
            self._record(stats, param_name, value)
            self._check_spec(
                contract.name, f"parameter {param_name!r}", spec, value,
                bindings, stats,
            )

    def observe_return(self, contract: ArrayContract, result: Any) -> None:
        spec = contract.returns
        if spec is None or not isinstance(result, np.ndarray):
            return
        stats = self.functions.setdefault(contract.name, _FunctionStats())
        self._record(stats, "return", result)
        self._check_spec(
            contract.name, "return value", spec, result, {}, stats,
            kind_prefix="return_",
        )

    def _record(
        self, stats: _FunctionStats, where: str, value: np.ndarray
    ) -> None:
        key = f"{where}:{value.shape}"
        if key in stats.shapes or len(stats.shapes) < _MAX_DISTINCT_SHAPES:
            stats.shapes[key] = stats.shapes.get(key, 0) + 1
        dtype = str(value.dtype)
        stats.dtypes[dtype] = stats.dtypes.get(dtype, 0) + 1
        if not value.flags["C_CONTIGUOUS"]:
            stats.n_noncontiguous_args += 1

    def _check_spec(
        self,
        function: str,
        where: str,
        spec: ArraySpec,
        value: np.ndarray,
        bindings: Dict[str, int],
        stats: _FunctionStats,
        kind_prefix: str = "",
    ) -> None:
        del stats
        if spec.dtype is not None and str(value.dtype) != spec.dtype:
            self._violate(
                kind_prefix + "dtype", function,
                f"{where} is {value.dtype}, contract declares "
                f"{spec.dtype}",
            )
        if spec.shape is not None:
            if value.ndim != len(spec.shape):
                self._violate(
                    kind_prefix + "rank", function,
                    f"{where} has rank {value.ndim}, contract declares "
                    f"rank {len(spec.shape)} {spec.shape}",
                )
            else:
                for declared, observed in zip(spec.shape, value.shape):
                    if isinstance(declared, int):
                        if observed != declared:
                            self._violate(
                                kind_prefix + "dim", function,
                                f"{where} dim is {observed}, contract "
                                f"declares {declared}",
                            )
                    elif declared != "?":
                        bound = bindings.get(declared)
                        if bound is None:
                            bindings[declared] = int(observed)
                        elif bound != observed:
                            self._violate(
                                kind_prefix + "dim", function,
                                f"{where} binds shared dim "
                                f"{declared!r}={observed} but another "
                                f"argument bound it to {bound}",
                            )
        if spec.contiguous and not value.flags["C_CONTIGUOUS"]:
            self._violate(
                kind_prefix + "contiguity", function,
                f"{where} is non-contiguous; the contract requires a "
                "C-contiguous operand",
            )

    def _violate(self, kind: str, function: str, detail: str) -> None:
        key = (kind, function, detail.split(";")[0])
        count = self._seen.get(key, 0)
        self._seen[key] = count + 1
        if count < _MAX_VIOLATIONS_PER_KEY:
            self.violations.append(ArrayViolation(kind, function, detail))

    # -- reporting -----------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> Dict[str, Any]:
        """JSON-safe summary for telemetry and CLI output."""
        by_kind: Dict[str, int] = {}
        for key, count in self._seen.items():
            by_kind[key[0]] = by_kind.get(key[0], 0) + count
        return {
            "ok": self.ok,
            "n_violations": sum(self._seen.values()),
            "by_kind": by_kind,
            "violations": [v.to_dict() for v in self.violations],
            "functions": {
                name: stats.to_dict()
                for name, stats in sorted(self.functions.items())
            },
        }


def install_array_sanitizer() -> ArraySanitizer:
    """Convenience: build, arm, and return an array sanitizer."""
    return ArraySanitizer().install()


def active_array_sanitizer() -> Optional[ArraySanitizer]:
    """The currently armed sanitizer, if any (for tests/telemetry)."""
    return _ACTIVE
