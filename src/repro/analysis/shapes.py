"""Array shape/dtype/contiguity dataflow analysis (rule family ``N7xx``).

chaos-serve's bit-for-bit online == offline replay gate rests on a
numeric contract nothing else in the lint stack can see: every feature
row, design matrix and power series is **float64**, kernels reduce in a
fixed order over **contiguous** operands, and per-tick hot paths never
allocate.  A silent ``float32`` upcast, a hidden copy from fancy
indexing, or a broadcasting surprise keeps every functional test green
while quietly changing the last ulp — exactly the class of defect that
only shows up when the replay gate diffs online against offline.

This analysis interprets each function over an abstract array lattice:

* **shape** — a tuple of dims, each a concrete size, a *symbolic* name
  (``"n"``, ``"k"`` — the same name unifies across the parameters of one
  contracted call), or ``"?"`` (unknown); unknown rank is ``None``,
* **dtype** — flat, anchored on the ``float64`` kernel contract,
* **contiguity** — C-contiguous / not / unknown.

Values come from numpy constructor calls, the declared
:data:`~repro.analysis.signatures.ARRAY_CONTRACTS` (which also seed the
parameters *inside* a contracted function), and per-module return
summaries computed over the call graph, which make the pass
interprocedural: a helper returning ``np.zeros((3,), dtype=np.float32)``
is caught at the kernel boundary two calls later.

Rules
-----
* ``N701`` — a call argument's dtype contradicts the contracted kernel
  dtype (a ``float32`` row reaching the float64 predict kernel),
* ``N702`` — a Python-level loop over the rows of a rank-2+ array whose
  body calls a vectorized kernel: one call on the full matrix is the
  same math at a fraction of the cost,
* ``N703`` — a hidden copy (fancy indexing, ``concatenate``/
  ``ascontiguousarray``/...) inside a hot-path function (one whose
  contract sets ``hot_path``),
* ``N704`` — a shape/broadcast mismatch: wrong rank against a declared
  contract, conflicting symbolic dims within one call, or two concrete
  shapes that cannot broadcast,
* ``N705`` — a fresh allocation (``np.zeros``/``empty``/``arange``/...)
  inside a hot-path function,
* ``N706`` — an operand known to be non-contiguous reaching an
  einsum/BLAS kernel (the library strides or silently copies; the
  batch-invariant reduction order assumes neither).

The runtime counterpart is :mod:`repro.analysis.arraysan`, which wraps
each contract's ``site`` during ``repro replay --sanitize`` and fails
when observed shapes/dtypes contradict these static verdicts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.cfg import BasicBlock, FunctionUnit, iter_function_units
from repro.analysis.dataflow import run_forward
from repro.analysis.findings import Finding
from repro.analysis.flowast import EnvAnalysis, header_exprs
from repro.analysis.signatures import (
    ALLOCATOR_CALLS,
    ARRAY_CONTRACTS,
    BLAS_KERNEL_CALLS,
    COPY_CALLS,
    KERNEL_DTYPE,
    ArrayContract,
    ArraySpec,
    Dim,
    array_contract,
    call_target,
)

#: Unknown dim: the top of the per-dimension lattice.
DYN = "?"

Shape = Optional[Tuple[Dim, ...]]

ARRAY = "array"
SCALAR = "scalar"
TOP_KIND = "top"

_DTYPE_ATTRS = frozenset({
    "float64", "float32", "float16", "int64", "int32", "int16", "int8",
    "uint8", "uint16", "uint32", "uint64", "bool_", "complex128",
    "complex64",
})

#: Builtin-name shorthand numpy accepts for ``dtype=``.
_DTYPE_BUILTINS = {
    "float": "float64",
    "int": "int64",
    "bool": "bool",
    "complex": "complex128",
}

_FLOATS = frozenset({"float64", "float32", "float16"})
_INTS = frozenset({
    "int64", "int32", "int16", "int8", "uint8", "uint16", "uint32",
    "uint64",
})

#: numpy type-promotion, restricted to the pairs the tree actually
#: mixes.  Unlisted pairs promote to "unknown" — never to a concrete
#: dtype that might be wrong.
_PROMOTE: Dict[Tuple[str, str], str] = {
    ("float64", "float32"): "float64",
    ("float64", "float16"): "float64",
    ("float32", "float16"): "float32",
    ("float64", "int64"): "float64",
    ("float64", "int32"): "float64",
    ("float64", "bool"): "float64",
    ("int64", "int32"): "int64",
    ("int64", "bool"): "int64",
}

#: Elementwise numpy functions that preserve their argument's shape.
_ELEMENTWISE_CALLS = frozenset({
    "sqrt", "abs", "absolute", "exp", "log", "log2", "log10", "clip",
    "maximum", "minimum", "square", "sign", "floor", "ceil", "round",
})

#: Reductions collapsing to a scalar when called without an axis.
_REDUCTION_CALLS = frozenset({
    "mean", "sum", "min", "max", "median", "std", "var", "prod",
    "amin", "amax",
})


@dataclass(frozen=True)
class ArrayValue:
    """One abstract value: maybe-array with shape/dtype/contiguity."""

    kind: str = TOP_KIND
    shape: Shape = None
    dtype: Optional[str] = None
    contiguous: Optional[bool] = None

    @property
    def is_array(self) -> bool:
        return self.kind == ARRAY

    @property
    def rank(self) -> Optional[int]:
        return None if self.shape is None else len(self.shape)


TOP = ArrayValue()


def scalar(dtype: Optional[str] = None) -> ArrayValue:
    return ArrayValue(kind=SCALAR, dtype=dtype)


def array_of(
    shape: Shape,
    dtype: Optional[str] = None,
    contiguous: Optional[bool] = None,
) -> ArrayValue:
    return ArrayValue(
        kind=ARRAY, shape=shape, dtype=dtype, contiguous=contiguous
    )


# ----------------------------------------------------------------------
# Lattice operations
# ----------------------------------------------------------------------

def join_dim(left: Dim, right: Dim) -> Dim:
    return left if left == right else DYN


def join_shape(left: Shape, right: Shape) -> Shape:
    if left is None or right is None:
        return None
    if len(left) != len(right):
        return None
    return tuple(join_dim(a, b) for a, b in zip(left, right))


def _join_opt(left: Optional[object], right: Optional[object]) -> Optional[object]:
    """Flat join where ``None`` is top."""
    return left if left == right else None


def join_value(left: ArrayValue, right: ArrayValue) -> ArrayValue:
    if left == right:
        return left
    if left.kind != right.kind:
        return TOP
    if left.kind == TOP_KIND:
        return TOP
    dtype = _join_opt(left.dtype, right.dtype)
    if left.kind == SCALAR:
        return ArrayValue(kind=SCALAR, dtype=dtype)  # type: ignore[arg-type]
    return ArrayValue(
        kind=ARRAY,
        shape=join_shape(left.shape, right.shape),
        dtype=dtype,  # type: ignore[arg-type]
        contiguous=_join_opt(left.contiguous, right.contiguous),  # type: ignore[arg-type]
    )


def dim_leq(left: Dim, right: Dim) -> bool:
    return right == DYN or left == right


def shape_leq(left: Shape, right: Shape) -> bool:
    if right is None:
        return True
    if left is None:
        return False
    return len(left) == len(right) and all(
        dim_leq(a, b) for a, b in zip(left, right)
    )


def value_leq(left: ArrayValue, right: ArrayValue) -> bool:
    """Partial order of the value lattice (``TOP`` is greatest)."""
    if right.kind == TOP_KIND:
        return True
    if left.kind != right.kind:
        return False
    if right.dtype is not None and left.dtype != right.dtype:
        return False
    if left.kind == SCALAR:
        return True
    if not shape_leq(left.shape, right.shape):
        return False
    if right.contiguous is not None and left.contiguous != right.contiguous:
        return False
    return True


def promote_dtype(
    left: Optional[str], right: Optional[str]
) -> Optional[str]:
    """numpy result dtype of a binary op, or None when unknown."""
    if left is None or right is None:
        return None
    if left == right:
        return left
    return _PROMOTE.get((left, right)) or _PROMOTE.get((right, left))


def broadcast_shapes(left: Shape, right: Shape) -> Tuple[Shape, bool]:
    """(result shape, compatible) under numpy broadcasting.

    Incompatibility is only claimed when two *concrete* dims differ and
    neither is 1; symbolic or unknown dims broadcast to ``"?"``.  A
    conflicting axis still yields a ``"?"`` dim (not an error state):
    the checker reports the conflict, while the abstract result stays
    monotone — refining an operand's shape never produces a *larger*
    result value than the unrefined one did.
    """
    if left is None or right is None:
        return None, True
    rank = max(len(left), len(right))
    padded_l = (1,) * (rank - len(left)) + left
    padded_r = (1,) * (rank - len(right)) + right
    dims: List[Dim] = []
    compatible = True
    for a, b in zip(padded_l, padded_r):
        if a == 1:
            dims.append(b)
        elif b == 1:
            dims.append(a)
        elif a == b:
            dims.append(a)
        elif isinstance(a, int) and isinstance(b, int):
            compatible = False
            dims.append(DYN)
        else:
            dims.append(DYN)
    return tuple(dims), compatible


class Unifier:
    """Binds symbolic contract dims to observed concrete sizes.

    Feeding the same set of (declared, observed) pairs in any order
    produces the same bindings and the same conflict verdict — the
    property suite checks this, because call-site argument order must
    not change what N704 reports.
    """

    def __init__(self) -> None:
        self.bindings: Dict[str, int] = {}
        self.conflicts: List[Tuple[Dim, Dim]] = []

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def observe(self, declared: Dim, observed: Dim) -> None:
        if isinstance(declared, int):
            if isinstance(observed, int) and observed != declared:
                self.conflicts.append((declared, observed))
            return
        if declared == DYN or not isinstance(observed, int):
            return
        bound = self.bindings.get(declared)
        if bound is None:
            self.bindings[declared] = observed
        elif bound != observed:
            self.conflicts.append((declared, observed))
            # Keep the smaller binding so the final state is
            # order-independent even after a conflict.
            self.bindings[declared] = min(bound, observed)

    def observe_shape(self, declared: Shape, observed: Shape) -> None:
        if declared is None or observed is None:
            return
        if len(declared) != len(observed):
            return
        # Dims are observed in a canonical (positional) order; the
        # *calls* to observe_shape may come in any order.
        for d, o in zip(declared, observed):
            self.observe(d, o)

    def instantiate(self, spec_shape: Shape) -> Shape:
        """Replace bound symbols with their size, unbound ones with "?".

        Unbound symbols become ``"?"`` rather than staying symbolic:
        leaving the name in would make a call on *less* precise
        arguments return a *smaller* (rigid-symbol) value than the same
        call on concrete ones, breaking transfer monotonicity.
        """
        if spec_shape is None:
            return None
        return tuple(
            self.bindings.get(dim, DYN) if isinstance(dim, str) else dim
            for dim in spec_shape
        )


def value_from_spec(
    spec: ArraySpec, unifier: Optional[Unifier] = None
) -> ArrayValue:
    """Abstract value a declared :class:`ArraySpec` describes."""
    shape = spec.shape
    if unifier is not None:
        shape = unifier.instantiate(shape)
    return ArrayValue(
        kind=ARRAY,
        shape=shape,
        dtype=spec.dtype,
        contiguous=spec.contiguous,
    )


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------

def _dtype_from_expr(expr: Optional[ast.expr]) -> Optional[str]:
    if expr is None:
        return None
    if isinstance(expr, ast.Attribute) and expr.attr in _DTYPE_ATTRS:
        return "bool" if expr.attr == "bool_" else expr.attr
    if isinstance(expr, ast.Name):
        if expr.id in _DTYPE_BUILTINS:
            return _DTYPE_BUILTINS[expr.id]
        if expr.id in _DTYPE_ATTRS:
            return "bool" if expr.id == "bool_" else expr.id
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        name = expr.value
        if name in _DTYPE_ATTRS or name in ("bool",):
            return "bool" if name in ("bool", "bool_") else name
    return None


def _dims_from_expr(expr: ast.expr) -> Shape:
    """Shape literal of an allocator's first argument, or None."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return (expr.value,)
    if isinstance(expr, (ast.Tuple, ast.List)):
        dims: List[Dim] = []
        for element in expr.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, int
            ):
                dims.append(element.value)
            else:
                dims.append(DYN)
        return tuple(dims)
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _nested_list_shape(expr: ast.expr) -> Shape:
    """Shape of a (possibly nested) list/tuple literal of scalars.

    Only literal structure counts: a name inside the list could itself
    be a sequence (``np.asarray([row])`` is rank 2 when ``row`` is a
    list), so anything but constants and nested literals stays unknown.
    """
    if not isinstance(expr, (ast.List, ast.Tuple)):
        return None
    if not expr.elts:
        return (0,)
    if all(isinstance(e, (ast.List, ast.Tuple)) for e in expr.elts):
        inner_shapes = {_nested_list_shape(e) for e in expr.elts}
        if len(inner_shapes) == 1:
            inner = inner_shapes.pop()
            if inner is not None:
                return (len(expr.elts),) + inner
        return (len(expr.elts), DYN)
    if all(isinstance(e, ast.Constant) for e in expr.elts):
        return (len(expr.elts),)
    return None


# ----------------------------------------------------------------------
# The dataflow analysis
# ----------------------------------------------------------------------

class ShapeAnalysis(EnvAnalysis):
    """Forward shape/dtype/contiguity inference over one function."""

    def __init__(
        self,
        unit: FunctionUnit,
        summaries: Optional[Dict[str, ArrayValue]] = None,
    ) -> None:
        super().__init__(unit)
        self.summaries = summaries or {}
        name = unit.qualname.rsplit(".", 1)[-1].lstrip("_")
        self.contract: Optional[ArrayContract] = ARRAY_CONTRACTS.get(name)

    # -- value lattice ---------------------------------------------------

    def default_value(self) -> ArrayValue:
        return TOP

    def join_value(self, left: ArrayValue, right: ArrayValue) -> ArrayValue:
        return join_value(left, right)

    def seed_param(self, name: str) -> ArrayValue:
        if self.contract is not None:
            for param_name, spec in self.contract.params:
                if param_name == name and spec is not None:
                    return value_from_spec(spec)
        return TOP

    def element_of(self, value: ArrayValue, stmt: ast.stmt) -> ArrayValue:
        del stmt
        if not value.is_array:
            return TOP
        if value.shape is None:
            return ArrayValue(kind=ARRAY, dtype=value.dtype)
        if len(value.shape) == 1:
            return scalar(value.dtype)
        return array_of(value.shape[1:], dtype=value.dtype)

    # -- expression evaluation ------------------------------------------

    def eval(
        self, expr: ast.expr, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, TOP)
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (int, float, complex)) and not (
                isinstance(expr.value, bool)
            ):
                return scalar()
            return TOP
        if isinstance(expr, ast.Attribute):
            if expr.attr == "T":
                return self._transpose(self.eval(expr.value, env))
            return TOP
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand, env)
        if isinstance(expr, ast.IfExp):
            return join_value(
                self.eval(expr.body, env), self.eval(expr.orelse, env)
            )
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        return TOP

    def _transpose(self, value: ArrayValue) -> ArrayValue:
        if not value.is_array:
            return TOP
        if value.shape is None:
            return ArrayValue(kind=ARRAY, dtype=value.dtype)
        if len(value.shape) < 2:
            return value
        return array_of(
            tuple(reversed(value.shape)),
            dtype=value.dtype,
            contiguous=False,
        )

    def _eval_call(
        self, call: ast.Call, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        target = call_target(call.func)
        if target is None:
            return TOP

        contract = ARRAY_CONTRACTS.get(target)
        if contract is not None and contract.returns is not None:
            unifier = Unifier()
            self._unify_call_args(call, contract, env, unifier)
            return value_from_spec(contract.returns, unifier)

        if target in ALLOCATOR_CALLS:
            return self._eval_allocator(target, call, env)
        if target in ("asarray", "array"):
            return self._eval_asarray(call, env)
        if target == "ascontiguousarray":
            inner = self._first_arg_value(call, env)
            dtype = _dtype_from_expr(_keyword(call, "dtype")) or (
                inner.dtype if inner.is_array else None
            )
            return ArrayValue(
                kind=ARRAY,
                shape=inner.shape if inner.is_array else None,
                dtype=dtype,
                contiguous=True,
            )
        if target == "astype" and isinstance(call.func, ast.Attribute):
            receiver = self.eval(call.func.value, env)
            dtype = _dtype_from_expr(call.args[0]) if call.args else None
            if receiver.is_array:
                return ArrayValue(
                    kind=ARRAY,
                    shape=receiver.shape,
                    dtype=dtype,
                    contiguous=True,
                )
            return ArrayValue(kind=ARRAY, dtype=dtype, contiguous=True)
        if target == "reshape" and isinstance(call.func, ast.Attribute):
            receiver = self.eval(call.func.value, env)
            if len(call.args) == 1:
                shape = _dims_from_expr(call.args[0])
            else:
                shape = _dims_from_expr(
                    ast.Tuple(elts=list(call.args), ctx=ast.Load())
                )
            dtype = receiver.dtype if receiver.is_array else None
            return ArrayValue(kind=ARRAY, shape=shape, dtype=dtype)
        if target == "transpose":
            if isinstance(call.func, ast.Attribute):
                return self._transpose(self.eval(call.func.value, env))
            return self._transpose(self._first_arg_value(call, env))
        if target in ("ravel", "flatten"):
            base = (
                self.eval(call.func.value, env)
                if isinstance(call.func, ast.Attribute)
                else self._first_arg_value(call, env)
            )
            dtype = base.dtype if base.kind != TOP_KIND else None
            return ArrayValue(
                kind=ARRAY, shape=(DYN,), dtype=dtype, contiguous=True
            )
        if target == "copy" and isinstance(call.func, ast.Attribute):
            receiver = self.eval(call.func.value, env)
            if receiver.is_array:
                return ArrayValue(
                    kind=ARRAY,
                    shape=receiver.shape,
                    dtype=receiver.dtype,
                    contiguous=True,
                )
            return TOP
        if target in COPY_CALLS:
            # concatenate/vstack/...: a fresh contiguous array whose
            # dtype joins the parts'.
            dtype = self._join_arg_dtypes(call, env)
            return ArrayValue(kind=ARRAY, dtype=dtype, contiguous=True)
        if target == "einsum":
            dtype = self._join_arg_dtypes(call, env, skip_first=True)
            return ArrayValue(kind=ARRAY, dtype=dtype, contiguous=True)
        if target in ("dot", "matmul"):
            return self._eval_matmul_call(call, env)
        if target in _ELEMENTWISE_CALLS:
            base = self._first_arg_value(call, env)
            if base.is_array:
                return ArrayValue(
                    kind=ARRAY, shape=base.shape, dtype=base.dtype
                )
            if base.kind == SCALAR:
                return scalar(base.dtype)
            return TOP
        if target in _REDUCTION_CALLS:
            base = (
                self.eval(call.func.value, env)
                if isinstance(call.func, ast.Attribute)
                else self._first_arg_value(call, env)
            )
            if _keyword(call, "axis") is not None or len(call.args) > (
                1 if not isinstance(call.func, ast.Attribute) else 0
            ):
                dtype = base.dtype if base.is_array else None
                return ArrayValue(kind=ARRAY, dtype=dtype)
            return scalar(base.dtype if base.kind != TOP_KIND else None)
        if target in self.summaries:
            return self.summaries[target]
        return TOP

    def _unify_call_args(
        self,
        call: ast.Call,
        contract: ArrayContract,
        env: Dict[str, ArrayValue],
        unifier: Unifier,
    ) -> None:
        for position, arg in enumerate(call.args):
            spec = contract.spec_for(position, None)
            if spec is None:
                continue
            value = self.eval(arg, env)
            if value.is_array:
                unifier.observe_shape(spec.shape, value.shape)
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            spec = contract.spec_for(-1, keyword.arg)
            if spec is None:
                continue
            value = self.eval(keyword.value, env)
            if value.is_array:
                unifier.observe_shape(spec.shape, value.shape)

    def _eval_allocator(
        self, target: str, call: ast.Call, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        dtype = _dtype_from_expr(_keyword(call, "dtype"))
        if target.endswith("_like"):
            base = self._first_arg_value(call, env)
            return ArrayValue(
                kind=ARRAY,
                shape=base.shape if base.is_array else None,
                dtype=dtype or (base.dtype if base.is_array else None),
                contiguous=True,
            )
        if target in ("arange", "linspace"):
            return ArrayValue(
                kind=ARRAY, shape=(DYN,), dtype=dtype, contiguous=True
            )
        shape = _dims_from_expr(call.args[0]) if call.args else None
        if dtype is None and target in ("zeros", "ones", "empty", "eye"):
            dtype = KERNEL_DTYPE  # numpy's default
        return ArrayValue(
            kind=ARRAY, shape=shape, dtype=dtype, contiguous=True
        )

    def _eval_asarray(
        self, call: ast.Call, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        dtype = _dtype_from_expr(_keyword(call, "dtype"))
        if dtype is None and len(call.args) > 1:
            dtype = _dtype_from_expr(call.args[1])
        if not call.args:
            return TOP
        source = call.args[0]
        inner = self.eval(source, env)
        if inner.is_array:
            # asarray is a passthrough unless the dtype changes, and
            # whether it changes is only knowable when both sides are:
            # stay unknown on contiguity otherwise.
            if dtype is None or dtype == inner.dtype:
                contiguous = inner.contiguous
            else:
                contiguous = None
            return ArrayValue(
                kind=ARRAY,
                shape=inner.shape,
                dtype=dtype or inner.dtype,
                contiguous=contiguous,
            )
        literal_shape = _nested_list_shape(source)
        if literal_shape is not None:
            return ArrayValue(
                kind=ARRAY,
                shape=literal_shape,
                dtype=dtype,
                contiguous=True,
            )
        return ArrayValue(kind=ARRAY, dtype=dtype)

    def _eval_matmul_call(
        self, call: ast.Call, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        if len(call.args) < 2:
            return TOP
        return self._matmul(
            self.eval(call.args[0], env), self.eval(call.args[1], env)
        )

    def _matmul(self, left: ArrayValue, right: ArrayValue) -> ArrayValue:
        dtype = promote_dtype(left.dtype, right.dtype)
        if (
            left.is_array
            and right.is_array
            and left.shape is not None
            and right.shape is not None
        ):
            if len(left.shape) == 2 and len(right.shape) == 1:
                return array_of((left.shape[0],), dtype=dtype)
            if len(left.shape) == 2 and len(right.shape) == 2:
                return array_of(
                    (left.shape[0], right.shape[1]), dtype=dtype
                )
            if len(left.shape) == 1 and len(right.shape) == 2:
                return array_of((right.shape[1],), dtype=dtype)
            if len(left.shape) == 1 and len(right.shape) == 1:
                return scalar(dtype)
        # A known rank-2 operand forces an array result whatever the
        # other side is; with both ranks unknown the result could be a
        # scalar (1-D @ 1-D), so TOP is the only monotone answer.
        if (left.is_array and left.rank == 2) or (
            right.is_array and right.rank == 2
        ):
            return ArrayValue(kind=ARRAY, dtype=dtype)
        return TOP

    def _eval_binop(
        self, expr: ast.BinOp, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if isinstance(expr.op, ast.MatMult):
            return self._matmul(left, right)
        if left.is_array or right.is_array:
            if left.is_array and right.is_array:
                shape, _ = broadcast_shapes(left.shape, right.shape)
                dtype = promote_dtype(left.dtype, right.dtype)
            elif left.is_array:
                # With a TOP other side the result could broadcast
                # wider than left.shape, so only a known scalar keeps
                # the shape.
                shape = left.shape if right.kind == SCALAR else None
                dtype = left.dtype if right.kind == SCALAR else None
            else:
                shape = right.shape if left.kind == SCALAR else None
                dtype = right.dtype if left.kind == SCALAR else None
            return ArrayValue(kind=ARRAY, shape=shape, dtype=dtype)
        if left.kind == SCALAR and right.kind == SCALAR:
            return scalar(promote_dtype(left.dtype, right.dtype))
        return TOP

    def _eval_subscript(
        self, expr: ast.Subscript, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        value = self.eval(expr.value, env)
        if not value.is_array:
            return TOP
        index = expr.slice
        if _is_fancy_index(index, env):
            # Fancy indexing materializes a fresh (contiguous) copy of
            # unknown extent.
            return ArrayValue(
                kind=ARRAY, dtype=value.dtype, contiguous=True
            )
        if isinstance(index, ast.Constant) and isinstance(index.value, int):
            if value.shape is None:
                # Unknown rank: an int index could yield a scalar (rank
                # 1) or an array (rank 2+), so anything more precise
                # than TOP would be non-monotone.
                return TOP
            if len(value.shape) == 1:
                return scalar(value.dtype)
            return array_of(value.shape[1:], dtype=value.dtype)
        if isinstance(index, ast.Slice):
            step_known_one = index.step is None or (
                isinstance(index.step, ast.Constant)
                and index.step.value == 1
            )
            shape: Shape = None
            if value.shape is not None:
                shape = (DYN,) + value.shape[1:]
            return ArrayValue(
                kind=ARRAY,
                shape=shape,
                dtype=value.dtype,
                contiguous=(
                    value.contiguous if step_known_one else False
                ),
            )
        if isinstance(index, ast.Tuple):
            all_ints = all(
                isinstance(element, ast.Constant)
                and isinstance(element.value, int)
                for element in index.elts
            )
            if all_ints:
                if value.shape is None:
                    return TOP  # could index down to a scalar
                remaining = value.shape[len(index.elts):]
                if not remaining:
                    return scalar(value.dtype)
                return array_of(remaining, dtype=value.dtype)
            # Mixed int/slice indexing: rank drops by the int count,
            # dims unknown; a leading full slice keeps contiguity
            # undecidable, a trailing one usually breaks it — stay
            # unknown rather than guess.
            return ArrayValue(kind=ARRAY, dtype=value.dtype)
        return ArrayValue(kind=ARRAY, dtype=value.dtype)

    # -- helpers ---------------------------------------------------------

    def _first_arg_value(
        self, call: ast.Call, env: Dict[str, ArrayValue]
    ) -> ArrayValue:
        if not call.args:
            return TOP
        return self.eval(call.args[0], env)

    def _join_arg_dtypes(
        self,
        call: ast.Call,
        env: Dict[str, ArrayValue],
        skip_first: bool = False,
    ) -> Optional[str]:
        dtypes: List[Optional[str]] = []
        args = call.args[1:] if skip_first else call.args
        for arg in args:
            if isinstance(arg, (ast.List, ast.Tuple)):
                for element in arg.elts:
                    dtypes.append(self.eval(element, env).dtype)
            else:
                dtypes.append(self.eval(arg, env).dtype)
        concrete = [d for d in dtypes if d is not None]
        if concrete and len(concrete) == len(dtypes) and all(
            d == concrete[0] for d in concrete
        ):
            return concrete[0]
        return None


def _is_fancy_index(
    index: ast.expr, env: Dict[str, ArrayValue]
) -> bool:
    """Does this subscript index trigger numpy advanced indexing?"""
    candidates: List[ast.expr] = (
        list(index.elts) if isinstance(index, ast.Tuple) else [index]
    )
    for candidate in candidates:
        if isinstance(candidate, ast.List):
            return True
        if isinstance(candidate, ast.Name):
            value = env.get(candidate.id)
            if value is not None and value.is_array:
                return True
    return False


# ----------------------------------------------------------------------
# Interprocedural return summaries
# ----------------------------------------------------------------------

_SUMMARY_ROUNDS = 3


def module_summaries(
    units: List[FunctionUnit],
) -> Dict[str, ArrayValue]:
    """Per-function return-value summaries for one module.

    Functions are keyed by their last qualname segment (the same
    convention call targets resolve by); same-named functions join.
    Summaries feed back into evaluation, so helper chains propagate —
    a couple of rounds reaches the fixpoint for any acyclic helper
    chain of that depth, and cycles safely stay at TOP.
    """
    summaries: Dict[str, ArrayValue] = {}
    for _ in range(_SUMMARY_ROUNDS):
        fresh: Dict[str, ArrayValue] = {}
        for unit in units:
            if unit.node is None:
                continue
            value = _return_summary(unit, summaries)
            name = unit.qualname.rsplit(".", 1)[-1].lstrip("_")
            if name in fresh:
                fresh[name] = join_value(fresh[name], value)
            else:
                fresh[name] = value
        interesting = {
            name: value
            for name, value in fresh.items()
            if value != TOP and name not in ARRAY_CONTRACTS
        }
        if interesting == summaries:
            break
        summaries = interesting
    return summaries


def _return_summary(
    unit: FunctionUnit, summaries: Dict[str, ArrayValue]
) -> ArrayValue:
    analysis = ShapeAnalysis(unit, summaries)
    result = run_forward(unit.cfg, analysis)
    returned: Optional[ArrayValue] = None
    for block in unit.cfg.blocks:
        state = result.block_in[block.index]
        for stmt in block.stmts:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                value = analysis.eval(stmt.value, state)
                returned = (
                    value
                    if returned is None
                    else join_value(returned, value)
                )
            state = analysis.transfer(state, stmt)
    return returned if returned is not None else TOP


# ----------------------------------------------------------------------
# The N7xx checker
# ----------------------------------------------------------------------

class _ShapeChecker:
    def __init__(
        self,
        path: str,
        unit: FunctionUnit,
        summaries: Dict[str, ArrayValue],
    ) -> None:
        self.path = path
        self.unit = unit
        self.analysis = ShapeAnalysis(unit, summaries)
        contract = self.analysis.contract
        self.is_hot = contract is not None and contract.hot_path
        self._seen: set = set()

    def run(self) -> List[Finding]:
        result = run_forward(self.unit.cfg, self.analysis)
        findings: List[Finding] = []
        for block in self.unit.cfg.blocks:
            state = result.block_in[block.index]
            for stmt in block.stmts:
                findings.extend(self._check_stmt(stmt, state, block))
                state = self.analysis.transfer(state, stmt)
        return findings

    def _check_stmt(
        self,
        stmt: ast.stmt,
        state: Dict[str, ArrayValue],
        block: BasicBlock,
    ) -> List[Finding]:
        del block
        findings: List[Finding] = []
        for expr in header_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_call(node, state))
                elif isinstance(node, ast.BinOp):
                    findings.extend(self._check_binop(node, state))
                elif isinstance(node, ast.Subscript) and self.is_hot:
                    findings.extend(self._check_subscript(node, state))
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            findings.extend(self._check_row_loop(stmt, state))
        return findings

    # -- N701 / N704 / N706: contract boundaries ------------------------

    def _check_call(
        self, call: ast.Call, state: Dict[str, ArrayValue]
    ) -> List[Finding]:
        findings: List[Finding] = []
        target = call_target(call.func) or "<call>"
        contract = array_contract(call.func)
        if contract is not None:
            findings.extend(self._check_contract_call(call, target, contract, state))
        if target in BLAS_KERNEL_CALLS:
            for position, arg in enumerate(call.args):
                value = self.analysis.eval(arg, state)
                if value.is_array and value.contiguous is False:
                    findings.extend(self._emit(
                        "N706", call,
                        f"argument {position + 1} of {target}() is "
                        "non-contiguous; the kernel will stride or "
                        "silently copy — call np.ascontiguousarray "
                        "outside the hot path",
                    ))
        if self.is_hot:
            if target in ALLOCATOR_CALLS:
                findings.extend(self._emit(
                    "N705", call,
                    f"np.{target}() allocates inside a hot-path "
                    "function; preallocate the buffer outside the "
                    "per-tick path and fill it in place",
                ))
            elif target in COPY_CALLS:
                findings.extend(self._emit(
                    "N703", call,
                    f"{target}() materializes a copy inside a "
                    "hot-path function; restructure so the hot path "
                    "works in preallocated storage",
                ))
        return findings

    def _check_contract_call(
        self,
        call: ast.Call,
        target: str,
        contract: ArrayContract,
        state: Dict[str, ArrayValue],
    ) -> List[Finding]:
        findings: List[Finding] = []
        unifier = Unifier()
        args: List[Tuple[str, ast.expr, Optional[ArraySpec]]] = []
        for position, arg in enumerate(call.args):
            args.append(
                (
                    f"argument {position + 1}",
                    arg,
                    contract.spec_for(position, None),
                )
            )
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            args.append(
                (
                    f"keyword '{keyword.arg}'",
                    keyword.value,
                    contract.spec_for(-1, keyword.arg),
                )
            )
        for where, arg, spec in args:
            if spec is None:
                continue
            value = self.analysis.eval(arg, state)
            if not value.is_array:
                continue
            if (
                spec.dtype is not None
                and value.dtype is not None
                and value.dtype != spec.dtype
            ):
                findings.extend(self._emit(
                    "N701", call,
                    f"{target}() is a {spec.dtype} kernel but {where} "
                    f"is {value.dtype}; the cast changes rounding and "
                    "breaks bit-for-bit replay",
                ))
            if (
                spec.shape is not None
                and value.shape is not None
                and len(spec.shape) != len(value.shape)
            ):
                findings.extend(self._emit(
                    "N704", call,
                    f"{target}() expects rank {len(spec.shape)} "
                    f"{_render_shape(spec.shape)} for {where}, got "
                    f"rank {len(value.shape)} "
                    f"{_render_shape(value.shape)}",
                ))
                continue
            if spec.contiguous and value.contiguous is False:
                findings.extend(self._emit(
                    "N706", call,
                    f"{target}() requires a contiguous {where} but the "
                    "operand is known non-contiguous",
                ))
            if value.shape is not None:
                unifier.observe_shape(spec.shape, value.shape)
        if not unifier.ok:
            declared, observed = unifier.conflicts[0]
            findings.extend(self._emit(
                "N704", call,
                f"{target}() arguments disagree on a shared dim: "
                f"declared {declared!r} observed as {observed!r} "
                "conflicts with another argument",
            ))
        return findings

    # -- N704: concrete broadcast mismatches ----------------------------

    def _check_binop(
        self, node: ast.BinOp, state: Dict[str, ArrayValue]
    ) -> List[Finding]:
        if isinstance(node.op, ast.MatMult):
            return []
        left = self.analysis.eval(node.left, state)
        right = self.analysis.eval(node.right, state)
        if not (left.is_array and right.is_array):
            return []
        _, compatible = broadcast_shapes(left.shape, right.shape)
        if compatible:
            return []
        return self._emit(
            "N704", node,
            f"operands of shape {_render_shape(left.shape)} and "
            f"{_render_shape(right.shape)} cannot broadcast",
        )

    # -- N703: fancy indexing in hot paths ------------------------------

    def _check_subscript(
        self, node: ast.Subscript, state: Dict[str, ArrayValue]
    ) -> List[Finding]:
        if not isinstance(node.ctx, ast.Load):
            return []
        value = self.analysis.eval(node.value, state)
        if not value.is_array:
            return []
        if not _is_fancy_index(node.slice, state):
            return []
        return self._emit(
            "N703", node,
            "fancy indexing copies inside a hot-path function; use a "
            "precomputed slice or index outside the per-tick path",
        )

    # -- N702: row loops over matrices ----------------------------------

    def _check_row_loop(
        self, stmt: ast.stmt, state: Dict[str, ArrayValue]
    ) -> List[Finding]:
        iterated = self.analysis.eval(stmt.iter, state)  # type: ignore[attr-defined]
        if not iterated.is_array:
            return []
        if iterated.shape is None or len(iterated.shape) < 2:
            return []
        loop_id = self.unit.cfg.loop_id_of(stmt)
        if loop_id is None:
            return []
        kernel = self._kernel_called_in_loop(loop_id)
        if kernel is None:
            return []
        return self._emit(
            "N702", stmt,
            f"Python-level loop over ndarray rows calls {kernel}() per "
            "row; the kernel is vectorized — call it once on the full "
            "matrix",
        )

    def _kernel_called_in_loop(self, loop_id: int) -> Optional[str]:
        for block in self.unit.cfg.blocks:
            if loop_id not in block.loops or block.index == loop_id:
                continue
            for stmt in block.stmts:
                for expr in header_exprs(stmt):
                    for node in ast.walk(expr):
                        if not isinstance(node, ast.Call):
                            continue
                        target = call_target(node.func)
                        if target is None:
                            continue
                        if (
                            target in ARRAY_CONTRACTS
                            or target in BLAS_KERNEL_CALLS
                        ):
                            return target
        return None

    def _emit(
        self, code: str, node: ast.AST, message: str
    ) -> List[Finding]:
        key = (code, node.lineno, node.col_offset)
        if key in self._seen:
            return []
        self._seen.add(key)
        return [Finding(
            code,
            message,
            f"{self.path}:{node.lineno}",
            context={"function": self.unit.qualname},
        )]


def _render_shape(shape: Shape) -> str:
    if shape is None:
        return "(?)"
    return "(" + ", ".join(str(dim) for dim in shape) + ")"


def check_shapes_source(
    source: str, path: Union[str, Path]
) -> List[Finding]:
    """N7xx findings for one module's source text."""
    path = Path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raise ValueError(f"cannot parse {path}: {error}") from error
    units = list(iter_function_units(tree))
    summaries = module_summaries(units)
    findings: List[Finding] = []
    for unit in units:
        findings.extend(_ShapeChecker(str(path), unit, summaries).run())
    return findings
