"""Closed algebra of comparison functions.

Scalar comparison functions are expression trees over a fixed primitive
set (identity, power, linear, const, sum, product, scale, compose,
pointwise min, inverse-of, monotone table), so class membership is
decided by construction instead of by probing arbitrary callables.
Each node evaluates, inverts and checks itself.  One field codec
(``_CODECS``) writes and reads nodes, function wrappers and decay
bounds alike, as JSON objects tagged by ``op`` and ``kind``: a JSON
number is an int or a float, never a boolean or a string, in every
field and array entry.
Two wrappers are exposed for one-argument functions:

* ``KInfFn``: zero at zero, strictly increasing, unbounded.
* ``NonnegFn``: merely nonnegative.  Every ``KInfFn`` is usable as a
  ``NonnegFn``.

Two-argument decay bounds ``(r, t) -> value`` come in two forms:
``SeparableKL`` (``outer(decay**t * inner(r))``) and ``SampledKL`` (a
validated grid with interpolation in ``r`` and geometric extrapolation
in ``t``).  ``kl_decompose`` rewrites any of them as a separable bound
with a prescribed decay rate, which is the workhorse behind stage-cost
synthesis.

Evaluation accepts scalars or numpy arrays, but trees only ever see
1-d arrays: a scalar is evaluated as a one-point array and unwrapped,
so a float call equals its entry in any array bitwise (numpy rounds
``**`` on numpy scalars and on arrays through different kernels).
Decay bounds broadcast ``r`` against ``t``, so every grid check and
decomposition here evaluates its bound over the whole ``(r, t)`` grid
in one call.  Numeric inversion is a bracketed bisection vectorised
over query points; structurally invertible trees (powers, linear maps,
tables, compositions of those) take an exact shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DecompositionError,
    DomainError,
    InversionError,
    KLValidityError,
    MonotoneInputError,
    ParameterError,
)

__all__ = [
    "KInfFn",
    "NonnegFn",
    "KLFn",
    "SeparableKL",
    "SampledKL",
    "identity",
    "power",
    "linear",
    "const_fn",
    "table_fn",
    "scale",
    "compose",
    "combine",
    "pointwise_min",
    "inverse_of",
    "kl_decompose",
    "strict_table",
    "scale_kl",
    "fn_from_json",
    "kl_from_json",
    "DEFAULT_R_GRID",
    "DEFAULT_T_GRID",
]

# Shared validation grid: 64 log-spaced magnitudes crossed with integer
# steps 0..64.  Grid-based checks and decompositions default to it.
DEFAULT_R_GRID = np.logspace(-4.0, 4.0, 64)
DEFAULT_T_GRID = np.arange(65, dtype=float)

_INVERT_BRACKET_CAP = 200
_INVERT_MAX_BISECT = 800
_INVERT_REL_TOL = 1e-12
_ENVELOPE_EPS = 1e-9


def _errstate():
    return np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")


def _finite_positive(value, name):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# expression tree nodes
# ---------------------------------------------------------------------------


def _node(obj):
    if not isinstance(obj, Expr):
        raise ParameterError(f"expected an expression node, got {type(obj).__name__}")
    return obj


class Expr:
    """Base class of expression-tree nodes.

    ``eval`` and ``invert`` take and return 1-d float arrays.  Fields
    annotated ``Expr`` hold child nodes; the init fields, in order, are
    the node's JSON keys after ``op``.
    """

    __slots__ = ()
    op = None

    def eval(self, r):
        raise NotImplementedError

    def invert(self, y):
        return _invert_numeric(self, y)

    def check(self, kinf):
        """Raise unless the tree is nonnegative and, with ``kinf``, every
        node preserves zero-at-zero + strict growth + unboundedness."""
        for f in fields(self):
            if f.type == "Expr":
                _node(getattr(self, f.name)).check(kinf)

    def to_obj(self):
        return _record_json(self, "op")


@dataclass(frozen=True)
class Identity(Expr):
    op = "identity"

    def eval(self, r):
        return r

    def invert(self, y):
        return y


@dataclass(frozen=True)
class Power(Expr):
    p: float
    op = "power"

    def __post_init__(self):
        _finite_positive(self.p, "power exponent")

    def eval(self, r):
        return r ** self.p

    def invert(self, y):
        return y ** (1.0 / self.p)


@dataclass(frozen=True)
class Linear(Expr):
    c: float
    op = "linear"

    def __post_init__(self):
        _finite_positive(self.c, "linear slope")

    def eval(self, r):
        return self.c * r

    def invert(self, y):
        return y / self.c


@dataclass(frozen=True)
class Const(Expr):
    c: float
    op = "const"

    def __post_init__(self):
        if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c >= 0):
            raise ParameterError(f"const value must be finite and nonnegative, got {self.c!r}")

    def eval(self, r):
        return np.full_like(r, self.c)

    def check(self, kinf):
        if kinf:
            raise ParameterError("a constant node cannot appear in an unbounded strictly increasing tree")


@dataclass(frozen=True)
class Scale(Expr):
    c: float
    inner: Expr
    op = "scale"

    def __post_init__(self):
        _finite_positive(self.c, "scale factor")

    def eval(self, r):
        return self.c * self.inner.eval(r)

    def invert(self, y):
        return self.inner.invert(y / self.c)


@dataclass(frozen=True)
class _Pointwise(Expr):
    """Two subtrees joined by the ufunc ``join``; no closed-form inverse."""

    left: Expr
    right: Expr

    def eval(self, r):
        return self.join(self.left.eval(r), self.right.eval(r))


@dataclass(frozen=True)
class Sum(_Pointwise):
    op, join = "sum", np.add


@dataclass(frozen=True)
class Product(_Pointwise):
    op, join = "product", np.multiply


@dataclass(frozen=True)
class Min(_Pointwise):
    op, join = "min", np.minimum


@dataclass(frozen=True)
class Compose(Expr):
    outer: Expr
    inner: Expr
    op = "compose"

    def eval(self, r):
        return self.outer.eval(self.inner.eval(r))

    def invert(self, y):
        return self.inner.invert(self.outer.invert(y))


@dataclass(frozen=True)
class InverseOf(Expr):
    inner: Expr
    op = "inverse_of"

    def eval(self, r):
        return self.inner.invert(r)

    def invert(self, y):
        return self.inner.eval(y)

    def check(self, kinf):
        # only meaningful for invertible trees
        super().check(kinf=True)


@dataclass(frozen=True, eq=False)
class Table(Expr):
    """Strictly increasing piecewise-linear interpolant through (0, 0).

    Beyond the last knot the final segment is continued with its own
    slope, which keeps the interpolant strictly increasing and unbounded.
    """

    x: np.ndarray
    y: np.ndarray
    op = "table"

    def __post_init__(self):
        xs = np.array(self.x, dtype=float)
        ys = np.array(self.y, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise MonotoneInputError("table needs matching 1-d knot arrays with >= 2 points")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise MonotoneInputError("table must start at the origin")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise MonotoneInputError("table knots must be finite")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise MonotoneInputError("table knots must be strictly increasing in both coordinates")
        for name, knots in (("x", xs), ("y", ys)):
            knots.flags.writeable = False
            object.__setattr__(self, name, knots)

    def eval(self, r):
        return _interp_extend(r, self.x, self.y)

    def invert(self, y):
        return _interp_extend(y, self.y, self.x)


def _interp_extend(q, xs, ys):
    """np.interp plus linear continuation of the last segment."""
    out = np.interp(q, xs, ys)
    hi = q > xs[-1]
    if np.any(hi):
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(hi, ys[-1] + slope * (q - xs[-1]), out)
    return out


def _invert_numeric(expr, y):
    """Bracket [0, hi] by doubling, then bisect, vectorised over y."""
    hi = np.ones_like(y)
    for _ in range(_INVERT_BRACKET_CAP):
        short = expr.eval(hi) < y
        if not np.any(short):
            break
        hi = np.where(short, 2.0 * hi, hi)
    else:
        raise InversionError(
            "bracket expansion hit the doubling cap; the function never reaches the target"
        )
    lo = np.zeros_like(y)
    live = y > 0.0
    for _ in range(_INVERT_MAX_BISECT):
        if not np.any(live):
            break
        mid = 0.5 * (lo + hi)
        below = expr.eval(mid) < y
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
        live = live & (hi - lo > _INVERT_REL_TOL * hi)
    out = 0.5 * (lo + hi)
    return np.where(y == 0.0, 0.0, out)


def _node_from_obj(obj):
    return _record_from_json(obj, "op", _NODES, "expression")


_NODES = {
    node.op: node
    for node in (Identity, Power, Linear, Const, Scale, Sum, Product, Min, Compose, InverseOf, Table)
}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _on_points(method, x, domain):
    """Apply a node method to x as a 1-d array; a scalar is one point, returned as a float."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{domain}, got {x!r}")
    with _errstate():
        out = method(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(eq=False, repr=False)
class NonnegFn:
    """Nonnegative scalar function backed by an expression tree; ``kind``
    tags the record in JSON, and a ``"kinf"`` tree must also grow
    strictly and without bound."""

    __slots__ = ("expr",)
    kind = "nonneg"
    expr: Expr

    def __post_init__(self):
        _node(self.expr).check(self.kind == "kinf")

    def eval(self, r):
        return _on_points(self.expr.eval, r, "comparison functions are defined on [0, inf)")

    __call__ = eval

    def to_json(self):
        return _record_json(self, "kind")

    def __repr__(self):
        return f"{type(self).__name__}({self.expr.to_obj()!r})"


class KInfFn(NonnegFn):
    """Strictly increasing, unbounded, zero at zero."""

    __slots__ = ()
    kind = "kinf"

    def invert(self, y):
        return _on_points(self.expr.invert, y, "inverse queries must be finite and nonnegative")


# ---------------------------------------------------------------------------
# constructors / operations
# ---------------------------------------------------------------------------


def identity():
    return KInfFn(Identity())


def power(p):
    return KInfFn(Power(float(p)))


def linear(c):
    return KInfFn(Linear(float(c)))


def const_fn(c):
    return NonnegFn(Const(float(c)))


def table_fn(xs, ys):
    """Strictly monotone interpolant; a leading (0, 0) knot is implied."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size and xs[0] > 0.0:
        xs, ys = np.insert(xs, 0, 0.0), np.insert(ys, 0, 0.0)
    return KInfFn(Table(xs, ys))


def _wrap(expr, *parts):
    """Return a KInfFn when all parts are, otherwise a NonnegFn."""
    return (KInfFn if all(isinstance(p, KInfFn) for p in parts) else NonnegFn)(expr)


def scale(c, f):
    c = _finite_positive(c, "scale factor")
    return _wrap(Scale(c, f.expr), f)


def compose(f, g):
    """Pointwise composition r -> f(g(r))."""
    return _wrap(Compose(f.expr, g.expr), f, g)


def pointwise_min(f, g):
    return combine(f, g, "min")


def inverse_of(f):
    if not isinstance(f, KInfFn):
        raise ParameterError("only strictly increasing unbounded functions can be inverted")
    return KInfFn(InverseOf(f.expr))


def combine(f, g, mode):
    """Pointwise combination f (op) g for op in sum/product/min; ``scale`` weights a part."""
    if mode not in ("sum", "product", "min"):
        raise ParameterError(f"unknown combination mode {mode!r}")
    return _wrap(_NODES[mode](f.expr, g.expr), f, g)


def _max_per_x(xs, ys):
    """Distinct abscissae in increasing order, each with its largest ordinate."""
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    if xs.size == 0:
        return xs, ys
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    return xs[first], np.maximum.reduceat(ys, first)


def strict_table(xs, ys):
    """Monotone table through the data, repaired to strict increase.

    Duplicate abscissae keep their largest ordinate, ordinates are
    pushed up to a running maximum, and exact ties are separated by the
    smallest representable step so the result is a valid table node
    while never dropping below the input points.
    """
    keep_x, keep_y = _max_per_x(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    if keep_x.size == 0 or keep_x[0] > 0.0:
        keep_x = np.concatenate(([0.0], keep_x))
        keep_y = np.concatenate(([0.0], keep_y))
    # + 0.0 turns -0.0 into +0.0, the double whose int64 view is 0
    ys = np.maximum.accumulate(keep_y + 0.0)
    if ys[0] == 0.0 and np.isfinite(ys).all():
        # other input reaches Table unrepaired, and Table rejects it
        ys = _strict_running_max(ys)
    return KInfFn(Table(keep_x, ys))


def _strict_running_max(values):
    """``out[i] = max(values[i], nextafter(out[i-1], inf))`` down axis 0, for
    finite ``values`` >= +0.0: such doubles order as their int64 views, adjacent
    ones one apart, so it is a running maximum of view - i, plus i."""
    steps = np.arange(len(values)).reshape(-1, *[1] * (values.ndim - 1))
    return (np.maximum.accumulate(values.view(np.int64) - steps, axis=0) + steps).view(float)


_WRAPPERS = {wrapper.kind: wrapper for wrapper in (KInfFn, NonnegFn)}


def fn_from_json(obj):
    """Rebuild a one-argument comparison function from its JSON form."""
    return _record_from_json(obj, "kind", _WRAPPERS, "function")


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


def _is_number(kind):
    """Whether values of type ``kind`` are numbers: ints and floats, subclasses
    such as ``np.float64`` included, but not ``bool`` and not ``str``."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _real(value):
    """A JSON number as a float: ``true`` and strings are not numbers."""
    if not _is_number(type(value)):
        raise ValueError("expected a number")
    return float(value)


def _grid(values):
    """A JSON array of numbers, nested to any depth, as a float array:
    ``_real``'s rule for every entry."""
    if not all(map(_is_number, set(map(type, np.asarray(values, dtype=object).ravel().tolist())))):
        raise ValueError("expected an array of numbers")
    return np.asarray(values, dtype=float)


def _record_json(record, tag):
    """A dataclass record as a JSON object: its ``tag`` attribute, then its
    init fields in order, each written by the codec of its annotation."""
    values = {f.name: _CODECS[f.type][0](getattr(record, f.name)) for f in fields(record) if f.init}
    return {tag: getattr(record, tag), **values}


def _record_from_json(obj, tag, records, noun):
    """The record ``records[obj[tag]]``, its init fields read from ``obj`` by
    their codecs; any fault is a ``ParameterError`` naming the record."""
    key = obj.get(tag) if isinstance(obj, dict) else None
    try:
        cls = records[key]
    except (KeyError, TypeError):
        raise ParameterError(f"unknown {noun} {tag} {key!r} in {obj!r}") from None
    try:
        return cls(*(_CODECS[f.type][1](obj[f.name]) for f in fields(cls) if f.init))
    except KeyError as exc:
        raise ParameterError(f"{noun} {tag} {key!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{noun} {tag} {key!r} has a malformed field: {exc}") from exc


# field annotation -> (to JSON, from JSON)
_CODECS = {
    "float": (lambda v: v, _real),
    "np.ndarray": (np.ndarray.tolist, _grid),
    "Expr": (Expr.to_obj, _node_from_obj),
    "KInfFn": (KInfFn.to_json, fn_from_json),
}


# ---------------------------------------------------------------------------
# two-argument decay bounds
# ---------------------------------------------------------------------------


def _kl_domain(r, t):
    """r and t as float arrays, after the one domain check of decay bounds."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    # min and max propagate NaN, so these three comparisons also reject it
    finite_r = r.min(initial=0.0) >= 0.0 and r.max(initial=0.0) < np.inf
    if not (finite_r and t.min(initial=0.0) >= 0.0):
        raise DomainError(
            "decay bounds need finite r >= 0 and t >= 0 (t may be +inf), "
            f"got r={r!r}, t={t!r}"
        )
    return r, t


class KLFn:
    """Base class for bounds beta(r, t): increasing in r, decaying in t.

    Each form is a dataclass record whose ``kind`` tags its JSON.
    ``eval(r, t)`` takes scalars or arrays that broadcast against each
    other and returns one value per broadcast point; two scalars give a
    ``float``.  Every call checks the domain once: r must be finite and
    nonnegative, t nonnegative and not NaN (t = +inf is allowed and
    gives 0); anything else raises ``DomainError``.
    """

    __slots__ = ()

    def eval(self, r, t):
        raise NotImplementedError

    __call__ = eval

    def to_json(self):
        return _record_json(self, "kind")


@dataclass(frozen=True)
class SeparableKL(KLFn):
    """beta(r, t) = outer(decay**t * inner(r)) with decay in (0, 1)."""

    kind = "kl.separable"
    outer: KInfFn
    decay: float
    inner: KInfFn

    def __post_init__(self):
        if not (isinstance(self.outer, KInfFn) and isinstance(self.inner, KInfFn)):
            raise ParameterError("separable bounds need strictly increasing unbounded factors")
        if not (0.0 < self.decay < 1.0):
            raise ParameterError(f"decay rate must lie in (0, 1), got {self.decay!r}")

    def eval(self, r, t):
        r, t = _kl_domain(r, t)
        # scalars go in as one-point arrays so every ** takes the array kernel
        out = self.outer.eval(self.decay ** np.atleast_1d(t) * self.inner.eval(np.atleast_1d(r)))
        return float(out[0]) if r.ndim == t.ndim == 0 else out

    __call__ = eval


@dataclass(frozen=True, eq=False)
class SampledKL(KLFn):
    """Grid-backed decay bound.

    Values are linearly interpolated in ``r`` (anchored at the origin
    and continued with the last slope above the grid) and in ``t``
    within the grid, which starts at ``t = 0`` so every query time is
    covered; past the last time column every row decays
    geometrically with one common ratio, the largest ratio of a row's
    final two columns, so rows stay strictly increasing in ``r``.

    ``eval`` is one array kernel for scalar and array queries alike: it
    blends each query's two time columns at its two ``r`` neighbours
    only.  The tail power is a scalar ``**`` once per distinct time past
    the grid, not an array ``**``, which numpy may round through another
    kernel; so a float call equals its entry in any array bitwise.
    """

    kind = "kl.sampled"
    r_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=float)
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or t.ndim != 1 or v.shape != (r.size, t.size):
            raise KLValidityError("grid shapes disagree: values must be (len(r_grid), len(t_grid))")
        if r.size < 2 or t.size < 2:
            raise KLValidityError("grids need at least two points per axis")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise KLValidityError("grid nodes must be finite")
        if np.any(r < 0) or np.any(np.diff(r) <= 0):
            raise KLValidityError("r grid must be nonnegative and strictly increasing")
        if t[0] != 0.0 or not np.all(np.diff(t) > 0):
            raise KLValidityError("t grid must start at 0 and strictly increase")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise KLValidityError("values must be finite and nonnegative")
        dr = np.diff(v, axis=0)
        if np.any(dr <= 0):
            i, j = np.argwhere(dr <= 0)[0]
            raise KLValidityError(
                f"values must strictly increase in r; violated between rows {i} and {i + 1} at column {j}"
            )
        rows = v[r > 0]
        dt = np.diff(rows, axis=1)
        if np.any(dt >= 0):
            i, j = np.argwhere(dt >= 0)[0]
            raise KLValidityError(
                f"values must strictly decrease in t for r > 0; violated at row {i}, columns {j}..{j + 1}"
            )
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)

    def eval(self, r, t):
        r, t = np.broadcast_arrays(*_kl_domain(r, t))
        shape = r.shape
        r, t = r.reshape(-1), t.reshape(-1)
        rg, tg, v = self.r_grid, self.t_grid, self.values
        if rg[0] > 0.0:
            rg = np.concatenate(([0.0], rg))
            v = np.concatenate((np.zeros((1, tg.size)), v))
        # t-blend weights; a time past the grid, +inf too, blends to exactly
        # the last column (w = 1), which the tail factor then decays
        inside = np.minimum(t, tg[-1])
        j = np.maximum(np.searchsorted(tg, inside), 1)
        w = (inside - tg[j - 1]) / (tg[j] - tg[j - 1])
        tail = np.ones(t.shape)
        past = t > tg[-1]
        if past.any():
            with _errstate():
                ratio = np.where(v[:, -2] > 0, v[:, -1] / v[:, -2], 0.0)
            # one common ratio, the slowest row's, keeps the rows from crossing
            ratio = min(max(float(ratio.max()), 0.0), 1.0 - 1e-12)
            times, which = np.unique(t[past], return_inverse=True)
            tail[past] = np.array([ratio ** (tk - tg[-1]) for tk in times.tolist()])[which]
        # np.interp's formula from the last node at or below r; at and above
        # the last node, the last segment's slope continues from that node
        at = np.searchsorted(rg, r, side="right") - 1
        seg = np.minimum(at, rg.size - 2)
        rows = seg + np.array([[0], [1]])
        lo, hi = ((1.0 - w) * v[rows, j - 1] + w * v[rows, j]) * tail
        slope = (hi - lo) / np.diff(rg)[seg]
        out = slope * (r - rg[at]) + np.where(at > seg, hi, lo)
        return float(out[0]) if shape == () else out.reshape(shape)

    __call__ = eval


_BOUNDS = {bound.kind: bound for bound in (SeparableKL, SampledKL)}


def kl_from_json(obj):
    """Rebuild a decay bound from its JSON form."""
    return _record_from_json(obj, "kind", _BOUNDS, "decay-bound")


def scale_kl(beta, c):
    """Pointwise scaling c * beta, staying within the same representation."""
    c = _finite_positive(c, "bound scale")
    if isinstance(beta, SeparableKL):
        return SeparableKL(outer=scale(c, beta.outer), decay=beta.decay, inner=beta.inner)
    if isinstance(beta, SampledKL):
        return SampledKL(r_grid=beta.r_grid, t_grid=beta.t_grid, values=c * beta.values)
    raise ParameterError(f"unknown decay-bound type {type(beta).__name__}")


# ---------------------------------------------------------------------------
# separable decomposition
# ---------------------------------------------------------------------------


def kl_decompose(beta, decay=0.5, r_grid=None, t_grid=None, slack=_ENVELOPE_EPS):
    """Dominate a decay bound by a separable one with the given rate.

    A separable input whose rate already matches is returned unchanged.
    Otherwise the inner gauge is the t = 0 slice plus the identity (a
    strict-increase repair), and the outer warp is the strictly
    increasing upper envelope of the scatter
    ``(decay**t * inner(r), beta(r, t))`` over the grid, lifted by a
    relative margin so envelope domination survives interpolation.
    Its knots are the two ends of each plateau of the running maximum:
    inside a plateau the envelope ``top + eps * s`` is linear in s, so
    the chord between the ends is the same function as the full table.
    Domination is re-verified on the grid before returning.
    """
    if not (0.0 < decay < 1.0):
        raise ParameterError(f"decay rate must lie in (0, 1), got {decay!r}")
    if isinstance(beta, SeparableKL) and beta.decay == decay:
        return beta
    if isinstance(beta, SampledKL):
        r_grid = beta.r_grid if r_grid is None else np.asarray(r_grid, dtype=float)
        t_grid = beta.t_grid if t_grid is None else np.asarray(t_grid, dtype=float)
    else:
        r_grid = DEFAULT_R_GRID if r_grid is None else np.asarray(r_grid, dtype=float)
        t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)

    inner = combine(strict_table(r_grid, beta.eval(r_grid, 0.0)), identity(), "sum")
    cloud_s = inner.eval(r_grid)[:, None] * decay ** t_grid[None, :]
    cloud_v = beta.eval(r_grid[:, None], t_grid[None, :])

    xs, vs = _max_per_x(cloud_s.ravel(), cloud_v.ravel())
    top = np.maximum.accumulate(vs)
    rise = np.diff(top) > 0
    ends = np.concatenate(([True], rise)) | np.concatenate((rise, [True]))
    outer = strict_table(xs[ends], top[ends] + _ENVELOPE_EPS * xs[ends])

    result = SeparableKL(outer=outer, decay=decay, inner=inner)
    worst = float(np.max(cloud_v - outer.eval(cloud_s)))
    if worst > slack:
        raise DecompositionError(
            f"envelope fails to dominate the input bound on the grid by {worst:.3e}"
        )
    return result
