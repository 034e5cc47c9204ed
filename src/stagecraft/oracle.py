"""Ground-truth costs and policies for small finite systems.

Value iteration over an explicit transition table yields, per state,
the cheapest achievable total cost and a greedy policy attaining it.
Both serve as an independent reference: ``extract_ucc`` packages
them as a total-cost certificate with forward invariance, and the
brute-force enumerator re-derives the same costs from scratch on
systems small enough to enumerate.

States with no finite-cost future are detected structurally before
iterating: a total cost can only stay finite by eventually riding
zero-cost edges forever, so finite values exist exactly on states
that can reach the zero-cost core.

Cost of each step, for S states, U inputs and E = S * U edges: the
cost table is one array ``eval`` per cost part (plus one call per
entry for a cross term); the zero-cost core and the states reaching
it each sort the edges once into predecessor lists (in numpy) and then
visit every edge at most once, by a worklist and a reverse search;
value iteration stays O(sweeps * S * U), and a chain needs one sweep
per link.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple

import numpy as np

from .cmpfn import _max_per_x, identity, strict_table
from .certificates import TAIL_REPEAT, PolicyOracle, UCCCert
from .errors import EnvelopeError, ParameterError
from .system import ControlSystem, StageCost, _write_csv

__all__ = [
    "FiniteSystem",
    "ValueTable",
    "value_iterate",
    "extract_ucc",
    "greedy_policy",
    "zero_cost_core",
    "reaches_core",
    "brute_force_values",
    "discretize_scalar",
]

MAX_STATES = 10 ** 4
# a chain of n states settles in n sweeps plus one to confirm the fixed point
DEFAULT_MAX_ITER = MAX_STATES + 1
MAX_INPUTS = 10 ** 2
DIVERGENCE_FACTOR = 10 ** 6


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """Explicit transition and measure tables.

    ``successor[x, u]`` is the next state index; measures are indexed
    the same way.  At least one state must sit at measure zero so a
    cost-free resting place can exist.
    """

    successor: np.ndarray
    state_measure: np.ndarray
    input_measure: np.ndarray

    def __post_init__(self):
        succ = _index_table(self.successor)
        sig = np.asarray(self.state_measure, dtype=float)
        rho = np.asarray(self.input_measure, dtype=float)
        if succ.ndim != 2:
            raise ParameterError("successor table must be two-dimensional (states x inputs)")
        states, inputs = succ.shape
        if not (1 <= states <= MAX_STATES and 1 <= inputs <= MAX_INPUTS):
            raise ParameterError(f"table of {states} states x {inputs} inputs is out of range")
        if sig.shape != (states,) or rho.shape != (inputs,):
            raise ParameterError("measure tables must match the successor table")
        if np.any(succ < 0) or np.any(succ >= states):
            raise ParameterError("successor entries must be valid state indices")
        if np.any(sig < 0) or not np.all(np.isfinite(sig)):
            raise ParameterError("state measures must be finite and nonnegative")
        if np.any(rho < 0) or not np.all(np.isfinite(rho)):
            raise ParameterError("input measures must be finite and nonnegative")
        if not np.any(sig == 0.0):
            raise ParameterError("at least one state must have measure zero")
        object.__setattr__(self, "successor", succ)
        object.__setattr__(self, "state_measure", sig)
        object.__setattr__(self, "input_measure", rho)

    @property
    def num_states(self) -> int:
        return self.successor.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.successor.shape[1]

    def to_control_system(self) -> ControlSystem:
        succ, sig, rho = self.successor, self.state_measure, self.input_measure
        return ControlSystem(
            transition=lambda x, u: int(succ[int(x), int(u)]),
            state_measure=lambda x: float(sig[int(x)]),
            input_measure=lambda u: float(rho[int(u)]),
        )

    def to_json(self) -> dict:
        return {
            "kind": "finite_system",
            "successor": self.successor.tolist(),
            "state_measure": self.state_measure.tolist(),
            "input_measure": self.input_measure.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteSystem":
        try:
            tables = {
                key: np.asarray(obj[key], dtype=dtype)
                for key, dtype in (("successor", None), ("state_measure", float),
                                   ("input_measure", float))
            }
        except KeyError as exc:
            raise ParameterError(f"finite system JSON needs {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed finite system JSON: {exc}") from None
        # JSON booleans are Python ints, so an array of them mixed with indices reads as ints
        if any(type(v) is bool for v in np.asarray(obj["successor"], dtype=object).ravel().tolist()):
            raise ParameterError("successor entries must be integers, got a boolean")
        return FiniteSystem(**tables)


def _index_table(successor) -> np.ndarray:
    """The successor table as ints; boolean and fractional entries are rejected, not cast."""
    table = np.asarray(successor)
    if table.dtype.kind not in "iuf":
        raise ParameterError(f"successor entries must be integers, got dtype {table.dtype}")
    with np.errstate(invalid="ignore"):
        ints = table.astype(int, copy=False)
    if np.any(ints != table):
        raise ParameterError("successor entries must be integers, got a fractional or non-finite entry")
    return ints


def _cost_table(fsys: FiniteSystem, cost: StageCost) -> np.ndarray:
    """Stage cost of every (state, input) pair: one broadcast ``of_measures`` call."""
    return cost.of_measures(fsys.state_measure[:, None], fsys.input_measure[None, :])


def _predecessors(successor: np.ndarray, edges: Optional[np.ndarray] = None):
    """CSR predecessor lists of the edges ``x -> successor[x, u]``.

    Returns ``(start, preds)`` as Python lists: the sources of the edges
    into ``y`` are ``preds[start[y]:start[y + 1]]``, one entry per edge.
    ``edges`` optionally masks which (state, input) edges to keep.
    """
    states, inputs = successor.shape
    src = np.repeat(np.arange(states), inputs)
    dst = successor.ravel()
    if edges is not None:
        keep = edges.ravel()
        src, dst = src[keep], dst[keep]
    start = np.zeros(states + 1, dtype=int)
    np.cumsum(np.bincount(dst, minlength=states), out=start[1:])
    return start.tolist(), src[np.argsort(dst, kind="stable")].tolist()


def zero_cost_core(
    fsys: FiniteSystem, cost: StageCost, *, table: Optional[np.ndarray] = None
) -> np.ndarray:
    """States that can ride zero-cost edges forever (boolean mask).

    Greatest fixed point of "keep the states with a zero-cost edge into
    the kept set", found by a worklist: each state counts its zero-cost
    edges into the kept set, and a state whose count drops to zero is
    dropped and decrements its zero-cost predecessors.  Every edge is
    visited at most once, so the cost is linear in the edge count.
    ``table`` reuses a cost table already built for ``cost``.
    """
    if table is None:
        table = _cost_table(fsys, cost)
    free = table == 0.0
    live = np.count_nonzero(free, axis=1)
    start, preds = _predecessors(fsys.successor, free)
    dropped = np.flatnonzero(live == 0).tolist()
    live = live.tolist()
    while dropped:
        y = dropped.pop()
        for x in preds[start[y]:start[y + 1]]:
            live[x] -= 1
            if live[x] == 0:
                dropped.append(x)
    return np.array(live) > 0


def reaches_core(fsys: FiniteSystem, core: np.ndarray) -> np.ndarray:
    """States with some path into the core (boolean mask).

    Reverse search from the core over the predecessor lists, visiting
    every edge at most once, so the cost is linear in the edge count.
    """
    start, preds = _predecessors(fsys.successor)
    reach = np.array(core, dtype=bool).tolist()
    frontier = np.flatnonzero(core).tolist()
    while frontier:
        y = frontier.pop()
        for x in preds[start[y]:start[y + 1]]:
            if not reach[x]:
                reach[x] = True
                frontier.append(x)
    return np.array(reach, dtype=bool)


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Converged cheapest total costs with a greedy policy.

    ``values`` is infinite on states that cannot keep their total
    cost finite.  ``greedy[x]`` is the lowest input index minimizing
    stage cost plus successor value.
    """

    values: np.ndarray
    greedy: np.ndarray
    iterations: int
    residual: float
    converged: bool
    cost: StageCost

    def to_csv(self, fsys: FiniteSystem, fp) -> None:
        rows = zip(range(fsys.num_states), fsys.state_measure.tolist(), self.values.tolist(),
                   self.greedy.tolist())
        _write_csv(fp, [("state", "sigma", "value", "greedy"), *rows])


def value_iterate(
    fsys: FiniteSystem,
    cost: StageCost,
    tol: float = 1e-10,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ValueTable:
    """Synchronous value iteration from below.

    Values start at zero and rise monotonically, so iteration is
    restricted to states that can reach the zero-cost core; all
    others are infinite outright.  Stops when one sweep moves no
    finite value by more than ``tol``; hitting ``max_iter`` first is
    reported through the ``converged`` flag, not an exception.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tolerance must be finite and nonnegative, got {tol!r}")
    table = _cost_table(fsys, cost)
    finite_mask = reaches_core(fsys, zero_cost_core(fsys, cost, table=table))

    values = np.where(finite_mask, 0.0, np.inf)
    live = np.flatnonzero(finite_mask)
    # sweep only the finite states, one row per input, so the minimum over
    # inputs runs elementwise across contiguous rows
    live_costs = np.ascontiguousarray(table[live].T)
    live_succ = np.ascontiguousarray(fsys.successor[live].T)
    iterations = 0
    residual = np.inf
    converged = False
    while iterations < max_iter:
        new_live = np.min(live_costs + values[live_succ], axis=0)
        iterations += 1
        residual = float(np.max(np.abs(new_live - values[live]))) if live.size else 0.0
        values[live] = new_live
        if residual <= tol:
            converged = True
            break

    cap = DIVERGENCE_FACTOR * max(float(np.max(table)), 1.0)
    values = np.where(values > cap, np.inf, values)
    greedy = np.argmin(table + values[fsys.successor], axis=1)
    return ValueTable(
        values=values,
        greedy=np.asarray(greedy, dtype=int),
        iterations=iterations,
        residual=residual,
        converged=converged,
        cost=cost,
    )


def greedy_policy(vt: ValueTable, fsys: FiniteSystem, prefix_len: int = 512) -> PolicyOracle:
    """Follow the greedy input table from a starting state index."""
    succ, greedy = fsys.successor.tolist(), vt.greedy.tolist()

    def prefix(x, n):
        state = int(x)
        controls = []
        for _ in range(n):
            u = greedy[state]
            controls.append(u)
            state = succ[state][u]
        return controls

    return PolicyOracle(prefix=prefix, length=prefix_len, tail=TAIL_REPEAT, ref="greedy")


def extract_ucc(
    vt: ValueTable,
    fsys: FiniteSystem,
    margin: float = 1.5,
    prefix_len: int = 512,
) -> UCCCert:
    """Package a converged value table as a total-cost certificate.

    The cost bound is a strictly increasing envelope over the
    per-measure-level maxima of ``margin * value``; states sharing a
    measure level share the larger value.  Requires finite values
    everywhere and zero values on zero-measure states, otherwise the
    envelope cannot both vanish at zero and dominate.
    """
    if not vt.converged:
        raise ParameterError("value table did not converge; refusing to certify")
    if margin < 1.0:
        raise ParameterError(f"margin must be at least 1, got {margin!r}")
    sig = fsys.state_measure
    values = vt.values
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        x = int(bad[0])
        raise EnvelopeError(
            f"state {x} (measure {sig[x]:g}) has no finite total cost; "
            "restrict the system to states that can reach the zero-cost core"
        )
    bad = np.flatnonzero((sig == 0.0) & (values > 0.0))
    if bad.size:
        x = int(bad[0])
        raise EnvelopeError(
            f"state {x} has measure 0 but total cost {values[x]:g}; "
            "a strictly increasing bound through the origin cannot dominate it"
        )

    positive = sig > 0.0
    if not np.any(positive):
        bound = identity()
    else:
        knots, peaks = _max_per_x(sig[positive], values[positive])
        bound = strict_table(knots, margin * peaks + 1e-9 * knots)

    states = fsys.num_states
    return UCCCert(
        stage_cost=vt.cost,
        cost_bound=bound,
        domain=lambda x: 0 <= int(x) < states,
        policy=greedy_policy(vt, fsys, prefix_len),
        forward_invariant=True,
    )


def brute_force_values(fsys: FiniteSystem, cost: StageCost, depth: int = 8) -> np.ndarray:
    """Cheapest cost over all input sequences of the given depth.

    Sequences must end inside the zero-cost core so the remaining
    infinite tail is free; all others count as infinite.  Exponential
    in ``depth``, intended only as an independent check on tiny
    systems.
    """
    if fsys.num_inputs ** depth > 2 ** 20:
        raise ParameterError("enumeration would be too large; shrink depth or the system")
    table = _cost_table(fsys, cost)
    core = zero_cost_core(fsys, cost, table=table)
    best = np.full(fsys.num_states, np.inf)
    for seq in product(range(fsys.num_inputs), repeat=depth):
        for x0 in range(fsys.num_states):
            state = x0
            total = 0.0
            for u in seq:
                total += table[state, u]
                state = int(fsys.successor[state, u])
            if core[state]:
                best[x0] = min(best[x0], total)
    return best


def discretize_scalar(
    step,
    state_points,
    input_points,
    state_measure=abs,
    input_measure=abs,
) -> FiniteSystem:
    """Snap a scalar map onto finite grids by nearest neighbor.

    ``step(x, u)`` is evaluated on the grid cross product and its
    result snapped to the nearest state grid point (clamped at the
    ends).  The state grid must contain a zero-measure point.
    """
    xs = np.asarray(state_points, dtype=float)
    us = np.asarray(input_points, dtype=float)
    if xs.ndim != 1 or us.ndim != 1 or xs.size < 1 or us.size < 1:
        raise ParameterError("grids must be one-dimensional and nonempty")
    if np.any(np.diff(xs) <= 0):
        raise ParameterError("state grid must be strictly increasing")
    targets = np.array([[float(step(x, u)) for u in us] for x in xs])
    k = np.searchsorted(xs, targets)
    # clamping the bracket also clamps targets beyond either grid end
    hi = np.minimum(k, xs.size - 1)
    lo = np.maximum(k - 1, 0)
    succ = np.where(xs[hi] - targets <= targets - xs[lo], hi, lo)
    return FiniteSystem(
        successor=succ,
        state_measure=np.array([float(state_measure(x)) for x in xs]),
        input_measure=np.array([float(input_measure(u)) for u in us]),
    )
