"""Ground-truth costs and policies for small finite systems.

Shortest paths over an explicit transition table give, per state, the
cheapest achievable total cost and a greedy policy attaining it.
Both serve as an independent reference: ``extract_ucc`` packages
them as a total-cost certificate with forward invariance, and the
brute-force enumerator re-derives the same costs from scratch on
systems small enough to enumerate.

A total cost can only stay finite by eventually riding zero-cost
edges forever, so finite values exist exactly on states that can
reach the zero-cost core, and they are the shortest-path distances
to it: a search outward from the core finds them and leaves every
other state infinite.

Cost of each step, for S states, U inputs and E = S * U edges: the
cost table is one array ``eval`` per cost part (plus one call per
entry for a cross term); the zero-cost core sorts the edges once into
predecessor lists (in numpy) and visits every edge at most once by a
worklist; the values are shortest-path distances to the core, found
in O(E log S) by Dijkstra's method over the same predecessor lists,
and one O(S * U) Bellman sweep confirms them and picks the greedy inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product
from typing import ClassVar, Optional, Tuple

import numpy as np

from .cmpfn import _max_per_x, identity, strict_table
from .certificates import TAIL_REPEAT, PolicyOracle, UCCCert
from .errors import EnvelopeError, ParameterError, StagecraftError
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
MAX_INPUTS = 10 ** 2


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

    Returns ``(start, preds, ids)``: the sources of the edges into ``y``
    are ``preds[start[y]:start[y + 1]]``, one entry per edge, as Python
    lists, and ``ids`` is the array of the same edges' flat indices
    ``x * U + u`` into the (state, input) tables.  ``edges`` optionally
    masks which (state, input) edges to keep.
    """
    states, inputs = successor.shape
    dst = successor.ravel()
    if edges is None:
        ids = np.arange(dst.size)
    else:
        ids = np.flatnonzero(edges)
        dst = dst[ids]
    start = np.zeros(states + 1, dtype=int)
    np.cumsum(np.bincount(dst, minlength=states), out=start[1:])
    ids = ids[np.argsort(dst, kind="stable")]
    return start.tolist(), (ids // inputs).tolist(), ids


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
    start, preds, _ = _predecessors(fsys.successor, free)
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
    start, preds, _ = _predecessors(fsys.successor)
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
    """Exact cheapest total costs with a greedy policy.

    ``values`` is infinite on states that cannot keep their total
    cost finite.  ``greedy[x]`` is the lowest input index minimizing
    stage cost plus successor value.  ``iterations`` counts the one
    Bellman sweep that confirmed the values.
    """

    values: np.ndarray
    greedy: np.ndarray
    cost: StageCost
    iterations: ClassVar[int] = 1

    def to_csv(self, fsys: FiniteSystem, fp) -> None:
        rows = zip(range(fsys.num_states), fsys.state_measure.tolist(), self.values.tolist(),
                   self.greedy.tolist())
        _write_csv(fp, [("state", "sigma", "value", "greedy"), *rows])


def _core_distances(fsys: FiniteSystem, table: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Shortest-path distance of every state to the core; infinite where none exists.

    Dijkstra's method over the reversed edges, relaxing ``x`` by
    ``table[x, u] + dist[y]`` for each edge ``x -> y``: the same float
    sum a Bellman sweep makes.  Costs are nonnegative and float addition
    is monotone, so each state settles once, at its smallest such sum
    over its edges, and the distances are a fixed point of the sweep.
    """
    start, preds, ids = _predecessors(fsys.successor)
    costs = table.ravel()[ids].tolist()
    dist = np.where(core, 0.0, np.inf).tolist()
    # all zeros in index order: already a heap
    heap = [(0.0, y) for y in np.flatnonzero(core).tolist()]
    while heap:
        d, y = heappop(heap)
        if d > dist[y]:
            continue
        for k in range(start[y], start[y + 1]):
            x, total = preds[k], costs[k] + d
            if total < dist[x]:
                dist[x] = total
                heappush(heap, (total, x))
    return np.array(dist)


def value_iterate(fsys: FiniteSystem, cost: StageCost) -> ValueTable:
    """Exact values and greedy inputs, confirmed by one Bellman sweep.

    The values are the shortest-path distances to the zero-cost core,
    infinite exactly on the states that cannot reach it.  One sweep of
    the full table takes each state's greedy input and checks that its
    minimum is the distance itself; a state it moves raises
    StagecraftError.  The name is that of the value iteration this
    replaced, kept because the benchmark's tracer resolves it by name.
    """
    table = _cost_table(fsys, cost)
    values = _core_distances(fsys, table, zero_cost_core(fsys, cost, table=table))
    q = table + values[fsys.successor]
    greedy = np.argmin(q, axis=1)
    swept = q[np.arange(fsys.num_states), greedy]
    moved = np.flatnonzero(swept != values)
    if moved.size:
        x = int(moved[0])
        raise StagecraftError(f"a Bellman sweep moves state {x} from {values[x]!r} to {swept[x]!r}")
    return ValueTable(values=values, greedy=greedy, cost=cost)


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
    """Package a value table as a total-cost certificate.

    The cost bound is a strictly increasing envelope over the
    per-measure-level maxima of ``margin * value``; states sharing a
    measure level share the larger value.  Requires finite values
    everywhere and zero values on zero-measure states, otherwise the
    envelope cannot both vanish at zero and dominate.
    """
    if not (np.isfinite(margin) and margin >= 1.0):
        raise ParameterError(f"margin must be finite and at least 1, got {margin!r}")
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
