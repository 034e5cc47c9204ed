"""Shared random generators, checks and reference loops for the test suite.

Trees are built valid by construction so structural rejection stays
rare; generation is seeded by the caller for reproducibility.
"""

from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np

from stagecraft import (
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    FiniteSystem,
    KInfFn,
    NonContractionError,
    ParameterError,
    SampledKL,
    SeparableKL,
    StagecraftError,
    combine,
    compose,
    identity,
    inverse_of,
    linear,
    pointwise_min,
    power,
    rollout,
    scale,
    stage_costs,
    strict_table,
    zero_cost_core,
)
from stagecraft.converse import DEFAULT_DEPTH, _bounds, _policy
from stagecraft.oracle import _cost_table
from stagecraft.synthesis import COUNT_SEARCH_CAP

LOG_GRID = np.logspace(-6.0, 6.0, 64)


class InvariantViolation(StagecraftError):
    """A function failed its class-membership self check."""


def selfcheck(fn, grid=None):
    """Check a function's declared class on a grid; raise on violation.

    A ``KInfFn`` must vanish at zero, strictly increase and pass an
    expanding growth target; a ``NonnegFn`` must be nonnegative.
    """
    grid = DEFAULT_R_GRID if grid is None else np.asarray(grid, dtype=float)
    if isinstance(fn, KInfFn):
        if abs(fn.eval(0.0)) > 1e-12:
            raise InvariantViolation("value at zero exceeds 1e-12")
        if np.any(np.diff(fn.eval(grid)) <= 0):
            raise InvariantViolation("not strictly increasing on the check grid")
        _assert_unbounded(fn, start=float(grid[-1]))
        return fn
    if np.any(fn.eval(grid) < 0):
        raise InvariantViolation("negative value on the check grid")
    return fn


def _assert_unbounded(f, start=1.0, factor=4.0, doublings=400):
    """Check that eval passes an expanding sequence of targets."""
    probe = max(1.0, start)
    target = factor * max(1.0, f.eval(probe))
    for _ in range(doublings):
        probe *= 2.0
        if f.eval(probe) >= target:
            return
    raise InvariantViolation("function failed to pass an expanding growth target")


def random_kinf(rng, depth=6, stretch=8.0):
    """Random strictly increasing unbounded function tree.

    Leaves are identity, power, linear, or a monotone table; interior
    nodes are scale, sum, product, min, compose, or inverse.  Inverse
    nodes only wrap structurally invertible subtrees so evaluation
    never nests numeric inversions.

    ``stretch`` budgets the effective power of r along any path
    (compose multiplies exponents, product adds them) so values on a
    wide log grid never overflow or underflow to zero, which would
    destroy inverse round trips for reasons floats alone explain.
    """

    def leaf(invertible, room):
        kind = rng.choice(4)
        if kind == 0:
            return identity()
        if kind == 1:
            return power(rng.uniform(0.4, max(0.4, min(3.0, room))))
        if kind == 2:
            return linear(rng.uniform(0.1, 10.0))
        if invertible:
            lo = max(0.5, 1.0 / max(room, 1.0))
            return power(rng.uniform(lo, max(lo, min(2.0, room))))
        xs = np.cumsum(rng.uniform(0.1, 2.0, size=5))
        ys = np.cumsum(rng.uniform(0.1, 2.0, size=5))
        return strict_table(xs, ys)

    def build(budget, invertible, room):
        if budget <= 1 or rng.uniform() < 0.3:
            return leaf(invertible, room)
        kind = rng.choice(5)
        if kind == 0:
            return scale(rng.uniform(0.2, 5.0), build(budget - 1, invertible, room))
        if kind == 1 and not invertible:
            mode = ("sum", "product", "min")[rng.choice(3)]
            child_room = room / 2.0 if mode == "product" else room
            return combine(
                build(budget - 1, False, child_room),
                build(budget - 1, False, child_room),
                mode,
            )
        if kind == 2:
            half = float(np.sqrt(room))
            return compose(
                build(budget - 1, invertible, half),
                build(budget - 1, invertible, half),
            )
        if kind == 3:
            return inverse_of(build(budget - 1, True, room))
        return leaf(invertible, room)

    fn = build(depth, False, stretch)
    assert isinstance(fn, KInfFn)
    return fn


def random_separable(rng, depth=3):
    return SeparableKL(
        outer=random_kinf(rng, depth),
        decay=float(rng.uniform(0.1, 0.9)),
        inner=random_kinf(rng, depth),
    )


def sample_kl(fn, r_grid, t_grid):
    """Tabulate a callable (r, t) -> value into a validated SampledKL."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    vals = np.array([[float(fn(r, t)) for t in t_grid] for r in r_grid])
    return SampledKL(r_grid=r_grid, t_grid=t_grid, values=vals)


def random_sampled(rng, r_points=24, t_points=24):
    """Tabulation of a random separable bound on small grids."""
    base = random_separable(rng, depth=2)
    r_grid = np.logspace(rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0), r_points)
    t_grid = np.arange(t_points, dtype=float)
    return sample_kl(base.eval, r_grid=r_grid, t_grid=t_grid), base


def _control_key(u):
    """A control's type and exact value: a float by its bits."""
    return (type(u), float(u).hex() if isinstance(u, float) else u)


def assert_prefix_closed(policy, x, counts):
    """``policy.controls(x, n)`` is the first ``n`` of ``controls(x, m)``,
    control by control and bit for bit, for every ``n`` in ``counts`` up to
    the largest count ``m``."""
    longest = [_control_key(u) for u in policy.controls(x, max(counts))]
    for n in counts:
        assert [_control_key(u) for u in policy.controls(x, n)] == longest[:n]


def discretize_loop(step, state_points, input_points):
    """Successor table of ``discretize_scalar`` by one ``step(x, u)`` call per
    grid pair and a search per target, snapping ties up and clamping at the ends."""
    xs = np.asarray(state_points, dtype=float)
    succ = np.empty((xs.size, len(input_points)), dtype=int)
    for i, x in enumerate(xs):
        for j, u in enumerate(np.asarray(input_points, dtype=float)):
            target = float(step(x, u))
            k = int(np.searchsorted(xs, target))
            if k <= 0:
                succ[i, j] = 0
            elif k >= xs.size:
                succ[i, j] = xs.size - 1
            else:
                succ[i, j] = k if xs[k] - target <= target - xs[k - 1] else k - 1
    return succ


def total_cost(cost, traj):
    """Sum of the stage costs along a rollout."""
    return float(np.sum(stage_costs(cost, traj)))


def sampled_eval_loop(beta, r, t):
    """``SampledKL.eval`` as a loop over distinct times: one full column per
    time, interpolated in r by ``np.interp`` and continued above the grid."""
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    rg, tg, v = beta.r_grid, beta.t_grid, beta.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(v[:, -2] > 0, v[:, -1] / v[:, -2], 0.0)
    ratio = min(max(float(ratio.max()), 0.0), 1.0 - 1e-12)
    out = np.empty(t.shape)
    for time in np.unique(t).tolist():
        if time <= tg[-1]:
            j = np.searchsorted(tg, time)
            if tg[j] == time:
                col = v[:, j]
            else:
                w = (time - tg[j - 1]) / (tg[j] - tg[j - 1])
                col = (1.0 - w) * v[:, j - 1] + w * v[:, j]
        else:
            col = v[:, -1] * ratio ** (time - tg[-1])
        xs, ys = rg, col
        if xs[0] > 0.0:
            xs, ys = np.concatenate(([0.0], xs)), np.concatenate(([0.0], ys))
        at = t == time
        q = r[at]
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out[at] = np.where(q > xs[-1], ys[-1] + slope * (q - xs[-1]), np.interp(q, xs, ys))
    return float(out) if out.ndim == 0 else out


def excursion_count_loop(beta, radius, r, cap=COUNT_SEARCH_CAP):
    """Smallest n with beta(r, n) < radius: doubling to the first power of
    two below the radius, then bisection, one float ``eval`` per step."""
    if beta.eval(r, 0.0) < radius:
        return 0
    hi = 1
    while beta.eval(r, float(hi)) >= radius:
        hi *= 2
        if hi > cap:
            raise NonContractionError(
                f"decay bound never drops below {radius:g} at r={r:g} within {cap} steps"
            )
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beta.eval(r, float(mid)) < radius:
            hi = mid
        else:
            lo = mid
    return hi


def stitched_policy(ucc, sys, depth=DEFAULT_DEPTH, eps_tilde_factor=0.5):
    """The converse's stitched policy of ``ucc`` on ``sys``, built without an assembled bound."""
    return _policy(ucc, _bounds(ucc, eps_tilde_factor), eps_tilde_factor, sys, depth, {})


def kl_grid_violations(beta, r_grid=None, t_grid=None):
    """Grid report of shape violations; empty means the bound looks valid.

    ``beta.eval`` must broadcast: the whole grid is one call.
    """
    r_grid = DEFAULT_R_GRID if r_grid is None else np.asarray(r_grid, dtype=float)
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    vals = beta.eval(r_grid[:, None], t_grid[None, :])
    bad = []
    if np.any(np.diff(vals, axis=0) <= 0):
        bad.append("not strictly increasing in r")
    rows = vals[r_grid > 0]
    if np.any(np.diff(rows, axis=1) >= 0):
        bad.append("not strictly decreasing in t for r > 0")
    tail = rows[:, -1]
    head = rows[:, 0]
    if np.any(tail >= head):
        bad.append("no decay over the horizon")
    return bad


def brute_force_values(fsys, cost, depth=8):
    """Cheapest cost over all input sequences of the given depth.

    Sequences must end inside the zero-cost core so the remaining
    infinite tail is free; all others count as infinite.  Exponential
    in ``depth``, an independent check on tiny systems only.
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


def random_finite_system(rng):
    """A finite system of 4-39 states measured by their index, with 2-3 inputs.

    Input 0 rests: it holds the state and has measure zero.  Input 1
    steps toward state 0, to a random state of smaller index (state 0
    holds).  A third input, if any, jumps to a random state.  The
    positive input measures are drawn from [0.5, 2).
    """
    states, inputs = int(rng.integers(4, 40)), int(rng.integers(2, 4))
    index = np.arange(states)
    toward = [0] + [int(rng.integers(0, x)) for x in range(1, states)]
    jumps = [rng.integers(0, states, size=states) for _ in range(inputs - 2)]
    return FiniteSystem(
        successor=np.stack([index, toward, *jumps], axis=1),
        state_measure=index.astype(float),
        input_measure=np.concatenate(([0.0], rng.uniform(0.5, 2.0, size=inputs - 1))),
    )


@dataclass(frozen=True)
class TransientPartition:
    """Index split of one rollout at the transient radius."""

    transient: Tuple[int, ...]
    settled: Tuple[int, ...]
    transient_cost: float
    settled_cost: float


def transient_partition(spec, cert, sys, x, horizon):
    """Split one certified rollout's cross costs at the transient radius."""
    if spec.transient is None:
        raise ParameterError("partitioning needs an InteractionSpec with transient data")
    traj = rollout(sys, x, cert.policy.controls(x, horizon))
    radius = spec.transient.radius
    hot, cold = [], []
    hot_cost = cold_cost = 0.0
    for n, (sig, rho) in enumerate(zip(traj.sigma[:-1].tolist(), traj.rho.tolist())):
        cost = float(spec.cross(sig, rho))
        if sig >= radius:
            hot.append(n)
            hot_cost += cost
        else:
            cold.append(n)
            cold_cost += cost
    return TransientPartition(
        transient=tuple(hot),
        settled=tuple(cold),
        transient_cost=hot_cost,
        settled_cost=cold_cost,
    )
