"""Shared random generators for the test suite.

Trees are built valid by construction so structural rejection stays
rare; generation is seeded by the caller for reproducibility.
"""

import numpy as np

from stagecraft import (
    KInfFn,
    SampledKL,
    SeparableKL,
    combine,
    compose,
    identity,
    inverse_of,
    linear,
    pointwise_min,
    power,
    scale,
    strict_table,
)

LOG_GRID = np.logspace(-6.0, 6.0, 64)


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
