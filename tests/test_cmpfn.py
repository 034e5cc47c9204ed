import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagecraft import (
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    DecompositionError,
    DomainError,
    InversionError,
    KInfFn,
    KLValidityError,
    MonotoneInputError,
    NonnegFn,
    ParameterError,
    SampledKL,
    SeparableKL,
    combine,
    compose,
    const_fn,
    fn_from_json,
    identity,
    inverse_of,
    kl_decompose,
    kl_from_json,
    linear,
    pointwise_min,
    power,
    scale,
    scale_kl,
    strict_table,
    table_fn,
)
from stagecraft.cli import _json_text
from stagecraft.cmpfn import _NODES, Scale, Sum, Table, _max_per_x, _pl_knots
from support import (
    LOG_GRID,
    kl_grid_violations,
    random_kinf,
    random_sampled,
    random_separable,
    sample_kl,
    sampled_eval_loop,
    selfcheck,
)


class TestBasicEval:
    def test_identity(self):
        assert identity().eval(3.5) == 3.5

    def test_power(self):
        assert power(2.0).eval(3.0) == 9.0

    def test_linear(self):
        assert linear(2.5).eval(2.0) == 5.0

    def test_scale(self):
        assert scale(3.0, power(2.0)).eval(2.0) == 12.0

    def test_compose_order(self):
        # f(g(r)) with f = 2r and g = r^2
        assert compose(linear(2.0), power(2.0)).eval(3.0) == 18.0

    def test_array_eval_shapes(self):
        f = power(2.0)
        out = f.eval(np.array([1.0, 2.0, 3.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [1.0, 4.0, 9.0])

    def test_scalar_eval_returns_float(self):
        assert isinstance(power(2.0).eval(2), float)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            identity().eval(-1.0)

    def test_nan_input_rejected(self):
        with pytest.raises(DomainError):
            identity().eval(float("nan"))

    def test_default_grids(self):
        np.testing.assert_allclose(DEFAULT_R_GRID, np.logspace(-4, 4, 64))
        np.testing.assert_allclose(DEFAULT_T_GRID, np.arange(65))


class TestInversion:
    def test_structural_closed_form(self):
        f = compose(linear(2.0), power(2.0))
        assert f.invert(18.0) == pytest.approx(3.0, rel=1e-12)

    def test_numeric_bisection(self):
        f = combine(power(2.0), identity(), "sum")
        assert f.invert(6.0) == pytest.approx(2.0, rel=1e-9)

    def test_invert_zero_is_exact(self):
        f = combine(power(2.0), identity(), "sum")
        assert f.invert(0.0) == 0.0

    def test_inverse_object_matches_invert(self):
        f = combine(power(3.0), linear(0.5), "sum")
        g = inverse_of(f)
        for y in (0.25, 1.0, 19.0):
            assert g.eval(y) == pytest.approx(f.invert(y), rel=1e-10)

    def test_bracket_doubling_is_capped(self):
        # each term is y ** (1/1000): 2 ** 200 still sums to about 2.3, below the target 10
        f = combine(inverse_of(power(1000)), inverse_of(power(1000)), "sum")
        with pytest.raises(InversionError, match="doubling cap"):
            f.invert(10.0)

    def test_inverse_of_rejects_plain_nonneg(self):
        with pytest.raises(ParameterError):
            inverse_of(const_fn(1.0))

    def test_invert_vectorised(self):
        f = combine(power(2.0), identity(), "min")
        y = f.eval(LOG_GRID)
        back = f.invert(y)
        np.testing.assert_allclose(back, LOG_GRID, rtol=1e-9)


def random_pl_sum(rng):
    """A sum of two to four random monotone tables, each maybe composed with
    another table, inverted or scaled: a piecewise-linear tree whose root
    inverts numerically."""

    def table():
        return strict_table(np.cumsum(rng.uniform(0.05, 2.0, 6)), np.cumsum(rng.uniform(0.05, 2.0, 6)))

    wraps = (lambda g: g, lambda g: compose(table(), g), inverse_of, lambda g: scale(3.0, g))
    terms = [wraps[rng.choice(4)](table()) for _ in range(rng.integers(2, 5))]
    f = terms[0]
    for term in terms[1:]:
        f = combine(f, term, "sum")
    return f


def knot_queries(f, rng):
    """y at the tree's knots, between them and past the last, plus random y."""
    at = f.eval(np.unique(_pl_knots(f.expr)))
    between = 0.5 * (at[:-1] + at[1:])
    past = at[-1] * np.array([1.0 + 1e-9, 1.5, 10.0, 1e6])
    return np.concatenate((at, between, past, np.exp(rng.uniform(-9.0, 9.0, 32))))


class TestUpperInverse:
    """A numeric inversion is an upper inverse: f(f^-1(y)) >= y, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sum", "product", "min"]))
    def test_random_trees_with_a_numeric_root(self, seed, mode):
        rng = np.random.default_rng(seed)
        # stretch 4 per factor keeps a product's values inside the doubles on the grid
        f = combine(random_kinf(rng, 4, stretch=4.0), random_kinf(rng, 4, stretch=4.0), mode)
        ys = np.concatenate((f.eval(LOG_GRID), np.exp(rng.uniform(-9.0, 9.0, 64))))
        assert np.all(f.eval(f.invert(ys)) >= ys)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_piecewise_linear_sums(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pl_sum(rng)
        ys = knot_queries(f, rng)
        xs = f.invert(ys)
        assert np.all(f.eval(xs) >= ys)
        np.testing.assert_allclose(f.eval(xs), ys, rtol=1e-12)

    def test_a_piecewise_linear_tree_is_solved_on_its_knots(self, monkeypatch):
        rng = np.random.default_rng(3)
        counts = []
        for f in (random_pl_sum(rng), combine(random_pl_sum(rng), power(1.5), "sum")):
            ys = f.eval(LOG_GRID)
            root, sum_eval, calls = f.expr, Sum.eval, []
            monkeypatch.setattr(Sum, "eval", lambda self, r: calls.append(self is root) or sum_eval(self, r))
            f.invert(ys)
            monkeypatch.undo()
            counts.append(sum(calls))
        # the knot table, the check of the solve and at most two ulp steps,
        # against a bracket and a bisection of some 45 evaluations
        assert counts[0] <= 4 < 30 < counts[1]


class TestCombinators:
    def test_sum_with_weights(self):
        f = combine(scale(2.0, identity()), scale(3.0, power(2.0)), "sum")
        assert f.eval(2.0) == pytest.approx(2.0 * 2.0 + 3.0 * 4.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ParameterError):
            combine(scale(0.0, identity()), identity(), "sum")

    def test_min_keeps_kinf(self):
        f = pointwise_min(linear(2.0), power(2.0))
        assert isinstance(f, KInfFn)
        assert f.eval(0.5) == pytest.approx(0.25)
        assert f.eval(4.0) == pytest.approx(8.0)

    def test_product(self):
        f = combine(linear(3.0), identity(), "product")
        assert f.eval(2.0) == pytest.approx(12.0)

    def test_sum_with_constant_is_not_kinf(self):
        f = combine(identity(), const_fn(1.0), "sum")
        assert isinstance(f, NonnegFn)
        assert not isinstance(f, KInfFn)
        assert f.eval(0.0) == pytest.approx(1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            combine(identity(), identity(), "quotient")


class TestTables:
    def test_table_interpolation(self):
        f = table_fn([1.0, 2.0], [1.0, 3.0])
        assert f.eval(1.5) == pytest.approx(2.0)
        assert f.eval(0.5) == pytest.approx(0.5)

    def test_table_extrapolates_last_slope(self):
        f = table_fn([1.0, 2.0], [1.0, 3.0])
        assert f.eval(4.0) == pytest.approx(7.0)

    def test_table_invert(self):
        f = table_fn([1.0, 2.0], [1.0, 3.0])
        assert f.invert(3.0) == pytest.approx(2.0)
        assert f.invert(7.0) == pytest.approx(4.0)

    def test_strict_table_repairs_duplicates_and_order(self):
        f = strict_table([2.0, 1.0, 1.0], [5.0, 7.0, 3.0])
        assert f.eval(1.0) == pytest.approx(7.0)
        # repaired value may exceed the raw data but never drops below it,
        # and the knots stay strictly ordered even when the repair is one ulp
        assert f.eval(2.0) > f.eval(1.0) >= 7.0
        assert f.eval(0.0) == 0.0

    def test_strict_table_never_below_inputs(self):
        xs = [0.5, 1.0, 1.5, 2.0]
        ys = [2.0, 1.0, 4.0, 3.5]
        f = strict_table(xs, ys)
        for x, y in zip(xs, ys):
            assert f.eval(x) >= y

    def test_nonmonotone_table_fn_rejected(self):
        with pytest.raises(ParameterError):
            table_fn([1.0, 2.0], [3.0, 1.0])

    def test_knots_are_one_read_only_copy(self):
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0])
        table = Table(xs, ys)
        assert table.x.dtype == table.y.dtype == float
        assert not (table.x.flags.writeable or table.y.flags.writeable)
        assert xs.flags.writeable and table.x is not xs
        with pytest.raises(ValueError):
            table.x[1] = 5.0
        obj = table.to_obj()
        assert obj == {"op": "table", "x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 3.0]}
        assert all(type(v) is float for v in obj["x"] + obj["y"])


class TestSerialization:
    def test_fn_round_trip_values(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            f = random_kinf(rng, 4)
            g = fn_from_json(f.to_json())
            ref = f.eval(LOG_GRID)
            np.testing.assert_allclose(g.eval(LOG_GRID), ref, rtol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            fn_from_json({"kind": "mystery"})

    def test_separable_round_trip(self):
        beta = SeparableKL(outer=power(2.0), decay=0.25, inner=linear(3.0))
        back = kl_from_json(beta.to_json())
        assert back.decay == 0.25
        assert back.eval(2.0, 1.0) == pytest.approx(beta.eval(2.0, 1.0), rel=1e-12)
        # a numpy float is a number; the writer passes it through, and it reads again
        beta = SeparableKL(outer=identity(), decay=np.float64(0.5), inner=identity())
        assert kl_from_json(beta.to_json()).decay == 0.5

    def test_sampled_round_trip(self):
        beta, _ = random_sampled(np.random.default_rng(3))
        back = kl_from_json(beta.to_json())
        np.testing.assert_array_equal(back.values, beta.values)
        np.testing.assert_array_equal(back.r_grid, beta.r_grid)

    SEPARABLE = {"kind": "kl.separable", "outer": {"kind": "kinf", "expr": {"op": "identity"}},
                 "inner": {"kind": "kinf", "expr": {"op": "identity"}}}
    SAMPLED = {"kind": "kl.sampled", "r_grid": [0.0, 1.0], "t_grid": [0.0, 1.0]}

    @pytest.mark.parametrize(
        "obj, needle",
        [
            ({"kind": "kl.separable"}, "missing field 'outer'"),
            ({**SEPARABLE, "decay": "x"}, "malformed field"),
            ({**SEPARABLE, "decay": None}, "malformed field"),
            ({**SAMPLED, "values": [[0.0, 0.0], [1.0]]}, "malformed field"),
            ({k: v for k, v in SAMPLED.items() if k != "t_grid"}, "missing field 't_grid'"),
            # a wrapper that is not an object is named in the message
            ({**SEPARABLE, "decay": 0.5, "outer": "identity"}, "unknown function kind None in 'identity'"),
            ({**SEPARABLE, "decay": 0.5, "outer": {"kind": "kinf", "expr": "linear"}},
             "unknown expression op None in 'linear'"),
        ],
        ids=["no_outer", "decay_string", "decay_null", "ragged_values", "no_t_grid",
             "outer_not_object", "expr_not_object"],
    )
    def test_malformed_bound_raises_parameter_error(self, obj, needle):
        with pytest.raises(ParameterError, match=needle):
            kl_from_json(obj)

    # for each numeric field of the format, a record holding ``v`` there, and a ``v`` that reads
    NUMERIC_FIELDS = {
        "power.p": (lambda v: {"op": "power", "p": v}, 1),
        "linear.c": (lambda v: {"op": "linear", "c": v}, 1),
        "const.c": (lambda v: {"op": "const", "c": v}, 1),
        "scale.c": (lambda v: {"op": "scale", "c": v, "inner": {"op": "identity"}}, 1),
        "table.x": (lambda v: {"op": "table", "x": [0.0, v, 2.0], "y": [0.0, 0.5, 3.0]}, 1),
        "table.y": (lambda v: {"op": "table", "x": [0.0, 0.5, 2.0], "y": [0.0, v, 3.0]}, 1),
        "kl.separable.decay": (lambda v, kl=SEPARABLE: {**kl, "decay": v}, 0.5),
        "kl.sampled.r_grid": (lambda v, kl=SAMPLED: {**kl, "r_grid": [0, v], "values": [[0, 0], [2, 1]]}, 1),
        "kl.sampled.t_grid": (lambda v, kl=SAMPLED: {**kl, "t_grid": [0, v], "values": [[0, 0], [2, 1]]}, 1),
        "kl.sampled.values": (lambda v, kl=SAMPLED: {**kl, "values": [[0, 0], [2, v]]}, 1),
    }

    @pytest.mark.parametrize("bad", [True, "1"], ids=["true", "string"])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_booleans_and_strings_are_not_json_numbers(self, field, bad):
        record, good = self.NUMERIC_FIELDS[field]

        def read(v):
            obj = record(v)
            return kl_from_json(obj) if "kind" in obj else fn_from_json({"kind": "nonneg", "expr": obj})

        read(good)
        with pytest.raises(ParameterError, match="malformed field"):
            read(bad)


class TestInvariantChecks:
    def test_selfcheck_passes_for_valid_tree(self):
        selfcheck(combine(power(2.0), linear(0.5), "sum"))

    def test_kinf_rejects_constant_node(self):
        with pytest.raises(ParameterError):
            KInfFn(const_fn(1.0).expr)

    def test_scaling_a_plain_nonneg_stays_nonneg(self):
        f = scale(2.0, const_fn(1.0))
        assert isinstance(f, NonnegFn) and not isinstance(f, KInfFn)
        assert f.eval(5.0) == pytest.approx(2.0)

    def test_shifted_table_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            table_fn([0.0, 1.0], [0.5, 1.5])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_trees_satisfy_kinf_contract(self, seed):
        rng = np.random.default_rng(seed)
        f = random_kinf(rng, 5)
        selfcheck(f)
        assert f.eval(0.0) <= 1e-12
        y = f.eval(LOG_GRID)
        assert np.all(np.diff(y) > 0)
        np.testing.assert_allclose(f.invert(y), LOG_GRID, rtol=1e-8)


class TestSeparableKL:
    def test_eval_formula(self):
        beta = SeparableKL(outer=identity(), decay=0.5, inner=identity())
        assert beta.eval(4.0, 2.0) == pytest.approx(1.0)

    def test_decay_bounds_checked(self):
        with pytest.raises(ParameterError):
            SeparableKL(outer=identity(), decay=1.0, inner=identity())
        with pytest.raises(ParameterError):
            SeparableKL(outer=identity(), decay=0.0, inner=identity())

    def test_scale_kl(self):
        beta = SeparableKL(outer=identity(), decay=0.5, inner=identity())
        doubled = scale_kl(beta, 2.0)
        assert doubled.eval(4.0, 2.0) == pytest.approx(2.0)


class TestSampledKL:
    def _hyperbolic(self):
        r = np.arange(10, dtype=float)
        t = np.arange(16, dtype=float)
        values = np.outer(r, 9.0 / (9.0 + t))
        return SampledKL(r_grid=r, t_grid=t, values=values)

    def test_grid_nodes_exact(self):
        beta = self._hyperbolic()
        assert beta.eval(4.0, 3.0) == pytest.approx(4.0 * 9.0 / 12.0)

    def test_origin_anchor(self):
        beta = self._hyperbolic()
        assert beta.eval(0.0, 5.0) == 0.0

    def test_interpolates_between_rows(self):
        beta = self._hyperbolic()
        lo, hi = beta.eval(3.0, 2.0), beta.eval(4.0, 2.0)
        mid = beta.eval(3.5, 2.0)
        assert lo < mid < hi

    def test_extends_beyond_largest_radius(self):
        beta = self._hyperbolic()
        assert beta.eval(20.0, 0.0) > beta.eval(9.0, 0.0)

    def test_geometric_tail_beyond_time_grid(self):
        r = np.arange(4, dtype=float)
        t = np.arange(5, dtype=float)
        beta = SampledKL(r_grid=r, t_grid=t, values=np.outer(r, 0.5**t))
        # last two columns have ratio 0.5, so the tail keeps halving
        assert beta.eval(2.0, 6.0) == pytest.approx(2.0 * 0.5**6, rel=1e-12)

    def test_tail_still_decreases_for_flat_columns(self):
        r = np.arange(4, dtype=float)
        t = np.arange(3, dtype=float)
        values = np.outer(r, [3.0, 2.0, 1.999999])
        beta = SampledKL(r_grid=r, t_grid=t, values=values)
        assert beta.eval(2.0, 10.0) < beta.eval(2.0, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tail_keeps_rows_ordered_and_covers_each_rows_own_tail(self, seed):
        beta, _ = random_sampled(np.random.default_rng(seed), r_points=12, t_points=10)
        tg, v = beta.t_grid, beta.values
        ts = tg[-1] + np.linspace(0.5, 2.0 * tg[-1], 12)
        tail = beta.eval(beta.r_grid[:, None], ts[None, :])
        assert np.all(np.diff(tail, axis=0) > 0)
        assert np.all(np.diff(tail, axis=1) < 0)
        # each row continued with the ratio of its own final two columns;
        # the common ratio's power is one float, the per-row powers an
        # array, and numpy may round the two through different kernels
        ratio = np.clip(v[:, -1] / v[:, -2], 0.0, 1.0 - 1e-12)
        own = v[:, -1:] * ratio[:, None] ** (ts - tg[-1])
        assert np.all(tail >= own * (1.0 - 4.0 * np.finfo(float).eps))

    def test_rejects_nonincreasing_radius(self):
        r = np.arange(3, dtype=float)
        t = np.arange(3, dtype=float)
        values = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5], [2.0, 1.0, 0.5]])
        with pytest.raises(KLValidityError):
            SampledKL(r_grid=r, t_grid=t, values=values)

    def test_rejects_nondecreasing_time(self):
        r = np.arange(3, dtype=float)
        t = np.arange(3, dtype=float)
        values = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.5], [2.0, 2.0, 1.0]])
        with pytest.raises(KLValidityError):
            SampledKL(r_grid=r, t_grid=t, values=values)

    def test_time_grid_must_start_at_zero(self):
        # a query below the first column would interpolate against the last one
        r = np.arange(3, dtype=float)
        t = np.array([1.0, 2.0, 3.0])
        values = np.outer(r, 1.0 / t)
        with pytest.raises(KLValidityError, match="start at 0"):
            SampledKL(r_grid=r, t_grid=t, values=values)
        obj = {"kind": "kl.sampled", "r_grid": r.tolist(), "t_grid": t.tolist(),
               "values": values.tolist()}
        with pytest.raises(KLValidityError, match="start at 0"):
            kl_from_json(obj)

    @pytest.mark.parametrize(
        "r, t",
        [
            ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),  # eval(1.0, 0.0) was NaN
            ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
            ([0.0, 1.0, 2.0], [0.0, 1.0, math.inf]),  # eval(2.0, t) never decayed
            ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0]),
        ],
    )
    def test_grid_nodes_must_be_finite(self, r, t):
        values = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5], [4.0, 2.0, 1.0]])
        with pytest.raises(KLValidityError, match="finite"):
            SampledKL(r_grid=np.array(r), t_grid=np.array(t), values=values)
        obj = {"kind": "kl.sampled", "r_grid": r, "t_grid": t, "values": values.tolist()}
        with pytest.raises(KLValidityError, match="finite"):
            kl_from_json(obj)

    def test_sample_kl_matches_base_on_nodes(self):
        base = SeparableKL(outer=power(2.0), decay=0.5, inner=identity())
        grid_r = np.array([0.5, 1.0, 2.0])
        grid_t = np.arange(4, dtype=float)
        samp = sample_kl(base.eval, r_grid=grid_r, t_grid=grid_t)
        for r in grid_r:
            for t in grid_t:
                assert samp.eval(float(r), float(t)) == pytest.approx(
                    base.eval(float(r), float(t)), rel=1e-12
                )

    def test_scale_kl_scales_values(self):
        beta = self._hyperbolic()
        tripled = scale_kl(beta, 3.0)
        np.testing.assert_allclose(tripled.values, 3.0 * beta.values)


class TestGridViolations:
    def test_valid_bound_reports_clean(self):
        beta = SeparableKL(outer=identity(), decay=0.5, inner=identity())
        assert kl_grid_violations(beta) == []

    def test_increasing_in_time_is_flagged(self):
        class Bogus:
            def eval(self, r, t):
                return r * (1.0 + t)

        report = kl_grid_violations(Bogus(), r_grid=np.array([1.0, 2.0]), t_grid=np.arange(4))
        assert report


class TestDecomposition:
    def test_matching_decay_returns_input(self):
        beta = SeparableKL(outer=power(2.0), decay=0.5, inner=identity())
        assert kl_decompose(beta, decay=0.5) is beta

    def test_separable_with_other_decay_dominates(self):
        beta = SeparableKL(outer=identity(), decay=0.8, inner=identity())
        dec = kl_decompose(beta, decay=0.5)
        assert dec.decay == 0.5
        for r in DEFAULT_R_GRID[::9]:
            for t in DEFAULT_T_GRID[::9]:
                lhs = beta.eval(float(r), float(t))
                rhs = dec.outer.eval(0.5**t * dec.inner.eval(float(r)))
                assert lhs <= rhs + 1e-9

    def test_sampled_hyperbolic_dominates(self):
        r = np.arange(10, dtype=float)
        t = np.arange(16, dtype=float)
        beta = SampledKL(r_grid=r, t_grid=t, values=np.outer(r, 9.0 / (9.0 + t)))
        dec = kl_decompose(beta, decay=0.5)
        for rr in r:
            for tt in t:
                lhs = beta.eval(float(rr), float(tt))
                rhs = dec.outer.eval(0.5**tt * dec.inner.eval(float(rr)))
                assert lhs <= rhs + 1e-9

    def test_rejects_silly_decay(self):
        beta = SeparableKL(outer=identity(), decay=0.5, inner=identity())
        with pytest.raises(ParameterError):
            kl_decompose(beta, decay=1.5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_separable_decomposition_dominates(self, seed):
        rng = np.random.default_rng(seed)
        beta = random_separable(rng, depth=2)
        dec = kl_decompose(beta, decay=0.5)
        for r in DEFAULT_R_GRID[::13]:
            for t in DEFAULT_T_GRID[::13]:
                lhs = beta.eval(float(r), float(t))
                rhs = dec.outer.eval(0.5**t * dec.inner.eval(float(r)))
                assert lhs <= rhs + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.3, 0.5, 0.8]))
    def test_outer_is_the_full_envelope_from_plateau_ends(self, seed, sampled, decay):
        rng = np.random.default_rng(seed)
        if sampled:
            beta = random_sampled(rng)[0]
            r_grid, t_grid = beta.r_grid, beta.t_grid
        else:
            beta = random_separable(rng, depth=2)
            r_grid, t_grid = DEFAULT_R_GRID, DEFAULT_T_GRID
        dec = kl_decompose(beta, decay)
        cloud_s = dec.inner.eval(r_grid)[:, None] * decay ** t_grid[None, :]
        xs, vs = _max_per_x(cloud_s.ravel(), beta.eval(r_grid[:, None], t_grid[None, :]).ravel())
        top = np.maximum.accumulate(vs)
        assert np.all(dec.outer.eval(xs) >= top)

        full = strict_table(xs, top + 1e-9 * xs)
        past = full.expr.x[-1] * np.array([1.001, 1.5, 10.0])
        for q in (xs, 0.5 * (xs[1:] + xs[:-1]), past):
            np.testing.assert_allclose(dec.outer.eval(q), full.eval(q), rtol=1e-13, atol=0.0)

        knots = np.asarray(dec.outer.expr.x)
        knots = knots[knots >= xs[0]]  # without an origin strict_table put in front
        assert np.all(np.isin(knots, plateau_ends_loop(xs, vs)[0]))
        assert knots.size <= 2 * np.count_nonzero(np.diff(top) > 0) + 2


# ---------------------------------------------------------------------------
# broadcast evaluation of decay bounds against per-point reference loops
# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def point_value(beta, r, t):
    """beta at one point, the way a per-point loop evaluates it."""
    return beta.eval(float(r), float(t))


def scalar_grid(beta, rs, ts):
    return np.array([[point_value(beta, r, t) for t in ts] for r in rs])


def max_per_x_loop(xs, ys):
    """Sort-and-dedupe reference: each distinct x keeps its largest y."""
    order = np.argsort(xs, kind="stable")
    keep_x, keep_y = [], []
    for x, y in zip(xs[order], ys[order]):
        if keep_x and x == keep_x[-1]:
            keep_y[-1] = max(keep_y[-1], y)
        else:
            keep_x.append(x)
            keep_y.append(y)
    return np.asarray(keep_x), np.asarray(keep_y)


def strict_table_loop(xs, ys):
    """Per-knot tie repair: each ordinate at least one ulp above the one before."""
    keep_x, keep_y = _max_per_x(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    if keep_x.size == 0 or keep_x[0] > 0.0:
        keep_x = np.concatenate(([0.0], keep_x))
        keep_y = np.concatenate(([0.0], keep_y))
    ys_out = np.maximum.accumulate(keep_y)
    for i in range(1, ys_out.size):
        if ys_out[i] <= ys_out[i - 1]:
            ys_out[i] = np.nextafter(ys_out[i - 1], np.inf)
    return Table(tuple(keep_x), tuple(float(v) for v in ys_out))


def plateau_ends_loop(xs, vs):
    """Running maximum of vs, kept at the first and last x of each of its plateaus."""
    tops, top = [], -np.inf
    for v in vs:
        top = max(top, v)
        tops.append(top)
    last = len(tops) - 1
    keep = [i for i in range(len(tops))
            if i in (0, last) or tops[i - 1] != tops[i] or tops[i + 1] != tops[i]]
    return np.asarray(xs)[keep], np.asarray(tops)[keep]


def query_points(rng, r_grid, t_grid):
    """Grid nodes, off-node points, r = 0, r above the grid, t past the last column."""
    r_mid = np.sqrt(r_grid[1:] * r_grid[:-1])[rng.choice(r_grid.size - 1, 4)]
    rs = np.concatenate(([0.0], r_grid[rng.choice(r_grid.size, 4)], r_mid, [3.0 * r_grid[-1]]))
    t_mid = rng.uniform(t_grid[0], t_grid[-1], 3)
    t_past = t_grid[-1] + np.array([0.5, 7.0])
    ts = np.concatenate(([0.0], t_grid[rng.choice(t_grid.size, 3)], t_mid, t_past))
    return rs, ts


def sampled_queries(rng, beta):
    """r below, on, between and above the nodes; t on the nodes, between
    them, just and far past the grid, and at +inf."""
    rg, tg = beta.r_grid, beta.t_grid
    below = [0.0] if rg[0] == 0.0 else [0.0, rg[0] * rng.uniform(0.01, 0.99)]
    between = rg[:-1] + np.diff(rg) * rng.uniform(0.01, 0.99, rg.size - 1)
    above = rg[-1] * np.array([1.0 + 1e-12, rng.uniform(1.0, 3.0), 1e3])
    rs = np.concatenate((below, rg, between, above))
    t_between = tg[:-1] + np.diff(tg) * rng.uniform(0.01, 0.99, tg.size - 1)
    past = tg[-1] + np.array([1e-9, rng.uniform(0.0, 5.0), 0.5, 40.0, 1e4])
    ts = np.concatenate((tg, t_between, past, [np.inf]))
    return rs, ts


def sampled_from_zero(rng):
    """A tabulated bound whose r grid starts at the origin."""
    beta, base = random_sampled(rng, r_points=12, t_points=10)
    r_grid = np.concatenate(([0.0], beta.r_grid))
    return sample_kl(base.eval, r_grid=r_grid, t_grid=beta.t_grid)


class TestBroadcastEval:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.sampled_from(["separable", "sampled", "sampled_from_zero"])
    )
    def test_grid_call_is_bitwise_the_scalar_loop(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "separable":
            beta = random_separable(rng, depth=3)
            r_grid, t_grid = np.logspace(-3.0, 3.0, 12), np.arange(10, dtype=float)
        elif kind == "sampled":
            beta, _ = random_sampled(rng, r_points=12, t_points=10)
            r_grid, t_grid = beta.r_grid, beta.t_grid
        else:
            beta = sampled_from_zero(rng)
            r_grid, t_grid = beta.r_grid[1:], beta.t_grid
        rs, ts = query_points(rng, r_grid, t_grid)
        expected = scalar_grid(beta, rs, ts)
        np.testing.assert_array_equal(bits(beta.eval(rs[:, None], ts[None, :])), bits(expected))
        np.testing.assert_array_equal(bits(beta.eval(rs, ts[3:4])), bits(expected[:, 3]))
        np.testing.assert_array_equal(bits(beta.eval(rs[2:3], ts)), bits(expected[2]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        beta = random_separable(rng, depth=3)
        rs, ts = query_points(rng, np.logspace(-3.0, 3.0, 12), np.arange(10, dtype=float))
        floats = np.array([[beta.eval(float(r), float(t)) for t in ts] for r in rs])
        grid = beta.eval(rs[:, None], ts[None, :])
        np.testing.assert_array_equal(bits(grid), bits(floats))

    @pytest.mark.parametrize("kind", ["separable", "sampled"])
    def test_scalars_give_a_float_and_arrays_keep_their_shape(self, kind):
        rng = np.random.default_rng(5)
        beta = random_separable(rng) if kind == "separable" else random_sampled(rng)[0]
        assert type(beta.eval(1.0, 2.0)) is float
        assert type(beta.eval(np.float64(1.0), 2)) is float
        assert beta.eval(np.ones((2, 1)), np.arange(3.0)).shape == (2, 3)
        assert beta.eval(np.array([1.0]), 0.0).shape == (1,)


class TestFloatCallsAreArrayEntries:
    """A float call is its point inside a larger array, to the last bit.

    numpy rounds ``**`` on numpy scalars through the C library and on
    arrays through its own SIMD kernel where the CPU has one; trees only
    ever see arrays, so both kinds of call take the same kernel.
    """

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_eval_and_invert(self, seed):
        rng = np.random.default_rng(seed)
        f = random_kinf(rng, 5)
        rs = np.concatenate(([0.0], np.exp(rng.uniform(-7.0, 7.0, 23))))
        ys = np.concatenate(([0.0], f.eval(rs[1:]) * rng.uniform(0.5, 2.0, rs.size - 1)))
        floats = np.array([f.eval(float(r)) for r in rs])
        np.testing.assert_array_equal(bits(floats), bits(f.eval(rs)))
        inverted = np.array([f.invert(float(y)) for y in ys])
        np.testing.assert_array_equal(bits(inverted), bits(f.invert(ys)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_piecewise_linear_sum_invert(self, seed):
        # the knot table is the same for every call; the ulp steps are per point
        rng = np.random.default_rng(seed)
        f = random_pl_sum(rng)
        ys = np.concatenate(([0.0], knot_queries(f, rng)))
        inverted = np.array([f.invert(float(y)) for y in ys])
        np.testing.assert_array_equal(bits(inverted), bits(f.invert(ys)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_separable_eval(self, seed):
        rng = np.random.default_rng(seed)
        beta = random_separable(rng, depth=3)
        rs = np.concatenate(([0.0], np.exp(rng.uniform(-7.0, 7.0, 23))))
        ts = np.concatenate(([0.0], rng.uniform(0.0, 40.0, 23)))
        floats = np.array([beta.eval(float(r), float(t)) for r, t in zip(rs, ts)])
        np.testing.assert_array_equal(bits(floats), bits(beta.eval(rs, ts)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_sampled_eval(self, seed, from_zero):
        rng = np.random.default_rng(seed)
        beta = sampled_from_zero(rng) if from_zero else random_sampled(rng, 12, 10)[0]
        rs, ts = sampled_queries(rng, beta)
        rs, ts = rng.choice(rs, 24), rng.choice(ts, 24)
        floats = np.array([beta.eval(float(r), float(t)) for r, t in zip(rs, ts)])
        np.testing.assert_array_equal(bits(floats), bits(beta.eval(rs, ts)))
        # and against a whole grid, where each time's tail power is shared
        grid = beta.eval(rs[:, None], ts[None, :])
        np.testing.assert_array_equal(bits(floats), bits(np.diagonal(grid)))


# one tree over all eleven node kinds, and its JSON as the format writes it
ALL_OPS_JSON = (
    '{"kind": "nonneg", "expr": {"op": "sum", "left": {"op": "min", "left": {"op": "sum", '
    '"left": {"op": "compose", "outer": {"op": "scale", "c": 2.0, "inner": {"op": "power", '
    '"p": 1.5}}, "inner": {"op": "inverse_of", "inner": {"op": "linear", "c": 3.0}}}, '
    '"right": {"op": "product", "left": {"op": "table", "x": [0.0, 1.0, 2.0], '
    '"y": [0.0, 0.5, 3.0]}, "right": {"op": "identity"}}}, "right": {"op": "identity"}}, '
    '"right": {"op": "const", "c": 0.25}}}'
)


def all_ops_tree():
    f = combine(
        compose(scale(2.0, power(1.5)), inverse_of(linear(3.0))),
        combine(table_fn([1.0, 2.0], [0.5, 3.0]), identity(), "product"),
        "sum",
    )
    return combine(pointwise_min(f, identity()), const_fn(0.25), "sum")


def ops_in(obj):
    kids = [v for v in obj.values() if isinstance(v, dict)]
    return {obj["op"]}.union(*(ops_in(kid) for kid in kids))


class TestNodeSerialization:
    def test_all_ops_json_bytes_are_pinned_and_round_trip(self):
        tree = all_ops_tree()
        assert json.dumps(tree.to_json()) == ALL_OPS_JSON
        assert ops_in(tree.to_json()["expr"]) == set(_NODES)
        back = fn_from_json(json.loads(ALL_OPS_JSON))
        assert type(back) is NonnegFn
        assert json.dumps(back.to_json()) == ALL_OPS_JSON
        # a key outside the format, such as the positive_definite flag of older files, is ignored
        legacy = {**json.loads(ALL_OPS_JSON), "positive_definite": "no"}
        assert json.dumps(fn_from_json(legacy).to_json()) == ALL_OPS_JSON
        np.testing.assert_array_equal(bits(back.eval(LOG_GRID)), bits(tree.eval(LOG_GRID)))

    @pytest.mark.parametrize(
        "beta, text",
        [
            (
                SeparableKL(outer=power(2.0), decay=0.25, inner=linear(3.0)),
                '{"kind": "kl.separable", "outer": {"kind": "kinf", "expr": {"op": "power", '
                '"p": 2.0}}, "decay": 0.25, "inner": {"kind": "kinf", "expr": {"op": "linear", '
                '"c": 3.0}}}',
            ),
            # integer input, written as floats
            (
                SampledKL(r_grid=[0, 1, 2.5], t_grid=[0, 1, 3],
                          values=[[0, 0, 0], [2, 1, 0.5], [5, 2.5, 1.25]]),
                '{"kind": "kl.sampled", "r_grid": [0.0, 1.0, 2.5], "t_grid": [0.0, 1.0, 3.0], '
                '"values": [[0.0, 0.0, 0.0], [2.0, 1.0, 0.5], [5.0, 2.5, 1.25]]}',
            ),
        ],
        ids=["separable", "sampled"],
    )
    def test_bound_json_bytes_are_pinned(self, beta, text):
        assert json.dumps(beta.to_json()) == text
        assert json.dumps(kl_from_json(json.loads(text)).to_json()) == text

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_bound_round_trips_through_the_artifact_writer(self, seed, separable):
        rng = np.random.default_rng(seed)
        beta = random_separable(rng) if separable else random_sampled(rng, 12, 10)[0]
        text = _json_text(beta.to_json(), "", {})
        back = kl_from_json(json.loads(text))
        assert back.to_json() == json.loads(text)
        rs, ts = np.geomspace(1e-3, 1e3, 9)[:, None], np.linspace(0.0, 40.0, 9)[None, :]
        np.testing.assert_array_equal(bits(back.eval(rs, ts)), bits(beta.eval(rs, ts)))

    @pytest.mark.parametrize(
        "expr",
        [
            {"op": "mystery"},
            {"op": ["sum"]},
            {"op": "power"},
            {"op": "scale", "c": 2.0},
            {"op": "table", "x": [0.0, 1.0]},
            {"op": "compose", "outer": {"op": "identity"}, "inner": {"op": "sqrt"}},
            {"op": "sum", "left": {"op": "identity"}, "right": [{"op": "identity"}]},
            {"c": 1.0},
            "identity",
            None,
        ],
    )
    def test_malformed_expressions_raise(self, expr):
        for kind in ("kinf", "nonneg"):
            with pytest.raises(ParameterError):
                fn_from_json({"kind": kind, "expr": expr})

    @pytest.mark.parametrize("wrapper", [KInfFn, NonnegFn])
    @pytest.mark.parametrize("bad", ["identity", 1.0, None, identity(), Scale(2.0, linear(1.0))])
    def test_non_node_objects_are_rejected(self, wrapper, bad):
        with pytest.raises(ParameterError):
            wrapper(bad)


class TestKLDomain:
    def _bounds(self):
        beta, _ = random_sampled(np.random.default_rng(9))
        return [SeparableKL(outer=power(2.0), decay=0.5, inner=identity()), beta]

    @pytest.mark.parametrize(
        "r, t",
        [
            (np.nan, 1.0),
            (np.inf, 1.0),
            (-1.0, 1.0),
            (1.0, np.nan),
            (1.0, -1.0),
            (1.0, -np.inf),
            (np.array([1.0, np.nan]), 1.0),
            (np.array([1.0, np.inf]), 1.0),
            (1.0, np.array([0.0, np.nan])),
            (np.array([[1.0], [2.0]]), np.array([0.0, -2.0])),
        ],
    )
    def test_outside_the_domain_raises_on_both_kinds(self, r, t):
        for beta in self._bounds():
            with pytest.raises(DomainError):
                beta.eval(r, t)

    def test_infinite_time_gives_zero_on_both_kinds(self):
        for beta in self._bounds():
            assert beta.eval(3.0, np.inf) == 0.0
            np.testing.assert_array_equal(beta.eval(np.array([0.0, 3.0]), np.inf), [0.0, 0.0])

    def test_edges_of_the_domain_are_accepted(self):
        for beta in self._bounds():
            assert beta.eval(0.0, 0.0) == 0.0
            assert beta.eval(np.zeros(0), np.zeros(0)).shape == (0,)


class TestGridPathsMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_sampled_eval_is_the_per_time_loop(self, seed, from_zero):
        rng = np.random.default_rng(seed)
        beta = sampled_from_zero(rng) if from_zero else random_sampled(rng, 12, 10)[0]
        rs, ts = sampled_queries(rng, beta)
        for r, t in (
            (rs[:, None], ts[None, :]),
            (rs, ts[rng.integers(ts.size)]),
            (rs[rng.integers(rs.size)], ts),
            (rng.choice(rs, 30), rng.choice(ts, 30)),
        ):
            got, ref = beta.eval(r, t), sampled_eval_loop(beta, r, t)
            assert got.shape == ref.shape
            np.testing.assert_array_equal(bits(got), bits(ref))
        for r, t in zip(rng.choice(rs, 8).tolist(), rng.choice(ts, 8).tolist()):
            got, ref = beta.eval(r, t), sampled_eval_loop(beta, r, t)
            assert type(got) is float and got.hex() == ref.hex()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), max_size=12),
        st.integers(0, 2**32 - 1),
    )
    def test_max_per_x_is_the_dedupe_loop(self, xs, seed):
        rng = np.random.default_rng(seed)
        xs = np.asarray(xs, dtype=float)
        ys = rng.choice([0.0, 1.0, 2.5, rng.uniform(0.0, 3.0)], size=xs.size)
        got_x, got_y = _max_per_x(xs, ys)
        ref_x, ref_y = max_per_x_loop(xs, ys)
        np.testing.assert_array_equal(bits(got_x), bits(ref_x))
        np.testing.assert_array_equal(bits(got_y), bits(ref_y))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.5]),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.7976931348623157e308]),
                    st.sampled_from([math.inf, math.nan, -math.nan, -1.0]),
                    st.floats(0.0, 4.0),
                ),
            ),
            max_size=12,
        )
    )
    def test_strict_table_is_the_tie_repair_loop(self, points):
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        try:
            # the loop steps past the largest double to inf, and says so
            with np.errstate(over="ignore"):
                ref = strict_table_loop(xs, ys)
        except MonotoneInputError as exc:
            with pytest.raises(MonotoneInputError, match=f"^{re.escape(str(exc))}$"):
                strict_table(xs, ys)
            return
        got = strict_table(xs, ys).expr
        np.testing.assert_array_equal(bits(got.x), bits(ref.x))
        # the loop keeps a -0.0 at the origin, which the repair reads as +0.0
        np.testing.assert_array_equal(bits(got.y), bits(np.asarray(ref.y) + 0.0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_grid_violations_is_the_double_loop(self, seed, sampled):
        rng = np.random.default_rng(seed)
        beta = random_sampled(rng, 12, 10)[0] if sampled else random_separable(rng, depth=2)
        r_grid = np.concatenate(([0.0], np.logspace(-2.0, 2.0, 9)))
        t_grid = np.array([0.0, 0.5, 1.0, 3.0, 8.0, 12.0])
        vals = scalar_grid(beta, r_grid, t_grid)
        ref = []
        if np.any(np.diff(vals, axis=0) <= 0):
            ref.append("not strictly increasing in r")
        rows = vals[r_grid > 0]
        if np.any(np.diff(rows, axis=1) >= 0):
            ref.append("not strictly decreasing in t for r > 0")
        if np.any(rows[:, -1] >= rows[:, 0]):
            ref.append("no decay over the horizon")
        assert kl_grid_violations(beta, r_grid=r_grid, t_grid=t_grid) == ref

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.3, 0.5, 0.8]))
    def test_decompose_is_the_double_loop(self, seed, sampled, decay):
        rng = np.random.default_rng(seed)
        if sampled:
            beta = random_sampled(rng, 12, 10)[0]
            r_grid, t_grid = beta.r_grid, beta.t_grid
        else:
            beta = random_separable(rng, depth=2)
            r_grid, t_grid = np.logspace(-3.0, 3.0, 12), np.arange(10, dtype=float)
        base = np.array([point_value(beta, r, 0.0) for r in r_grid])
        inner = combine(strict_table(r_grid, base), identity(), "sum")
        inner_vals = inner.eval(r_grid)
        weights = decay ** t_grid
        cloud_s = (inner_vals[:, None] * weights[None, :]).ravel()
        cloud_v = scalar_grid(beta, r_grid, t_grid).ravel()
        xs, vs = max_per_x_loop(cloud_s, cloud_v)
        ends_x, ends_top = plateau_ends_loop(xs, vs)
        outer = strict_table(ends_x, ends_top + 1e-9 * ends_x)
        worst = -np.inf
        for i, r in enumerate(r_grid):
            lhs = np.array([point_value(beta, r, t) for t in t_grid])
            worst = max(worst, float(np.max(lhs - outer.eval(weights * inner_vals[i]))))

        # the slack check pins the worst grid excess to the last bit
        dec = kl_decompose(beta, decay, r_grid, t_grid, slack=worst)
        assert dec.to_json() == SeparableKL(outer=outer, decay=decay, inner=inner).to_json()
        with pytest.raises(DecompositionError):
            kl_decompose(beta, decay, r_grid, t_grid, slack=np.nextafter(worst, -np.inf))
