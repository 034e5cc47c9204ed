"""Value iteration, certificate extraction, and brute-force cross-checks."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagecraft import (
    EnvelopeError,
    FiniteSystem,
    ParameterError,
    SimulationError,
    StageCost,
    StagecraftError,
    brute_force_values,
    build_builtin,
    combine,
    discretize_scalar,
    extract_ucc,
    greedy_policy,
    identity,
    inverse_of,
    linear,
    power,
    reaches_core,
    rollout,
    strict_table,
    table_fn,
    value_iterate,
    zero_cost_core,
)
from stagecraft import oracle
from stagecraft.cli import main
from stagecraft.oracle import _cost_table
from support import assert_prefix_closed, total_cost

SIGMA_RHO = StageCost(state_cost=identity(), input_cost=identity())


def countdown(length=10):
    """Chain where input 1 steps toward zero and input 0 holds."""
    xs = np.arange(length)
    return FiniteSystem(
        successor=np.stack([xs, np.maximum(xs - 1, 0)], axis=1),
        state_measure=xs.astype(float),
        input_measure=np.array([0.0, 1.0]),
    )


def stranded_pair():
    """State 1 can only loop on itself, so its total cost is infinite."""
    return FiniteSystem(
        successor=np.array([[0, 0], [1, 1]]),
        state_measure=np.array([0.0, 1.0]),
        input_measure=np.array([0.0, 1.0]),
    )


def random_system(rng):
    """1-40 states, 1-4 inputs, random successors, some zero measures."""
    states = int(rng.integers(1, 41))
    inputs = int(rng.integers(1, 5))
    sig = np.where(rng.random(states) < 0.3, 0.0, rng.uniform(0.0, 5.0, states))
    sig[rng.integers(states)] = 0.0
    rho = np.where(rng.random(inputs) < 0.4, 0.0, rng.uniform(0.0, 5.0, inputs))
    return FiniteSystem(
        successor=rng.integers(0, states, size=(states, inputs)),
        state_measure=sig,
        input_measure=rho,
    )


def scalar_cost_table(fsys, cost):
    """Per-entry reference: ``0.0 + state + input + cross`` and its check, one float at a time."""
    table = np.empty((fsys.num_states, fsys.num_inputs))
    for x, sigma in enumerate(fsys.state_measure.tolist()):
        for u, rho in enumerate(fsys.input_measure.tolist()):
            total = 0.0
            if cost.state_cost is not None:
                total += cost.state_cost.eval(sigma)
            if cost.input_cost is not None:
                total += cost.input_cost.eval(rho)
            if cost.cross_cost is not None:
                total += float(cost.cross_cost(sigma, rho))
            if not (total >= 0.0 and math.isfinite(total)):
                raise SimulationError(f"stage cost evaluated to {total!r} at sigma={sigma}, rho={rho}")
            table[x, u] = total
    return table


def reference_core(fsys, table):
    """Greatest fixed point by whole-set rounds, one state at a time."""
    core = np.ones(fsys.num_states, dtype=bool)
    while True:
        stays = np.array(
            [core[x] and np.any((table[x] == 0.0) & core[fsys.successor[x]])
             for x in range(fsys.num_states)]
        )
        if np.array_equal(stays, core):
            return core
        core = stays


def reference_reach(fsys, core):
    """Least fixed point by whole-set rounds, one state at a time."""
    reach = core.copy()
    while True:
        grown = np.array(
            [reach[x] or np.any(reach[fsys.successor[x]]) for x in range(fsys.num_states)]
        )
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def reference_values(fsys, table, finite_mask, tol, max_iter):
    """Value iteration sweeping the full table; returns (values, iterations, residual)."""
    values = np.where(finite_mask, 0.0, np.inf)
    iterations, residual = 0, np.inf
    while iterations < max_iter:
        new = np.where(finite_mask, np.min(table + values[fsys.successor], axis=1), np.inf)
        iterations += 1
        residual = (
            float(np.max(np.abs(new[finite_mask] - values[finite_mask])))
            if finite_mask.any()
            else 0.0
        )
        values = new
        if residual <= tol:
            break
    return values, iterations, residual


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


STAGE_COSTS = {
    "identity": StageCost(state_cost=identity(), input_cost=identity()),
    "linear": StageCost(state_cost=linear(2.5), input_cost=linear(0.3)),
    "power": StageCost(state_cost=power(1.7), input_cost=power(0.45)),
    "table": StageCost(
        state_cost=table_fn([0.5, 1.0, 3.0], [0.2, 1.1, 4.0]),
        input_cost=table_fn([2.0, 4.0], [0.3, 5.0]),
    ),
    "inverse_of": StageCost(
        state_cost=inverse_of(power(3.0)),
        input_cost=inverse_of(combine(identity(), power(2.0), "sum")),
    ),
    "cross": StageCost(
        state_cost=power(2.0), input_cost=identity(), cross_cost=lambda s, r: s * r
    ),
}


class TestArrayPathsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_core_and_reach_match_fixed_points(self, seed):
        rng = np.random.default_rng(seed)
        fsys = random_system(rng)
        cost = STAGE_COSTS[rng.choice(sorted(STAGE_COSTS))]
        table = _cost_table(fsys, cost)
        core = zero_cost_core(fsys, cost)
        assert core.tolist() == reference_core(fsys, table).tolist()
        reach = reaches_core(fsys, core)
        assert reach.tolist() == reference_reach(fsys, core).tolist()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cost_table_is_bitwise_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        fsys = random_system(rng)
        wide = FiniteSystem(
            successor=fsys.successor,
            state_measure=fsys.state_measure * 10.0 ** rng.uniform(-6, 6, fsys.num_states),
            input_measure=fsys.input_measure * 10.0 ** rng.uniform(-6, 6, fsys.num_inputs),
        )
        for name, cost in STAGE_COSTS.items():
            for sys_ in (fsys, wide):
                table = _cost_table(sys_, cost)
                assert np.array_equal(bits(table), bits(scalar_cost_table(sys_, cost))), name

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_value_iteration_is_bitwise_the_full_table_sweep(self, seed):
        rng = np.random.default_rng(seed)
        fsys = random_system(rng)
        cost = STAGE_COSTS[rng.choice(sorted(STAGE_COSTS))]
        vt = value_iterate(fsys, cost)
        table = scalar_cost_table(fsys, cost)
        finite_mask = reference_reach(fsys, reference_core(fsys, table))
        values, _, residual = reference_values(fsys, table, finite_mask, 1e-10, 10_001)
        assert np.isfinite(vt.values).tolist() == finite_mask.tolist()
        # sweeps from zero can stop within tol short of the fixed point
        if residual == 0.0:
            assert np.array_equal(bits(vt.values), bits(values))


class TestCostGuards:
    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_bad_cross_cost_raises(self, bad):
        cost = StageCost(state_cost=identity(), cross_cost=lambda s, r: bad if r > 0 else 0.0)
        with pytest.raises(SimulationError, match="stage cost evaluated to"):
            value_iterate(countdown(4), cost)

    @pytest.mark.parametrize("bad", [-7.0, np.inf, np.nan])
    def test_table_names_the_first_bad_entry_like_the_scalar_loop(self, bad):
        cost = StageCost(state_cost=identity(), cross_cost=lambda s, r: bad if s > 1 and r > 0 else 0.0)
        with pytest.raises(SimulationError) as expected:
            scalar_cost_table(countdown(5), cost)
        with pytest.raises(SimulationError) as got:
            _cost_table(countdown(5), cost)
        assert str(got.value) == str(expected.value)


class TestFiniteSystem:
    def test_shape_properties(self):
        fsys = countdown(4)
        assert fsys.num_states == 4
        assert fsys.num_inputs == 2

    def test_successor_must_be_matrix(self):
        with pytest.raises(ParameterError, match="two-dimensional"):
            FiniteSystem(
                successor=np.array([0, 1]),
                state_measure=np.array([0.0, 1.0]),
                input_measure=np.array([0.0]),
            )

    def test_successor_entries_in_range(self):
        with pytest.raises(ParameterError, match="valid state indices"):
            FiniteSystem(
                successor=np.array([[0], [2]]),
                state_measure=np.array([0.0, 1.0]),
                input_measure=np.array([0.0]),
            )

    @pytest.mark.parametrize(
        "successor",
        [np.array([[0.0], [0.7]]), np.array([[False], [True]]), np.array([[0.0], [np.nan]]),
         [[0], [0.5]]],
        ids=["fractional", "boolean", "nan", "fractional_list"],
    )
    def test_successor_entries_must_be_integers(self, successor):
        with pytest.raises(ParameterError, match="successor entries must be integers"):
            FiniteSystem(
                successor=successor,
                state_measure=np.array([0.0, 1.0]),
                input_measure=np.array([0.0]),
            )

    def test_integral_float_successors_are_indices(self):
        fsys = FiniteSystem(
            successor=np.array([[0.0], [0.0]]),
            state_measure=np.array([0.0, 1.0]),
            input_measure=np.array([0.0]),
        )
        assert fsys.successor.dtype.kind == "i"
        assert fsys.successor.tolist() == [[0], [0]]

    @pytest.mark.parametrize("cell", [0.7, True], ids=["fractional", "boolean"])
    def test_json_successor_entries_must_be_integers(self, cell):
        payload = countdown(3).to_json()
        payload["successor"][2][1] = cell
        with pytest.raises(ParameterError, match="successor entries must be integers"):
            FiniteSystem.from_json(payload)

    def test_measure_shapes_must_match(self):
        with pytest.raises(ParameterError, match="match the successor"):
            FiniteSystem(
                successor=np.array([[0], [0]]),
                state_measure=np.array([0.0, 1.0, 2.0]),
                input_measure=np.array([0.0]),
            )

    def test_measures_must_be_nonnegative(self):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            FiniteSystem(
                successor=np.array([[0], [0]]),
                state_measure=np.array([0.0, -1.0]),
                input_measure=np.array([0.0]),
            )

    def test_needs_a_zero_measure_state(self):
        with pytest.raises(ParameterError, match="measure zero"):
            FiniteSystem(
                successor=np.array([[0], [0]]),
                state_measure=np.array([1.0, 2.0]),
                input_measure=np.array([0.0]),
            )

    def test_json_round_trip(self):
        fsys = countdown(5)
        back = FiniteSystem.from_json(fsys.to_json())
        assert np.array_equal(back.successor, fsys.successor)
        assert np.array_equal(back.state_measure, fsys.state_measure)
        assert np.array_equal(back.input_measure, fsys.input_measure)

    def test_json_without_a_table_is_a_parameter_error(self):
        payload = countdown(3).to_json()
        del payload["state_measure"]
        with pytest.raises(ParameterError, match="'state_measure'"):
            FiniteSystem.from_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], {"successor": [[0], [0, 1]], "state_measure": [0.0], "input_measure": [0.0]},
         {"successor": [[0]], "state_measure": ["a"], "input_measure": [0.0]}],
        ids=["not_an_object", "ragged_successor", "non_numeric_measure"],
    )
    def test_malformed_json_is_a_parameter_error(self, payload):
        with pytest.raises(ParameterError, match="malformed finite system JSON"):
            FiniteSystem.from_json(payload)

    def test_control_system_view(self):
        sys = countdown(4).to_control_system()
        assert sys.transition(3, 1) == 2
        assert sys.transition(3, 0) == 3
        assert sys.sigma(2) == 2.0
        assert sys.rho(1) == 1.0


class TestCoreMasks:
    def test_countdown_core_is_the_origin(self):
        fsys = countdown(6)
        core = zero_cost_core(fsys, SIGMA_RHO)
        assert core.tolist() == [True] + [False] * 5
        assert reaches_core(fsys, core).all()

    def test_free_inputs_make_every_state_core(self):
        fsys = countdown(6)
        core = zero_cost_core(fsys, StageCost(input_cost=identity()))
        assert core.all()

    def test_stranded_state_never_reaches(self):
        fsys = stranded_pair()
        core = zero_cost_core(fsys, SIGMA_RHO)
        assert core.tolist() == [True, False]
        assert reaches_core(fsys, core).tolist() == [True, False]


class TestValueIterate:
    def test_two_state_jump(self):
        fsys = FiniteSystem(
            successor=np.array([[0, 0], [1, 0]]),
            state_measure=np.array([0.0, 1.0]),
            input_measure=np.array([0.0, 1.0]),
        )
        table = value_iterate(fsys, StageCost(state_cost=identity()))
        assert table.values.tolist() == [0.0, 1.0]
        assert table.greedy.tolist() == [0, 1]

    def test_countdown_closed_form(self):
        table = value_iterate(countdown(10), SIGMA_RHO)
        expected = [x * (x + 3) / 2 for x in range(10)]
        assert np.allclose(table.values, expected, rtol=0, atol=1e-9)
        assert table.greedy.tolist() == [0] + [1] * 9

    def test_free_inputs_give_zero_values(self):
        table = value_iterate(countdown(6), StageCost(input_cost=identity()))
        assert np.all(table.values == 0.0)

    def test_stranded_state_is_infinite(self):
        table = value_iterate(stranded_pair(), SIGMA_RHO)
        assert table.values[0] == 0.0
        assert np.isinf(table.values[1])

    @pytest.mark.parametrize("toward", [math.inf, -math.inf], ids=["raised", "lowered"])
    def test_confirming_sweep_rejects_a_moved_distance(self, tmp_path, capsys, monkeypatch,
                                                       toward):
        exact = oracle._core_distances

        def nudged(fsys, table, core):
            dist = exact(fsys, table, core)
            # state 5 of the countdown chain is finite and outside the core {0}
            dist[5] = np.nextafter(dist[5], toward)
            return dist

        monkeypatch.setattr(oracle, "_core_distances", nudged)
        with pytest.raises(StagecraftError, match="state 5 from"):
            value_iterate(countdown(10), SIGMA_RHO)
        config = tmp_path / "chain.json"
        config.write_text('{"system": {"builtin": "finite_chain"}}', encoding="utf-8")
        assert main(["oracle", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: a Bellman sweep moves state 5")

    def test_csv_layout_with_infinities(self):
        fsys = stranded_pair()
        table = value_iterate(fsys, SIGMA_RHO)
        buf = io.StringIO()
        table.to_csv(fsys, buf)
        lines = buf.getvalue().split("\r\n")
        assert lines[0] == "state,sigma,value,greedy"
        assert lines[1].startswith("0,0,0,")
        assert lines[2].split(",")[2] == "inf"


class TestGreedyPolicy:
    def test_countdown_controls(self):
        fsys = countdown(10)
        table = value_iterate(fsys, SIGMA_RHO)
        policy = greedy_policy(table, fsys, prefix_len=16)
        assert list(policy.controls(5, 10)) == [1] * 5 + [0] * 5

    def test_greedy_rollout_attains_the_value(self):
        fsys = countdown(10)
        table = value_iterate(fsys, SIGMA_RHO)
        sys = fsys.to_control_system()
        policy = greedy_policy(table, fsys, prefix_len=32)
        for x0 in (1, 4, 9):
            traj = rollout(sys, x0, policy.controls(x0, 32))
            achieved = total_cost(SIGMA_RHO, traj)
            assert abs(achieved - table.values[x0]) <= 10 * 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_controls_equal_a_numpy_indexed_walk(self, seed):
        fsys = random_system(np.random.default_rng(seed))
        table = value_iterate(fsys, SIGMA_RHO)
        policy = greedy_policy(table, fsys, prefix_len=24)
        for x0 in range(fsys.num_states):
            expected, state = [], x0
            for _ in range(24):
                u = int(table.greedy[state])
                expected.append(u)
                state = int(fsys.successor[state, u])
            controls = policy.controls(x0, 24)
            assert list(controls) == expected
            assert all(type(u) is int for u in controls)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_controls_are_prefix_closed(self, seed):
        fsys = random_system(np.random.default_rng(seed))
        policy = greedy_policy(value_iterate(fsys, SIGMA_RHO), fsys, prefix_len=24)
        for x0 in range(fsys.num_states):
            assert_prefix_closed(policy, x0, range(33))


class TestExtractUcc:
    def test_countdown_envelope(self):
        fsys = countdown(10)
        table = value_iterate(fsys, SIGMA_RHO)
        ucc = extract_ucc(table, fsys, margin=1.5)
        assert ucc.forward_invariant
        assert ucc.cost_bound.eval(0.0) == 0.0
        assert ucc.cost_bound.eval(1.0) == pytest.approx(3.000000001, rel=1e-12)
        assert ucc.cost_bound.eval(9.0) == pytest.approx(1.5 * 54 + 9e-9, rel=1e-12)
        assert ucc.domain(9) and not ucc.domain(10)

    def test_bound_dominates_every_value(self):
        fsys = countdown(10)
        table = value_iterate(fsys, SIGMA_RHO)
        ucc = extract_ucc(table, fsys, margin=1.5)
        for x in range(10):
            assert ucc.cost_bound.eval(float(x)) >= table.values[x]

    def test_margin_validation(self):
        fsys = countdown(4)
        table = value_iterate(fsys, SIGMA_RHO)
        with pytest.raises(ParameterError, match="margin"):
            extract_ucc(table, fsys, margin=0.5)

    def test_infinite_value_rejected(self):
        fsys = stranded_pair()
        table = value_iterate(fsys, SIGMA_RHO)
        with pytest.raises(EnvelopeError, match="no finite total cost"):
            extract_ucc(table, fsys)

    def test_costly_zero_measure_state_rejected(self):
        # state 1 sits at measure zero but must pass through the unit-measure
        # state 2 before resting, so its total cost is positive
        fsys = FiniteSystem(
            successor=np.array([[0], [2], [0]]),
            state_measure=np.array([0.0, 0.0, 1.0]),
            input_measure=np.array([0.0]),
        )
        table = value_iterate(fsys, StageCost(state_cost=identity()))
        with pytest.raises(EnvelopeError, match="measure 0 but total cost"):
            extract_ucc(table, fsys)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_peaks_are_the_per_level_maxima(self, seed):
        # a symmetric saturating grid: +x and -x share a measure level; the
        # deadbeat inputs let every state reach 0, the random ones make the
        # values of +x and -x differ
        rng = np.random.default_rng(seed)
        positive = np.cumsum(rng.uniform(0.05, 0.5, size=int(rng.integers(2, 30))))
        grid = np.concatenate((-positive[::-1], [0.0], positive))
        drift = grid / (1.0 + grid * grid)
        inputs = np.unique(np.concatenate((-drift, rng.uniform(-0.6, 0.6, 3))))
        fsys = discretize_scalar(lambda x, u: x / (1.0 + x * x) + u, grid, inputs)
        table = value_iterate(fsys, SIGMA_RHO)
        sig, values = fsys.state_measure, table.values
        knots = np.unique(sig[sig > 0.0])
        peaks = np.array([np.max(values[sig == k]) for k in knots])
        ucc = extract_ucc(table, fsys, margin=1.5)
        reference = strict_table(knots, 1.5 * peaks + 1e-9 * knots)
        assert ucc.cost_bound.to_json() == reference.to_json()

    def test_all_zero_measures_fall_back_to_identity(self):
        fsys = FiniteSystem(
            successor=np.array([[0], [0]]),
            state_measure=np.array([0.0, 0.0]),
            input_measure=np.array([0.0]),
        )
        table = value_iterate(fsys, StageCost(state_cost=identity()))
        ucc = extract_ucc(table, fsys)
        assert ucc.cost_bound.eval(2.0) == 2.0


class TestBruteForce:
    def test_matches_value_iteration_on_small_chain(self):
        fsys = countdown(5)
        table = value_iterate(fsys, SIGMA_RHO)
        best = brute_force_values(fsys, SIGMA_RHO, depth=8)
        assert np.allclose(best, table.values, rtol=0, atol=1e-9)

    def test_shallow_depth_leaves_far_states_infinite(self):
        fsys = countdown(5)
        best = brute_force_values(fsys, SIGMA_RHO, depth=2)
        assert np.isinf(best[4])
        assert best[2] == 5.0

    def test_enumeration_guard(self):
        xs = np.arange(5)
        fsys = FiniteSystem(
            successor=np.stack([xs, np.maximum(xs - 1, 0), xs, xs], axis=1),
            state_measure=xs.astype(float),
            input_measure=np.array([0.0, 1.0, 2.0, 3.0]),
        )
        with pytest.raises(ParameterError, match="too large"):
            brute_force_values(fsys, SIGMA_RHO, depth=12)


class TestDiscretizeScalar:
    def test_snaps_to_nearest_grid_point(self):
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        fsys = discretize_scalar(lambda x, u: 0.5 * x, grid, [0.0])
        assert fsys.successor[:, 0].tolist() == [1, 2, 2, 3, 3]

    def test_clamps_at_grid_ends(self):
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        fsys = discretize_scalar(lambda x, u: 10.0 * x, grid, [0.0])
        assert fsys.successor[0, 0] == 0
        assert fsys.successor[4, 0] == 4

    def test_grid_validation(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            discretize_scalar(lambda x, u: x, [0.0, 0.0, 1.0], [0.0])
        with pytest.raises(ParameterError, match="nonempty"):
            discretize_scalar(lambda x, u: x, [], [0.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_snapping_matches_pointwise_search(self, seed):
        rng = np.random.default_rng(seed)
        # half-integer grids and quarter-integer targets make exact ties
        # and targets beyond either end common
        grid = np.union1d(rng.integers(-6, 7, int(rng.integers(1, 12))) / 2.0, [0.0])
        inputs = rng.integers(-4, 5, int(rng.integers(1, 5))) / 2.0
        a, b = rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 2.0], size=2)

        def step(x, u):
            return a * x + b * u

        fsys = discretize_scalar(step, grid, inputs)
        for i, x in enumerate(grid):
            for j, u in enumerate(inputs):
                target = float(step(x, u))
                k = int(np.searchsorted(grid, target))
                if k <= 0:
                    snapped = 0
                elif k >= grid.size:
                    snapped = grid.size - 1
                else:
                    snapped = k if grid[k] - target <= target - grid[k - 1] else k - 1
                assert fsys.successor[i, j] == snapped

    def test_needs_zero_measure_point(self):
        with pytest.raises(ParameterError, match="measure zero"):
            discretize_scalar(lambda x, u: x, [1.0, 2.0], [0.0])


class TestAgainstBuiltinChain:
    def test_builtin_chain_certificate_verifies_everywhere(self):
        chain = build_builtin("finite_chain")
        table = value_iterate(chain.finite, SIGMA_RHO)
        ucc = extract_ucc(table, chain.finite, margin=1.5)
        sys = chain.system
        for x0 in range(10):
            traj = rollout(sys, x0, ucc.policy.controls(x0, 16))
            assert total_cost(SIGMA_RHO, traj) <= ucc.cost_bound.eval(sys.sigma(x0))
