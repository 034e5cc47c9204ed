import math

import numpy as np
import pytest

from stagecraft import (
    ControlSystem,
    ParameterError,
    SimulationError,
    StageCost,
    Trajectory,
    identity,
    linear,
    power,
    rollout,
    stage_costs,
)
from support import total_cost


def scalar_system(a=0.5):
    return ControlSystem(
        transition=lambda x, u: a * x + u,
        state_measure=abs,
        input_measure=abs,
    )


class TestRollout:
    def test_geometric_decay(self):
        traj = rollout(scalar_system(), 1.0, [0.0, 0.0, 0.0])
        assert traj.states == (1.0, 0.5, 0.25, 0.125)
        assert traj.inputs == (0.0, 0.0, 0.0)

    def test_measures_are_recorded_as_the_states_are_stepped(self):
        traj = rollout(scalar_system(), -1.0, [0.25, -0.5, 0.0])
        assert traj.states == (-1.0, -0.25, -0.625, -0.3125)
        assert traj.sigma.dtype == np.float64 and traj.rho.dtype == np.float64
        assert traj.sigma.tolist() == [1.0, 0.25, 0.625, 0.3125]
        assert traj.rho.tolist() == [0.25, 0.5, 0.0]
        empty = rollout(scalar_system(), 2.0, [])
        assert empty.sigma.tolist() == [2.0] and empty.rho.shape == (0,)

    def test_bad_measure_raises_during_the_rollout(self):
        sys = ControlSystem(
            transition=lambda x, u: x + u,
            state_measure=abs,
            input_measure=lambda u: math.nan if u else 0.0,
        )
        with pytest.raises(SimulationError, match="input measure returned nan"):
            rollout(sys, 1.0, [0.0, 1.0, 0.0])

    def test_negative_state_measure_raises(self):
        sys = ControlSystem(transition=lambda x, u: x + u, state_measure=lambda x: -x,
                            input_measure=abs)
        with pytest.raises(SimulationError, match=r"state measure returned -0\.5, expected"):
            rollout(sys, -1.0, [1.5])

    def test_a_state_numpy_cannot_convert_is_not_finite(self):
        with pytest.raises(SimulationError, match="initial state is not finite") as err:
            rollout(scalar_system(), "abc", [0.0])
        assert err.value.step == 0

    def test_divergence_raises_with_step(self):
        bad = ControlSystem(
            transition=lambda x, u: x * 1e200,
            state_measure=abs,
            input_measure=abs,
        )
        with pytest.raises(SimulationError) as err:
            rollout(bad, 1.0, [0.0, 0.0, 0.0])
        assert err.value.step is not None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.array([1.0, np.nan]), [0.0, -np.inf]])
    def test_nonfinite_states_raise_with_their_step(self, bad):
        with pytest.raises(SimulationError) as err:
            rollout(scalar_system(), bad, [0.0])
        assert err.value.step == 0
        blowup = ControlSystem(
            transition=lambda x, u: bad if u else x,
            state_measure=lambda x: 0.0,
            input_measure=abs,
        )
        with pytest.raises(SimulationError) as err:
            rollout(blowup, 1.0, [0.0, 0.0, 1.0, 0.0])
        assert err.value.step == 2

    def test_finite_states_of_every_shape_pass(self):
        sys = ControlSystem(transition=lambda x, u: x, state_measure=lambda x: 0.0, input_measure=abs)
        for x0 in (1.0, np.float64(2.0), 3, np.array([1.0, 2.0]), [0.5, 0.25]):
            assert rollout(sys, x0, [0.0]).states[-1] is x0

    def test_state_count_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            Trajectory(states=(1.0, 0.5), inputs=(0.0, 0.0), sigma=np.ones(2), rho=np.zeros(2))

    @pytest.mark.parametrize("sigma, rho", [(1, 1), (3, 1), (2, 0), (2, 2)])
    def test_measure_count_mismatch_rejected(self, sigma, rho):
        Trajectory(states=(1.0, 0.5), inputs=(0.0,), sigma=np.ones(2), rho=np.zeros(1))
        with pytest.raises(ParameterError, match="one measure per state and per input"):
            Trajectory(states=(1.0, 0.5), inputs=(0.0,), sigma=np.ones(sigma), rho=np.zeros(rho))


class TestStageCost:
    def test_needs_at_least_one_part(self):
        with pytest.raises(ParameterError):
            StageCost()

    def test_sum_of_parts(self):
        cost = StageCost(
            state_cost=identity(),
            input_cost=power(2.0),
            cross_cost=lambda s, r: s * r,
        )
        assert cost.of_measures(2.0, 3.0) == pytest.approx(2.0 + 9.0 + 6.0)

    def test_negative_cross_rejected(self):
        cost = StageCost(cross_cost=lambda s, r: -1.0)
        with pytest.raises(SimulationError):
            cost.of_measures(1.0, 1.0)

    def test_broadcast_entries_equal_scalar_calls(self):
        cost = StageCost(state_cost=power(1.5), input_cost=linear(0.3), cross_cost=lambda s, r: s * r)
        sigma = np.array([0.0, 1.0 / 3.0, 2.5, 40.0])
        rho = np.array([0.0, 0.7, 1e-3])
        table = cost.of_measures(sigma[:, None], rho[None, :])
        assert table.shape == (4, 3)
        expected = [[cost.of_measures(s, r) for r in rho.tolist()] for s in sigma.tolist()]
        assert table.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
        assert type(cost.of_measures(2.0, 3.0)) is float

    def test_first_bad_entry_is_named(self):
        calls = []

        def cross(s, r):
            calls.append((s, r))
            return -5.0 if s > 1.0 and r > 0.0 else 0.0

        cost = StageCost(state_cost=identity(), cross_cost=cross)
        with pytest.raises(SimulationError, match=r"to -3\.0 at sigma=2\.0, rho=1\.0$"):
            cost.of_measures(np.array([[0.0], [2.0], [3.0]]), np.array([0.0, 1.0]))
        # one call per entry, in C order, with Python floats
        assert calls == [(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (2.0, 1.0), (3.0, 0.0), (3.0, 1.0)]
        assert all(type(v) is float for pair in calls for v in pair)

    def test_json_shape(self):
        cost = StageCost(state_cost=identity(), cross_cost=lambda s, r: s * r)
        obj = cost.to_json()
        assert obj["has_cross"] and obj["input_cost"] is None


class TestTotals:
    def test_partial_sum(self):
        sys = scalar_system()
        traj = rollout(sys, 1.0, [0.0, 0.0, 0.0])
        cost = StageCost(state_cost=identity())
        np.testing.assert_allclose(stage_costs(cost, traj), [1.0, 0.5, 0.25])
        assert total_cost(cost, traj) == pytest.approx(1.75)

    def test_empty_trajectory_has_no_costs(self):
        costs = stage_costs(StageCost(state_cost=identity()), rollout(scalar_system(), 1.0, []))
        assert costs.shape == (0,) and costs.dtype == np.float64
        assert total_cost(StageCost(state_cost=identity()), rollout(scalar_system(), 1.0, [])) == 0.0

    def test_prefix_additivity(self):
        sys = scalar_system()
        controls = [0.3, -0.1, 0.2, 0.05, 0.0, 0.0]
        cost = StageCost(state_cost=identity(), input_cost=identity())
        full = rollout(sys, 1.0, controls)
        head = rollout(sys, 1.0, controls[:3])
        tail = rollout(sys, head.states[-1], controls[3:])
        assert total_cost(cost, full) == pytest.approx(
            total_cost(cost, head) + total_cost(cost, tail)
        )
