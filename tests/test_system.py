import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    total_cost,
    total_cost_limit,
    write_trajectory_csv,
)
from stagecraft.system import _write_csv


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

    def test_replay_matches(self):
        sys = scalar_system()
        traj = rollout(sys, 2.0, [0.1, -0.2, 0.3])
        assert traj.replay(sys)

    def test_replay_detects_tampering(self):
        sys = scalar_system()
        traj = rollout(sys, 2.0, [0.1, -0.2, 0.3])
        fake = Trajectory(states=traj.states[:-1] + (99.0,), inputs=traj.inputs)
        assert not fake.replay(sys)

    def test_explicit_horizon_prefix(self):
        traj = rollout(scalar_system(), 1.0, [0.0, 0.0, 0.0], n=2)
        assert len(traj) == 2

    def test_horizon_beyond_controls_rejected(self):
        with pytest.raises(ParameterError):
            rollout(scalar_system(), 1.0, [0.0], n=5)

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
            Trajectory(states=(1.0, 0.5), inputs=(0.0, 0.0))


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

    def test_evaluate_uses_measures(self):
        sys = scalar_system()
        cost = StageCost(state_cost=identity())
        assert cost.evaluate(sys, -2.0, 0.5) == pytest.approx(2.0)

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
        np.testing.assert_allclose(stage_costs(sys, cost, traj), [1.0, 0.5, 0.25])
        assert total_cost(sys, cost, traj) == pytest.approx(1.75)

    def test_empty_trajectory_has_no_costs(self):
        costs = stage_costs(scalar_system(), StageCost(state_cost=identity()), rollout(scalar_system(), 1.0, []))
        assert costs.shape == (0,) and costs.dtype == np.float64
        assert total_cost(scalar_system(), StageCost(state_cost=identity()), rollout(scalar_system(), 1.0, [])) == 0.0

    def test_prefix_additivity(self):
        sys = scalar_system()
        controls = [0.3, -0.1, 0.2, 0.05, 0.0, 0.0]
        cost = StageCost(state_cost=identity(), input_cost=identity())
        full = rollout(sys, 1.0, controls)
        head = rollout(sys, 1.0, controls[:3])
        tail = rollout(sys, head.states[-1], controls[3:])
        assert total_cost(sys, cost, full) == pytest.approx(
            total_cost(sys, cost, head) + total_cost(sys, cost, tail)
        )

    def test_infinity_proxy_geometric(self):
        sys = scalar_system()
        cost = StageCost(state_cost=power(2.0))
        limit = total_cost_limit(sys, cost, 1.0, [0.0] * 2048)
        assert limit.converged
        assert limit.value == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_infinity_proxy_flags_nonconvergence(self):
        sys = ControlSystem(
            transition=lambda x, u: x,
            state_measure=abs,
            input_measure=abs,
        )
        cost = StageCost(state_cost=identity())
        limit = total_cost_limit(sys, cost, 1.0, [0.0] * 256)
        assert not limit.converged


class TestCsv:
    def test_write_csv_formats_each_type(self):
        buf = io.StringIO(newline="")
        row = (1.5, np.float64(0.1), np.float32(0.1), math.inf, -math.inf, math.nan, -0.0, 1e22,
               7, np.int64(8), "s")
        _write_csv(buf, [("a", "b"), row])
        assert buf.getvalue() == (
            "a,b\r\n1.5,0.10000000000000001,0.10000000149011612,inf,-inf,nan,-0,1e+22,7,8,s\r\n"
        )

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_write_csv_float_is_the_format_spec(self, x):
        buf = io.StringIO(newline="")
        _write_csv(buf, [(x, np.float64(x))])
        assert buf.getvalue() == f"{x:.17g},{x:.17g}\r\n"

    def test_csv_layout_and_crlf(self):
        sys = scalar_system()
        traj = rollout(sys, 1.0, [0.0, 0.0])
        cost = StageCost(state_cost=identity())
        buf = io.StringIO(newline="")
        write_trajectory_csv(sys, cost, traj, buf)
        text = buf.getvalue()
        lines = text.split("\r\n")
        assert lines[0] == "n,sigma,rho,stage_cost,cumulative_cost"
        assert lines[1].startswith("0,1,0,1,1")
        assert text.endswith("\r\n")

    def test_csv_deterministic(self):
        sys = scalar_system()
        traj = rollout(sys, 1.0 / 3.0, [0.1, 0.2])
        cost = StageCost(state_cost=identity())
        outs = []
        for _ in range(2):
            buf = io.StringIO(newline="")
            write_trajectory_csv(sys, cost, traj, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        assert "0.33333333333333331" in outs[0]

    @pytest.mark.parametrize(
        "with_cost, expected",
        [
            (
                True,
                "n,sigma,rho,stage_cost,cumulative_cost\r\n"
                "0,0.33333333333333331,0.10000000000000001,0.22721199449178001,0.22721199449178001\r\n"
                "1,0.26666666666666666,0.69999999999999996,0.3743727411984859,0.60158473569026594\r\n"
                "2,0.56666666666666665,0.25,0.52180926510657444,1.1233940007968404\r\n"
                "3,0.033333333333333326,0.001,0.0063905680992637484,1.1297845688961041\r\n",
            ),
            (
                False,
                "n,sigma,rho,stage_cost,cumulative_cost\r\n"
                "0,0.33333333333333331,0.10000000000000001,0,0\r\n"
                "1,0.26666666666666666,0.69999999999999996,0,0\r\n"
                "2,0.56666666666666665,0.25,0,0\r\n"
                "3,0.033333333333333326,0.001,0,0\r\n",
            ),
        ],
        ids=["cross_term", "no_cost"],
    )
    def test_csv_bytes_pinned(self, with_cost, expected):
        sys = scalar_system()
        traj = rollout(sys, 1.0 / 3.0, [0.1, -0.7, 0.25, 1e-3])
        cost = StageCost(
            state_cost=power(1.5), input_cost=linear(0.3), cross_cost=lambda s, r: s * r / 7.0
        )
        buf = io.StringIO(newline="")
        write_trajectory_csv(sys, cost if with_cost else None, traj, buf)
        assert buf.getvalue() == expected
