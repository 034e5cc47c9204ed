"""The bundled benchmark systems and their shipped certificates."""

import numpy as np
import pytest

from stagecraft import (
    BUILTIN_FACTORIES,
    ParameterError,
    build_builtin,
    verify,
)
from support import assert_prefix_closed

ALL_NAMES = sorted(BUILTIN_FACTORIES)


class TestFactoryLookup:
    def test_known_names(self):
        assert ALL_NAMES == [
            "finite_chain",
            "saturating_scalar",
            "scalar_linear",
            "two_state_linear",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown builtin"):
            build_builtin("pendulum")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError, match="bad parameters"):
            build_builtin("scalar_linear", {"stiffness": 3.0})

    def test_parameters_forwarded(self):
        builtin = build_builtin("finite_chain", {"length": 4})
        assert builtin.finite.num_states == 4


class TestShippedCertificates:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_state_and_control_bounds_verify(self, name):
        builtin = build_builtin(name)
        report = verify(builtin.uvc, builtin.system, builtin.samples(12), horizon=48)
        assert report.passed, report.worst()

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_energy_budget_verifies(self, name):
        builtin = build_builtin(name)
        report = verify(builtin.ubgec, builtin.system, builtin.samples(12), horizon=48)
        assert report.passed, report.worst()

    def test_chain_bound_is_tight_at_step_zero(self):
        chain = build_builtin("finite_chain")
        report = verify(chain.uvc, chain.system, [9], horizon=9)
        first = [row for row in report.rows if row.inequality == "state_bound"][0]
        assert first.n == 0
        assert first.margin == 0.0

    def test_policy_property_mirrors_the_state_certificate(self):
        builtin = build_builtin("saturating_scalar")
        assert builtin.policy is builtin.uvc.policy


class TestPoliciesArePrefixClosed:
    @pytest.mark.parametrize(
        "name, params",
        [(name, None) for name in ALL_NAMES]
        + [("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})],
    )
    def test_controls_are_the_first_of_longer_requests(self, name, params):
        builtin = build_builtin(name, params)
        length = builtin.policy.length
        counts = sorted({0, 1, 2, length // 2, max(length - 1, 0), length, length + 1, length + 9})
        for x in builtin.samples(6):
            assert_prefix_closed(builtin.policy, x, counts)


class TestScalarLinear:
    def test_open_loop_needs_contraction(self):
        with pytest.raises(ParameterError, match="does not contract"):
            build_builtin("scalar_linear", {"a": 1.5})

    def test_closed_loop_needs_contraction(self):
        with pytest.raises(ParameterError, match="does not contract"):
            build_builtin("scalar_linear", {"a": 1.5, "b": 1.0, "gain": 0.0})

    def test_gain_policy_replays_exactly(self):
        builtin = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
        sys = builtin.system
        x = 3.0
        for n, u in enumerate(builtin.policy.controls(3.0, 40)):
            assert u == -0.7 * x
            x = sys.transition(x, u)
        assert abs(x) <= 0.5 ** 40 * 3.0 * (1.0 + 1e-12)

    def test_natural_decay_reports_the_closed_loop(self):
        builtin = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
        assert builtin.natural_decay == pytest.approx(0.5)

    def test_samples_alternate_sign(self):
        samples = build_builtin("scalar_linear").samples(8)
        assert len(samples) == 8
        signs = [np.sign(s) for s in samples]
        assert signs == [1, -1] * 4


class TestTwoState:
    def test_samples_are_plane_vectors(self):
        samples = build_builtin("two_state_linear").samples(6)
        assert len(samples) == 6
        assert all(np.asarray(s).shape == (2,) for s in samples)

    def test_growth_is_the_per_power_loop(self):
        A = np.array([[0.5, 0.25], [0.0, 0.5]])
        growth, P = 1.0, np.eye(2)
        for n in range(1, 61):
            P = P @ A
            growth = max(growth, float(np.linalg.norm(P, 2)) / 0.7 ** n)
        inner = build_builtin("two_state_linear").uvc.state_bound.inner
        assert inner.eval(1.0) == growth

    def test_declared_rate_absorbs_the_jordan_bump(self):
        builtin = build_builtin("two_state_linear")
        sys = builtin.system
        assert builtin.uvc.state_bound.eval(1.0, 0.0) == 1.0
        worst = 0.0
        for x0 in builtin.samples(4):
            x = x0
            for n in range(1, 30):
                x = sys.transition(x, 0.0)
                worst = max(worst, sys.sigma(x) / (sys.sigma(x0) * builtin.natural_decay ** n))
        assert worst <= 1.0


class TestFiniteChain:
    def test_finite_twin_only_on_the_chain(self):
        assert build_builtin("finite_chain").finite is not None
        assert build_builtin("scalar_linear").finite is None

    def test_samples_stay_in_range(self):
        samples = build_builtin("finite_chain").samples(25)
        assert len(samples) == 25
        assert all(0 <= s < 10 for s in samples)
        assert sorted(set(samples)) == list(range(10))

    def test_needs_two_states(self):
        with pytest.raises(ParameterError, match="at least 2"):
            build_builtin("finite_chain", {"length": 1})

    def test_energy_budget_is_exact(self):
        chain = build_builtin("finite_chain")
        assert chain.ubgec.energy.eval(1.0) == 1.0
        assert chain.ubgec.energy_budget.eval(9.0) == 9.0


class TestSaturatingScalar:
    def test_deadbeat_policy_lands_on_zero(self):
        builtin = build_builtin("saturating_scalar")
        sys = builtin.system
        for x0 in (0.3, -4.0, 100.0):
            u = builtin.policy.controls(x0, 1)[0]
            assert sys.transition(x0, u) == 0.0

    def test_drift_is_globally_small(self):
        builtin = build_builtin("saturating_scalar")
        sys = builtin.system
        for x0 in np.linspace(-50.0, 50.0, 101):
            assert abs(sys.transition(x0, 0.0)) <= 0.5 + 1e-12
