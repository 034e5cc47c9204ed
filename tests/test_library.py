"""The bundled benchmark systems and their shipped certificates."""

import math

import numpy as np
import pytest

from stagecraft import (
    BUILTIN_FACTORIES,
    FiniteSystem,
    ParameterError,
    build_builtin,
    uvc_to_ubgec,
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


SEPARABLE = [
    ("scalar_linear", None),
    ("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7}),
    ("two_state_linear", None),
    ("saturating_scalar", None),
]


class TestSeparableBuiltins:
    """A separable plant states its rate once, in its bounds."""

    @pytest.mark.parametrize("name, params", SEPARABLE)
    def test_natural_decay_and_energy_certificate_follow_the_state_bound(self, name, params):
        builtin = build_builtin(name, params)
        assert builtin.natural_decay == builtin.uvc.state_bound.decay
        expected = uvc_to_ubgec(builtin.uvc, decay=builtin.natural_decay)
        assert builtin.ubgec.to_json() == expected.to_json()

    @pytest.mark.parametrize("key", ["a", "b", "gain"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scalar_linear_rejects_non_finite_parameters(self, key, value):
        params = {"a": 1.2, "b": 1.0, "gain": -0.7, key: value}
        with pytest.raises(ParameterError, match=f"'{key}' must be finite"):
            build_builtin("scalar_linear", params)


class TestPoliciesArePrefixClosed:
    @pytest.mark.parametrize(
        "name, params",
        [(name, None) for name in ALL_NAMES]
        + [("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})],
    )
    def test_controls_are_the_first_of_longer_requests(self, name, params):
        builtin = build_builtin(name, params)
        for x in builtin.samples(6):
            assert_prefix_closed(builtin.uvc.policy, x, [0, 1, 2, 255, 256, 511, 512, 513, 2600])


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
        for n, u in enumerate(builtin.uvc.policy.controls(3.0, 40)):
            assert u == -0.7 * x
            x = sys.transition(x, u)
        assert abs(x) <= 0.5 ** 40 * 3.0 * (1.0 + 1e-12)

    def test_gain_certificate_holds_past_step_512(self):
        # the open loop (1.2) diverges, so the gain must keep acting to the horizon
        builtin = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
        report = verify(builtin.ubgec, builtin.system, builtin.samples(16), horizon=2600)
        assert report.passed

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
        # the envelope constant 1 bounds every ratio of a matrix-power norm
        # to the declared rate, and the norms follow the docstring's closed form
        inner = build_builtin("two_state_linear").uvc.state_bound.inner
        assert inner.eval(1.0) == 1.0
        A = np.array([[0.5, 0.25], [0.0, 0.5]])
        P = np.eye(2)
        for n in range(1, 1001):
            P = P @ A
            norm = float(np.linalg.norm(P, 2))
            assert norm == pytest.approx(0.5 ** n * (n / 2 + math.sqrt(n * n / 4 + 4)) / 2, rel=1e-12)
            assert norm / 0.7 ** n <= 1.0

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
            u = builtin.uvc.policy.controls(x0, 1)[0]
            assert sys.transition(x0, u) == 0.0

    def test_drift_is_globally_small(self):
        builtin = build_builtin("saturating_scalar")
        sys = builtin.system
        for x0 in np.linspace(-50.0, 50.0, 101):
            assert abs(sys.transition(x0, 0.0)) <= 0.5 + 1e-12


class TestVectorizedBuiltins:
    """Each declared builtin acts on a stack of samples row by row, bit for bit."""

    @pytest.mark.parametrize("name", ["scalar_linear", "two_state_linear", "saturating_scalar"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_are_single_calls(self, name, seed):
        system = build_builtin(name).system
        assert system.vectorized
        rng = np.random.default_rng(seed)
        shape = (2000, 2) if name == "two_state_linear" else (2000,)
        states = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, (2000,) + shape[1:2])
        inputs = rng.standard_normal(2000) * 10.0 ** rng.uniform(-3.0, 3.0, 2000)
        stepped = system.transition(states, inputs)
        one = [system.transition(x, u) for x, u in zip(states, inputs.tolist())]
        assert np.array_equal(stepped.view(np.uint64), np.array(one).view(np.uint64))
        measured = np.asarray(system.state_measure(states), dtype=float)
        assert measured.tolist() == [system.sigma(x) for x in states]
        assert system.input_measure(inputs).tolist() == [system.rho(u) for u in inputs.tolist()]
        # the two-state plant keeps its textbook forms on one state
        if name == "two_state_linear":
            A, B = np.array([[0.5, 0.25], [0.0, 0.5]]), np.array([0.0, 1.0])
            textbook = [A @ x + B * u for x, u in zip(states, inputs.tolist())]
            assert np.array_equal(np.array(one).view(np.uint64), np.array(textbook).view(np.uint64))
            assert measured.tolist() == [float(np.linalg.norm(x)) for x in states]

    def test_the_chain_steps_sample_by_sample(self):
        assert not build_builtin("finite_chain").system.vectorized


def _drawn_by_the_cli(kind, count, seed, states):
    """The random samples ``cli`` drew itself before each system drew its own, written out."""
    rng = np.random.default_rng(seed)
    if kind == "finite":
        return [int(v) for v in rng.integers(0, states, size=count)]
    if kind == "two_state_linear":
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
        return [m * np.array([np.cos(a), np.sin(a)]) for a, m in zip(angles, mags)]
    signs = rng.choice([-1.0, 1.0], size=count)
    mags = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
    return [float(s * m) for s, m in zip(signs, mags)]


def _spread_before(kind, count, states):
    """The fixed samples each system gave before it took an ``rng``, written out."""
    magnitudes = np.logspace(-2.0, 2.0, count)
    if kind == "finite":
        return [int(i % states) for i in range(count)]
    if kind == "two_state_linear":
        directions = [
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([1.0, 1.0]) / np.sqrt(2.0),
            np.array([-1.0, 1.0]) / np.sqrt(2.0),
        ]
        return [directions[i % len(directions)] * float(m) for i, m in enumerate(magnitudes)]
    return [float(m) if i % 2 == 0 else -float(m) for i, m in enumerate(magnitudes)]


def _bits(samples):
    """Each sample's type and exact bytes."""
    return [(type(x), np.asarray(x).tobytes()) for x in samples]


def _samplers():
    """(name, kind, state count, sampling rule) of each builtin and of a 7-state FiniteSystem."""
    yield "finite_chain", "finite", 10, build_builtin("finite_chain").samples
    seven = FiniteSystem(successor=np.zeros((7, 1), dtype=int),
                         state_measure=np.arange(7.0), input_measure=np.zeros(1))
    yield "FiniteSystem", "finite", 7, seven.samples
    for name in ("scalar_linear", "saturating_scalar", "two_state_linear"):
        yield name, name, None, build_builtin(name).samples


class TestSamplingRules:
    """Each system draws its own samples, bit for bit as before they moved out of ``cli``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_random_draws_equal_the_cli_formulas(self, seed, count):
        for name, kind, states, samples in _samplers():
            drawn = samples(count, np.random.default_rng(seed))
            assert _bits(drawn) == _bits(_drawn_by_the_cli(kind, count, seed, states)), name

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 16])
    def test_fixed_spread_is_unchanged(self, count):
        for name, kind, states, samples in _samplers():
            assert _bits(samples(count)) == _bits(_spread_before(kind, count, states)), name
