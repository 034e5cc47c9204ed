import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagecraft import (
    ChoiceRejectedError,
    InteractionRejectedError,
    InteractionSpec,
    NonContractionError,
    ParameterError,
    SeparableKL,
    TransientData,
    UBgECCert,
    admissible_wrapper,
    admit_interaction,
    build_builtin,
    certify_ucc,
    combine,
    compose,
    const_fn,
    identity,
    inverse_of,
    linear,
    power,
    rollout,
    scale,
    stage_costs,
    synthesize,
    to_ucc_cert,
    transient_split,
    verify,
)
from stagecraft import synthesis
from stagecraft.synthesis import _excursion_count
from support import (
    excursion_count_loop,
    random_sampled,
    random_separable,
    transient_partition,
)


@pytest.fixture
def simple():
    """Energy-budget certificate with identity gauges on the 0.5x system."""
    return build_builtin("scalar_linear", None)


@pytest.fixture
def damped():
    """Unstable plant stabilized by linear feedback, nonzero controls."""
    return build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})


class TestSynthesize:
    def test_identity_case_bound_is_4r(self, simple):
        result = synthesize(simple.ubgec, decay=0.5)
        for r in (0.5, 1.0, 7.0):
            assert result.cost_bound.eval(r) == pytest.approx(4.0 * r, rel=1e-12)

    def test_default_gauges_are_certificate_gauges(self, simple):
        result = synthesize(simple.ubgec, decay=0.5)
        assert result.stage_cost.state_cost.eval(3.0) == pytest.approx(3.0, rel=1e-12)
        assert result.stage_cost.input_cost.eval(3.0) == pytest.approx(3.0, rel=1e-12)

    def test_coefficients_scale_bound(self, simple):
        result = synthesize(simple.ubgec, decay=0.5, state_coeff=2.0, input_coeff=3.0)
        # (2 / 0.5) * r + 3 * 2r
        assert result.cost_bound.eval(1.0) == pytest.approx(10.0, rel=1e-12)

    def test_smaller_candidate_gauge_accepted(self, simple):
        result = synthesize(simple.ubgec, decay=0.5, state_cost=scale(0.5, identity()))
        assert result.stage_cost.state_cost.eval(2.0) == pytest.approx(1.0)
        # the bound depends on the ceiling, not the candidate
        assert result.cost_bound.eval(1.0) == pytest.approx(4.0, rel=1e-12)

    def test_oversized_state_gauge_rejected(self, simple):
        with pytest.raises(ChoiceRejectedError):
            synthesize(simple.ubgec, decay=0.5, state_cost=power(2.0))

    def test_oversized_input_gauge_rejected(self, simple):
        with pytest.raises(ChoiceRejectedError):
            synthesize(simple.ubgec, decay=0.5, input_cost=power(2.0))

    def test_coefficient_loosens_gauge_ceiling(self, simple):
        result = synthesize(
            simple.ubgec, decay=0.5, state_coeff=2.0, state_cost=scale(2.0, identity())
        )
        assert result.stage_cost.state_cost.eval(1.0) == pytest.approx(2.0)

    def test_wrong_certificate_type_rejected(self, simple):
        with pytest.raises(ParameterError):
            synthesize(simple.uvc)

    def test_json_has_provenance(self, simple):
        obj = synthesize(simple.ubgec, decay=0.5).to_json()
        assert obj["provenance"]["decay"] == 0.5
        assert obj["stage_cost"]["has_cross"] is False


class TestCertify:
    def test_truncated_costs_stay_under_bound(self, damped):
        result = synthesize(damped.ubgec, decay=damped.natural_decay)
        report = certify_ucc(result, damped.ubgec, damped.system, damped.samples(16), horizon=128)
        assert report.passed

    def test_zero_start_has_zero_margin(self, simple):
        result = synthesize(simple.ubgec, decay=0.5)
        report = certify_ucc(result, simple.ubgec, simple.system, [0.0], horizon=16)
        assert report.passed
        assert report.worst().margin == 0.0

    def test_shrunken_bound_fails(self, simple):
        import dataclasses

        result = synthesize(simple.ubgec, decay=0.5)
        broken = dataclasses.replace(result, cost_bound=scale(1e-3, result.cost_bound))
        report = certify_ucc(broken, simple.ubgec, simple.system, [1.0, 2.0], horizon=64)
        assert not report.passed

    def test_exact_identity_costs(self, damped):
        # x+ = 0.5x under the gain, sigma_n = 0.5^n x, rho_n = 0.7 * 0.5^n x
        result = synthesize(damped.ubgec, decay=0.5)
        x = 2.0
        ucc = to_ucc_cert(result, damped.ubgec)
        controls = ucc.policy.controls(x, 40)
        traj = rollout(damped.system, x, controls)
        total = float(np.sum(stage_costs(ucc.stage_cost, traj)))
        assert total == pytest.approx(3.4 * x, rel=1e-9)
        assert ucc.cost_bound.eval(x) == pytest.approx(3.4 * x, rel=1e-9)

    def test_forward_invariance_flag_propagates(self, simple):
        result = synthesize(simple.ubgec, decay=0.5)
        assert to_ucc_cert(result, simple.ubgec).forward_invariant is False
        assert to_ucc_cert(result, simple.ubgec, forward_invariant=True).forward_invariant


class TestInteractions:
    def test_product_term_inflates_bound(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(
            cross=lambda s, r: s * r, c_cross=1.0, gain=identity()
        )
        result = admit_interaction(spec, base, damped.ubgec)
        # 3.4r + (1 / (1 - 0.5)) * r * (1.4r) = 3.4r + 2.8r^2
        for r in (0.5, 1.0, 2.0):
            assert result.cost_bound.eval(r) == pytest.approx(
                3.4 * r + 2.8 * r * r, rel=1e-9
            )

    def test_certified_product_interaction(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(cross=lambda s, r: s * r, c_cross=1.0, gain=identity())
        result = admit_interaction(spec, base, damped.ubgec)
        report = certify_ucc(result, damped.ubgec, damped.system, damped.samples(8), horizon=96)
        assert report.passed

    def test_zero_spec_keeps_bound(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(cross=lambda s, r: 0.0)
        result = admit_interaction(spec, base, damped.ubgec)
        for r in (0.5, 1.0, 2.0):
            assert result.cost_bound.eval(r) == pytest.approx(
                base.cost_bound.eval(r), rel=1e-12
            )

    def test_sum_coefficients_inflate_linearly(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(
            cross=lambda s, r: 0.5 * (s + r), c_state=1.0, c_input=1.0
        )
        result = admit_interaction(spec, base, damped.ubgec)
        # ((1+1)/0.5) r + (1+1) * 1.4r = 4r + 2.8r
        assert result.cost_bound.eval(1.0) == pytest.approx(6.8, rel=1e-9)

    def test_undeclared_growth_rejected(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(cross=lambda s, r: s * s, c_state=1.0)
        with pytest.raises(InteractionRejectedError, match="its declared envelope at sigma="):
            admit_interaction(spec, base, damped.ubgec)

    def test_negative_cross_rejected(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(cross=lambda s, r: s - r)
        with pytest.raises(InteractionRejectedError):
            admit_interaction(spec, base, damped.ubgec)

    def test_transient_spec_must_use_split(self, damped):
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(
            cross=lambda s, r: s + r,
            c_state=1.0,
            c_input=1.0,
            transient=TransientData(
                radius=1.0, state_rate=linear(2.0), input_rate=linear(2.0)
            ),
        )
        with pytest.raises(ParameterError):
            admit_interaction(spec, base, damped.ubgec)

    def test_cross_product_needs_gain(self):
        with pytest.raises(ParameterError):
            InteractionSpec(cross=lambda s, r: s * r, c_cross=1.0)


class TestAdmissibleWrapper:
    def test_all_identity_halves(self):
        wrap = admissible_wrapper(identity(), identity(), identity(), identity())
        for s in (0.0, 1.0, 4.0):
            assert wrap.eval(s) == pytest.approx(0.5 * s, abs=1e-12)

    def test_square_energy_takes_minimum(self):
        wrap = admissible_wrapper(identity(), identity(), identity(), power(2.0))
        # min(s/2, (s/2)^2): below 2 the square is smaller
        assert wrap.eval(1.0) == pytest.approx(0.25, rel=1e-9)
        assert wrap.eval(4.0) == pytest.approx(2.0, rel=1e-9)

    def test_wrapped_sum_is_admissible(self, damped):
        decomp = synthesize(damped.ubgec, decay=0.5).decomposition
        wrap = admissible_wrapper(
            identity(), identity(), decomp.outer, damped.ubgec.energy
        )
        base = synthesize(damped.ubgec, decay=0.5)
        spec = InteractionSpec(
            cross=lambda s, r: wrap.eval(s + r), c_state=1.0, c_input=1.0
        )
        result = admit_interaction(spec, base, damped.ubgec)
        report = certify_ucc(result, damped.ubgec, damped.system, damped.samples(8), horizon=96)
        assert report.passed

    def test_wrapper_guarantees_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a1 = power(rng.uniform(0.5, 2.0))
            a2 = linear(rng.uniform(0.2, 4.0))
            outer = power(rng.uniform(0.5, 2.0))
            energy = linear(rng.uniform(0.2, 4.0))
            wrap = admissible_wrapper(a1, a2, outer, energy)
            for r in np.logspace(-3, 3, 13):
                assert wrap.eval(2.0 * a1.eval(r)) <= outer.invert(r) * (1 + 1e-9) + 1e-12
                assert wrap.eval(2.0 * a2.eval(r)) <= energy.eval(r) * (1 + 1e-9) + 1e-12

    def test_rejects_bounded_parts(self):
        with pytest.raises(ParameterError):
            admissible_wrapper(identity(), identity(), identity(), const_fn(1.0))


def all_id_transient_spec():
    return InteractionSpec(
        cross=lambda s, r: s + r + max(s - 1.0, 0.0) * (1.0 + r),
        c_state=1.0,
        c_input=1.0,
        transient=TransientData(
            radius=1.0,
            state_rate=combine(scale(2.0, identity()), power(2.0), "sum"),
            input_rate=combine(identity(), power(2.0), "sum"),
        ),
    )


class TestExcursionCount:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_block_search_is_the_bisection_loop(self, seed, sampled):
        rng = np.random.default_rng(seed)
        beta = random_sampled(rng)[0] if sampled else random_separable(rng)
        r = float(10 ** rng.uniform(-2, 2))
        radius = float(beta.eval(r, 0.0)) * 10 ** rng.uniform(-6, 0.5)
        assert _excursion_count(beta, radius, r) == excursion_count_loop(beta, radius, r)

    # the loop reaches the largest power of two within its cap; so does
    # COUNT_SEARCH_CAP itself, a power of two
    @pytest.mark.parametrize("cap", [1, 2, 64, 128])
    def test_search_cap_is_the_loop_cap(self, monkeypatch, cap):
        monkeypatch.setattr(synthesis, "COUNT_SEARCH_CAP", cap)
        beta = SeparableKL(outer=identity(), decay=0.5, inner=identity())
        # beta(1, n) = 2^-n drops below 2^-k + tiny at step k
        for k in (0, 1, 2, 5, 6, 63, 64, 65, 100, 101, 128, 129):
            radius = 2.0 ** -k * (1.0 + 1e-9)
            try:
                expect = excursion_count_loop(beta, radius, 1.0, cap=cap)
            except NonContractionError:
                with pytest.raises(NonContractionError, match=f"within {cap} steps"):
                    _excursion_count(beta, radius, 1.0)
            else:
                assert _excursion_count(beta, radius, 1.0) == expect == k


class TestTransientSplit:
    def test_excursion_count_matches_decay_bound(self, simple):
        spec = all_id_transient_spec()
        split = transient_split(spec, simple.ubgec, decay=0.5)
        assert split.count(4.0) == 3
        assert split.count(1.0) == 1
        assert split.count(0.5) == 0

    def test_burst_bound_frozen_value(self, simple):
        spec = all_id_transient_spec()
        split = transient_split(spec, simple.ubgec, decay=0.5)
        # 3 excursion steps, each at most (2*4 + 16) + (8 + 64)
        assert split.burst_bound(4.0) == pytest.approx(288.0, rel=1e-9)
        assert split.burst_bound(0.5) == 0.0

    def test_identity_rates_burst_value(self, simple):
        spec = InteractionSpec(
            cross=lambda s, r: min(s, 1.0) + r,
            c_state=1.0,
            c_input=1.0,
            transient=TransientData(
                radius=1.0, state_rate=identity(), input_rate=identity()
            ),
        )
        split = transient_split(spec, simple.ubgec, decay=0.5)
        # 3 * (beta(4,0) + gamma(4)) = 3 * (4 + 8)
        assert split.burst_bound(4.0) == pytest.approx(36.0, rel=1e-9)

    def test_total_dominates_parts_on_positive_radii(self, simple):
        spec = all_id_transient_spec()
        split = transient_split(spec, simple.ubgec, decay=0.5)
        for r in np.logspace(-2, 2, 9):
            joint = split.burst_bound(r) + split.settled_bound.eval(r)
            assert split.total_bound.eval(r) >= joint - 1e-12

    def test_partition_respects_budgets(self, simple):
        spec = all_id_transient_spec()
        split = transient_split(spec, simple.ubgec, decay=0.5)
        for x in (-4.0, 2.0, 4.0, 9.0):
            part = transient_partition(spec, simple.ubgec, simple.system, x, horizon=48)
            assert len(part.transient) <= split.count(abs(x))
            assert part.transient_cost <= split.burst_bound(abs(x)) + 1e-9
            assert part.settled_cost <= split.settled_bound.eval(abs(x)) + 1e-9

    def test_partition_indices_are_a_split(self, simple):
        spec = all_id_transient_spec()
        part = transient_partition(spec, simple.ubgec, simple.system, 4.0, horizon=10)
        assert sorted(part.transient + part.settled) == list(range(10))
        assert part.transient == (0, 1, 2)

    def test_certified_transient_cost(self, simple):
        from stagecraft import StageCost, UCCCert

        spec = all_id_transient_spec()
        bound = transient_split(spec, simple.ubgec, decay=0.5).total_bound
        cert = UCCCert(
            stage_cost=StageCost(cross_cost=spec.cross),
            cost_bound=bound,
            policy=simple.uvc.policy,
        )
        report = verify(cert, simple.system, [0.25, -1.0, 4.0, -16.0, 50.0], horizon=64)
        assert report.passed

    def test_envelope_violation_rejected(self, simple):
        spec = InteractionSpec(
            cross=lambda s, r: s * s + r,
            c_state=1.0,
            c_input=1.0,
            transient=TransientData(
                radius=1.0, state_rate=identity(), input_rate=identity()
            ),
        )
        with pytest.raises(InteractionRejectedError, match="the excursion envelope at sigma="):
            transient_split(spec, simple.ubgec, decay=0.5)

    def test_needs_transient_data(self, simple):
        spec = InteractionSpec(cross=lambda s, r: s + r, c_state=1.0, c_input=1.0)
        with pytest.raises(ParameterError):
            transient_split(spec, simple.ubgec, decay=0.5)


def _weighted(c, f):
    """``c * f``, with a unit weight left unscaled."""
    return f if c == 1.0 else scale(c, f)


def _sum_of_weighted(terms):
    """Reference weighted sum: zero weights dropped, a unit weight left unscaled."""
    live = [(float(c), f) for c, f in terms if c > 0]
    if not live:
        return const_fn(0.0)
    total = _weighted(*live[0])
    for c, f in live[1:]:
        total = combine(total, _weighted(c, f), "sum")
    return total


def _json(fn):
    return json.dumps(fn.to_json(), sort_keys=True)


class TestOneCostBoundFormula:
    """``synthesize``, ``admit_interaction`` and ``transient_split`` each build
    the bound JSON of its own reference formula, written out term by term."""

    MIXES = [(cs, ci, cx) for cs in (0.0, 1.0, 2.5) for ci in (0.0, 1.0, 2.5) for cx in (0.0, 1.5)]

    @pytest.mark.parametrize("decay", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("params", [None, {"a": 1.2, "b": 1.0, "gain": -0.7}])
    def test_bounds_equal_the_separate_formulas(self, params, decay):
        cert = build_builtin("scalar_linear", params).ubgec
        for state_coeff, input_coeff in ((0.5, 1.0), (1.0, 2.5)):
            base = synthesize(cert, decay=decay, state_coeff=state_coeff, input_coeff=input_coeff)
            decomp = base.decomposition
            inner, budget = decomp.inner, cert.energy_budget
            expected = combine(
                _weighted(state_coeff / (1.0 - decay), inner), _weighted(input_coeff, budget), "sum"
            )
            assert _json(base.cost_bound) == _json(expected)
            for c_state, c_input, c_cross in self.MIXES:
                coeffs = dict(c_state=c_state, c_input=c_input, c_cross=c_cross, gain=identity())
                spec = InteractionSpec(cross=lambda s, r: 0.0, **coeffs)
                cross = c_cross and synthesis._cross_product_term(spec, decomp, cert)

                admitted = _sum_of_weighted([
                    ((state_coeff + c_state) / (1.0 - decay), inner),
                    (input_coeff + c_input, budget),
                ])
                if c_cross > 0:
                    admitted = combine(admitted, cross, "sum")
                result = admit_interaction(spec, base, cert)
                assert _json(result.cost_bound) == _json(admitted)

                settled = _sum_of_weighted([(c_state / (1.0 - decay), inner), (c_input, budget)])
                if c_cross > 0:
                    settled = combine(settled, cross, "sum") if c_state or c_input else cross
                gated = InteractionSpec(
                    cross=lambda s, r: 0.0,
                    transient=TransientData(radius=1.0, state_rate=identity(), input_rate=identity()),
                    **coeffs,
                )
                split = transient_split(gated, cert, decay=decay)
                assert _json(split.settled_bound) == _json(settled)
