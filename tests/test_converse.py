"""Settling schedules, stitched controls, and the rebuilt energy certificate."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stagecraft import (
    BudgetError,
    CertificateInvalidError,
    ControlSystem,
    ParameterError,
    PolicyOracle,
    SampledKL,
    SettlingSchedule,
    SimulationError,
    StageCost,
    UBgECCert,
    UCCCert,
    assemble_state_bound,
    build_builtin,
    converse_pipeline,
    excursion_bound,
    extract_ucc,
    identity,
    linear,
    power,
    relay_bound,
    rollout,
    settle_horizon,
    settling_schedule,
    stitch_controls,
    synthesize,
    table_fn,
    to_ucc_cert,
    total_bound,
    value_iterate,
    verify,
)
from stagecraft import cli, cmpfn
from stagecraft import converse as converse_module
from stagecraft.cli import main
from stagecraft.converse import _STEP_CAP, _bounds, _schedules, _settle
from support import assert_prefix_closed, stitched_policy, total_cost


def _scan(ucc, sys, x, eps, length, radius=None):
    """Controls, switch step and end state of one stitch from ``x`` by the
    converse's private scan, cut to ``length`` controls; the settle horizon
    is that of ``radius``, by default the measure of ``x``."""
    radius = sys.sigma(x) if radius is None else radius
    threshold, horizon = _settle(ucc, _bounds(ucc, 0.5), 0.5, radius, eps)
    return converse_module._scan(ucc, sys, x, threshold, horizon, length)


# the README's chain example with three samples: states 0, 1 and 2, so radii 1 and 2
CHAIN_CONVERSE = {
    "system": {"builtin": "finite_chain", "params": {"length": 10}},
    "certificate": {"kind": "oracle"},
    "samples": {"count": 3},
    "converse": {"depth": 8, "nu_depth": 12},
}


def _chain_converse(tmp_path, monkeypatch):
    """``converse``'s output directory on the chain, and the result it wrote."""
    results = []
    monkeypatch.setattr(cli, "converse_pipeline",
                        lambda *args, **kwargs: results.append(converse_pipeline(*args, **kwargs))
                        or results[-1])
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(CHAIN_CONVERSE), encoding="utf-8")
    assert main(["converse", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out", results[0]


def _dummy_policy():
    return PolicyOracle(prefix=lambda x, n: [], ref="unused")


def doubling_cert():
    """Identity state gauge and cost bound 2r: everything has a closed form."""
    cost = StageCost(state_cost=identity(), input_cost=identity())
    return UCCCert(stage_cost=cost, cost_bound=linear(2.0), policy=_dummy_policy())


def underflow_cert():
    """Cost bound r**400: it underflows to 0 at radius 0.1, and from radius 2 round 1
    needs more steps than the cap."""
    return UCCCert(
        stage_cost=StageCost(state_cost=identity(), input_cost=identity()),
        cost_bound=power(400.0),
        policy=_dummy_policy(),
    )


def halving_fixture():
    """Unit-drift scalar plant closed by u = -x/2, costed by |x| + |u|.

    The loop halves the state each step and every float operation in the
    rollout is exact, so the infinite-horizon cost is exactly 3|x| and a
    bound of 3r verifies with the default slack.
    """
    sys = ControlSystem(
        transition=lambda x, u: x + u,
        state_measure=abs,
        input_measure=abs,
    )

    def prefix(x, n):
        controls = []
        state = float(x)
        for _ in range(n):
            u = -0.5 * state
            controls.append(u)
            state = state + u
        return controls

    policy = PolicyOracle(prefix=prefix, ref="halve")
    cost = StageCost(state_cost=identity(), input_cost=identity())
    ucc = UCCCert(
        stage_cost=cost,
        cost_bound=linear(3.0),
        policy=policy,
        forward_invariant=True,
    )
    return sys, ucc


def stepping_fixture():
    """Unit-drift scalar plant under a certified policy with a memory.

    From a measure above 0.01 the policy jumps to 1/198 of the state;
    from below it shrinks the state by sqrt(2) once.  Either way it
    then holds, so a restart changes the controls that follow.  With
    the bound 6r on measures up to 1/3, round ``m`` of a stitched
    prefix scans for ``r / (84 * 2**m)``: round 1 dips after the jump
    and every later round one step after its start, so the controls
    depend on each round's threshold and on how many rounds run.
    Over 24 steps a sample from above 0.01 costs about 2.1r.
    """
    sys, base = halving_fixture()

    def prefix(x, n):
        x = float(x)
        return ([x / 198.0 - x] if abs(x) > 0.01 else [x / np.sqrt(2.0) - x])[:n]

    ucc = UCCCert(
        stage_cost=base.stage_cost,
        cost_bound=linear(6.0),
        policy=PolicyOracle(prefix=prefix, ref="stepping"),
        forward_invariant=True,
    )
    return sys, ucc


class TestDerivedBounds:
    def test_excursion_inverts_the_state_gauge(self):
        exc = excursion_bound(doubling_cert())
        assert exc.eval(1.0) == 2.0
        assert exc.eval(3.0) == 6.0

    def test_excursion_with_power_gauge_cancels(self):
        cost = StageCost(state_cost=power(2.0), input_cost=identity())
        ucc = UCCCert(stage_cost=cost, cost_bound=power(2.0), policy=_dummy_policy())
        exc = excursion_bound(ucc)
        assert exc.eval(5.0) == pytest.approx(5.0, rel=1e-12)

    def test_relay_pays_one_handoff(self):
        assert relay_bound(doubling_cert()).eval(1.0) == 6.0

    def test_total_pays_the_final_round_too(self):
        assert total_bound(doubling_cert()).eval(1.0) == 8.0

    def test_cross_term_rejected(self):
        cost = StageCost(
            state_cost=identity(),
            input_cost=identity(),
            cross_cost=lambda s, r: s * r,
        )
        ucc = UCCCert(stage_cost=cost, cost_bound=linear(2.0), policy=_dummy_policy())
        with pytest.raises(ParameterError, match="cross"):
            excursion_bound(ucc)

    def test_missing_input_gauge_rejected(self):
        cost = StageCost(state_cost=identity())
        ucc = UCCCert(stage_cost=cost, cost_bound=linear(2.0), policy=_dummy_policy())
        with pytest.raises(ParameterError, match="input gauge"):
            excursion_bound(ucc)

    def test_weak_state_gauge_rejected(self):
        cost = StageCost(input_cost=identity())
        ucc = UCCCert(stage_cost=cost, cost_bound=linear(2.0), policy=_dummy_policy())
        with pytest.raises(ParameterError, match="state gauge"):
            excursion_bound(ucc)

    def test_non_certificate_rejected(self):
        with pytest.raises(ParameterError, match="total-cost"):
            excursion_bound("not a certificate")


class TestSettleHorizon:
    def test_budget_of_forty_floor_costs_gives_39(self):
        assert settle_horizon(doubling_cert(), 1.0, 0.2) == 39

    def test_near_integer_ratio_snaps_down(self):
        # nudging the target pushes the cost ratio to 40*(1+1e-12); without
        # the snap the ceiling would land on 40
        assert settle_horizon(doubling_cert(), 1.0, 0.2 / (1.0 + 1e-12)) == 39

    def test_never_below_one_step(self):
        assert settle_horizon(doubling_cert(), 1.0, 100.0) == 1
        assert settle_horizon(doubling_cert(), 0.0, 0.5) == 1

    def test_zero_floor_cost_bounds_only_a_zero_top(self):
        # a threshold whose stage cost is zero bounds no step count, unless nothing is left to pay
        assert converse_module._steps(1.0, 0.5, 0.1, 0.0, 0.0) == 1
        with pytest.raises(BudgetError, match="threshold 0.1 carries no stage cost"):
            converse_module._steps(1.0, 0.5, 0.1, 0.0, 1.0)

    def test_step_cap_enforced(self):
        # the cost ratio is 8e9, above the cap of 1e9 steps
        with pytest.raises(BudgetError, match="cap"):
            settle_horizon(doubling_cert(), 1.0, 1e-9)

    def test_parameter_validation(self):
        cert = doubling_cert()
        with pytest.raises(ParameterError, match="radius"):
            settle_horizon(cert, -1.0, 0.5)
        with pytest.raises(ParameterError, match="target"):
            settle_horizon(cert, 1.0, 0.0)
        with pytest.raises(ParameterError, match="eps_tilde_factor"):
            settle_horizon(cert, 1.0, 0.5, eps_tilde_factor=1.0)
        with pytest.raises(ParameterError, match="eps_tilde_factor"):
            settle_horizon(cert, 1.0, 0.5, eps_tilde_factor=0.0)


class TestSettlingSchedule:
    def test_identity_case_closed_forms(self):
        schedule = settling_schedule(doubling_cert(), 1.0, depth=3)
        assert schedule.radius == 1.0
        assert schedule.depth == 3
        assert schedule.eps_levels == (1.0, 0.5, 1.0 / 3.0)
        for target, expected in zip(schedule.eps_targets, (1 / 6, 1 / 12, 1 / 24)):
            assert target == pytest.approx(expected, rel=1e-9)
        assert schedule.round_horizons == (47, 95, 191)
        assert schedule.cum_horizons == (47, 142, 333)

    def test_targets_shrink_and_horizons_accumulate(self):
        schedule = settling_schedule(doubling_cert(), 4.0, depth=5)
        assert all(b < a for a, b in zip(schedule.eps_targets, schedule.eps_targets[1:]))
        assert all(b > a for a, b in zip(schedule.cum_horizons, schedule.cum_horizons[1:]))
        assert schedule.cum_horizons == tuple(np.cumsum(schedule.round_horizons))

    def test_radius_and_depth_validation(self):
        with pytest.raises(ParameterError, match="radius"):
            settling_schedule(doubling_cert(), 0.0)
        with pytest.raises(ParameterError, match="depth"):
            settling_schedule(doubling_cert(), 1.0, depth=0)

    def test_truncates_at_last_computable_round(self):
        # each round doubles the horizon, so round 26 would pass the cap of 1e9 steps
        schedule = settling_schedule(doubling_cert(), 1.0, depth=40)
        assert schedule.depth == 25
        assert schedule.round_horizons[:3] == (47, 95, 191)
        assert schedule.eps_levels == tuple(1.0 / m for m in range(1, 26))

    def test_first_round_over_cap_raises(self):
        # round 1 from radius 1e8 needs about 4.8e9 steps
        with pytest.raises(BudgetError, match="above the cap"):
            settling_schedule(doubling_cert(), 1e8, depth=4)

    def test_degenerate_first_target_raises(self):
        # the cost bound r**400 underflows to 0 at radius 0.1, so every budget share does too
        with pytest.raises(BudgetError, match=r"^round 1 target degenerated to 0\.0$"):
            settling_schedule(underflow_cert(), 0.1, depth=3)

    def test_rounds_must_agree(self):
        with pytest.raises(ParameterError, match="3 round horizons need 3 targets"):
            SettlingSchedule(radius=1.0, eps_targets=(0.5,), round_horizons=(3, 4, 5))
        with pytest.raises(ParameterError, match="0 or 2 thresholds, got 2, 1"):
            SettlingSchedule(radius=1.0, eps_targets=(0.5, 0.25), round_horizons=(3, 4),
                             thresholds=(0.1,))
        full = SettlingSchedule(radius=1.0, eps_targets=(0.5, 0.25), round_horizons=(3, 4),
                                thresholds=(0.1, 0.05))
        assert full.cum_horizons == (3, 7)


class TestScheduleDepth:
    """The stitched policy reuses deeper schedules; that rests on this prefix property."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["doubling", "halving"]),
        st.floats(0.01, 100.0),
        st.integers(1, 30),
        st.integers(0, 6),
    )
    # step-cap truncation: the deep schedule stops after round 25, the shallow one at 24 or 25
    @example("doubling", 1.0, 24, 6)
    @example("doubling", 1.0, 30, 0)
    def test_shallow_schedule_is_the_first_rounds_of_a_deep_one(self, fixture, radius, depth, extra):
        ucc = doubling_cert() if fixture == "doubling" else halving_fixture()[1]
        deep_depth = depth + extra
        try:
            deep = settling_schedule(ucc, radius, depth=deep_depth)
        except BudgetError:
            with pytest.raises(BudgetError):
                settling_schedule(ucc, radius, depth=depth)
            return
        shallow = settling_schedule(ucc, radius, depth=depth)
        rounds = min(depth, deep.depth)
        assert shallow.depth == rounds
        assert shallow.radius == deep.radius
        for field in ("eps_levels", "eps_targets", "round_horizons", "cum_horizons"):
            assert getattr(shallow, field) == getattr(deep, field)[:rounds]


class TestNuCurve:
    """The settling-time curve nu of a schedule: its count, value and inverse."""

    def curve(self):
        return SettlingSchedule(
            radius=1.0,
            eps_targets=(1.0 / 6.0, 1.0 / 12.0, 1.0 / 24.0),
            round_horizons=(47, 95, 191),
        )

    def test_count_picks_first_level_inside_target(self):
        curve = self.curve()
        assert curve.count(2.0) == 47
        assert curve.count(1.0) == 142
        assert curve.count(0.75) == 142
        assert curve.count(0.4) == 333

    def test_count_matches_a_linear_scan(self):
        rng = np.random.default_rng(3)
        levels = tuple(1.0 / m for m in range(1, 41))
        curve = SettlingSchedule(
            radius=1.0,
            eps_targets=levels,
            round_horizons=tuple(rng.integers(1, 100, size=40).tolist()),
        )
        assert curve.eps_levels == levels
        for eps in rng.uniform(levels[-1], 12.0, size=500).tolist() + list(levels[:-1]):
            first_inside = next(i for i, level in enumerate(levels) if level < eps)
            assert curve.count(eps) == curve.cum_horizons[first_inside]

    def test_count_below_floor_rejected(self):
        with pytest.raises(ParameterError, match="floor"):
            self.curve().count(1.0 / 3.0)

    def test_value_closed_form_above_two(self):
        curve = self.curve()
        assert curve.value(2.0) == pytest.approx(47.5, rel=1e-12)
        assert curve.value(4.0) == pytest.approx(47.25, rel=1e-12)
        assert curve.value(10.0) == pytest.approx(47.1, rel=1e-12)

    def test_value_window_cannot_dip_below_floor(self):
        with pytest.raises(ParameterError, match="window"):
            self.curve().value(2.0 / 3.0)

    def test_value_strictly_decreasing(self):
        curve = self.curve()
        sweep = np.geomspace(0.71, 4.0, 12)
        vals = [curve.value(e) for e in sweep]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_inverse_regions(self):
        curve = self.curve()
        assert curve.inverse(40.0) is None
        assert curve.inverse(47.0) is None
        assert curve.inverse(47.25) == pytest.approx(4.0, rel=1e-12)
        assert curve.inverse(47.5) == pytest.approx(2.0, rel=1e-12)
        assert curve.inverse(1e9) is None

    def test_inverse_round_trip(self):
        curve = self.curve()
        for eps in np.linspace(0.72, 1.9, 7):
            steps = curve.value(float(eps))
            back = curve.inverse(steps)
            assert back == pytest.approx(eps, rel=1e-8)

    def test_floor_property(self):
        assert self.curve().floor == 1.0 / 3.0


class TestStitchControls:
    def test_switches_at_first_dip(self):
        sys, ucc = halving_fixture()
        res = stitch_controls(ucc, sys, 1.0, eps=0.2)
        assert res.threshold == pytest.approx(0.1 / 3.0, rel=1e-12)
        assert res.horizon == 89
        assert res.switch_step == 5
        assert len(res.controls) == 89
        assert res.bound == 12.0
        cost = total_cost(ucc.stage_cost, rollout(sys, 1.0, res.controls))
        assert cost == pytest.approx(3.0, rel=1e-9)
        assert cost <= res.bound

    def test_default_length_is_the_horizon_under_a_greedy_policy(self):
        ucc, sys, _, _, _ = _chain_case()
        greedy = ucc.policy

        def prefix(x, n):
            # the greedy policy never ends, so a request past the horizon has no bound
            if n > 10 ** 6:
                raise AssertionError(f"greedy policy asked for {n} controls")
            return greedy.prefix(x, n)

        ucc = dataclasses.replace(ucc, policy=dataclasses.replace(greedy, prefix=prefix))
        res = stitch_controls(ucc, sys, 5, eps=0.5)
        assert res.horizon == 359
        assert len(res.controls) == res.horizon

    def test_start_already_below_threshold(self):
        sys, ucc = halving_fixture()
        res = stitch_controls(ucc, sys, 0.01, eps=0.2, radius=1.0)
        assert res.switch_step == 0

    def test_radius_below_start_rejected(self):
        sys, ucc = halving_fixture()
        with pytest.raises(ParameterError, match="below the sample"):
            stitch_controls(ucc, sys, 1.0, eps=0.2, radius=0.5)

    def test_truncated_scan_is_not_an_error(self):
        sys, ucc = halving_fixture()
        controls, switch, _ = _scan(ucc, sys, 1.0, eps=0.2, length=3)
        assert switch is None
        assert len(controls) == 3

    def test_zero_length_prefix(self):
        sys, ucc = halving_fixture()
        controls, _, _ = _scan(ucc, sys, 1.0, eps=0.2, length=0)
        assert controls == []

    def test_inconsistent_cost_accounting_detected(self):
        frozen = ControlSystem(
            transition=lambda x, u: x,
            state_measure=abs,
            input_measure=abs,
        )
        cost = StageCost(state_cost=identity(), input_cost=identity())
        ucc = UCCCert(
            stage_cost=cost,
            cost_bound=linear(3.0),
            policy=PolicyOracle(prefix=lambda x, n: []),
            forward_invariant=True,
        )
        with pytest.raises(CertificateInvalidError, match="cost bound cannot hold"):
            stitch_controls(ucc, frozen, 1.0, eps=0.2)


class TestStitchedPolicy:
    def test_prefix_capped_at_length(self):
        sys, ucc = halving_fixture()
        pol = stitched_policy(ucc, sys, depth=3)
        controls = pol.controls(1.0, 40)
        assert len(controls) == 40
        traj = rollout(sys, 1.0, controls)
        assert sys.sigma(traj.states[-1]) == pytest.approx(0.5 ** 40, rel=1e-12)

    def test_cost_stays_under_total_bound(self):
        sys, ucc = halving_fixture()
        pol = stitched_policy(ucc, sys, depth=3)
        traj = rollout(sys, 1.0, pol.controls(1.0, 40))
        assert total_cost(ucc.stage_cost, traj) <= total_bound(ucc).eval(1.0)

    def test_zero_measure_start_uses_base_policy(self):
        sys, ucc = halving_fixture()
        pol = stitched_policy(ucc, sys, depth=2)
        assert list(pol.controls(0.0, 10)) == [0.0] * 10

    def test_stalled_rollout_still_flags_the_certificate(self):
        frozen = ControlSystem(
            transition=lambda x, u: x,
            state_measure=abs,
            input_measure=abs,
        )
        cost = StageCost(state_cost=identity(), input_cost=identity())
        ucc = UCCCert(
            stage_cost=cost,
            cost_bound=linear(3.0),
            policy=PolicyOracle(prefix=lambda x, n: []),
            forward_invariant=True,
        )
        # the first round's horizon (215 steps) fits in a request for 256
        # controls, so the scan runs to its end without a dip
        pol = stitched_policy(ucc, frozen, depth=2)
        with pytest.raises(CertificateInvalidError, match="cost bound cannot hold"):
            pol.controls(1.0, 256)
        # only a round whose whole window lies inside the request is
        # checked: 214 controls end short of
        # the window and come back, 215 hold it
        assert pol.controls(1.0, 214) == [0.0] * 214
        with pytest.raises(CertificateInvalidError, match="within 215 steps"):
            pol.controls(1.0, 215)

    def test_non_finite_state_after_the_switch_raises(self):
        sys, ucc = halving_fixture()

        def prefix(x, n):
            # halve for 20 steps, then blow up: the scan dips below the
            # threshold first, the rest of the block overflows
            state, controls = float(x), []
            for _ in range(20):
                controls.append(-0.5 * state)
                state *= 0.5
            return (controls + [1e308] * 236)[:n]

        ucc = UCCCert(
            stage_cost=ucc.stage_cost,
            cost_bound=ucc.cost_bound,
            policy=PolicyOracle(prefix=prefix),
            forward_invariant=True,
        )
        # one round, so no later state-measure call meets the overflow first
        pol = stitched_policy(ucc, sys, depth=1)
        with pytest.raises(SimulationError):
            pol.controls(1.0, 256)


class TestScanWalk:
    def test_non_finite_state_before_the_dip_raises_with_its_step(self):
        sys, ucc = halving_fixture()
        ucc = UCCCert(
            stage_cost=ucc.stage_cost,
            cost_bound=ucc.cost_bound,
            # 1 + 1e308 is finite, one more push overflows: no dip comes first
            policy=PolicyOracle(prefix=lambda x, n: [1e308] * n),
            forward_invariant=True,
        )
        pol = stitched_policy(ucc, sys, depth=1)
        with pytest.raises(SimulationError, match="non-finite after applying input 1") as err:
            pol.controls(1.0, 256)
        assert err.value.step == 1


def _control_bits(controls):
    return np.asarray(controls, dtype=float).view(np.uint64)


def _chain_case():
    chain = build_builtin("finite_chain")
    cost = StageCost(state_cost=identity(), input_cost=identity())
    ucc = extract_ucc(value_iterate(chain.finite, cost), chain.finite, margin=1.5)
    # 2 and 9 are not sample measures
    return ucc, chain.system, [1, 3, 5, 0], [1, 3, 5, 0, 2, 9], 256


def _halving_case():
    sys, ucc = halving_fixture()
    return ucc, sys, [1.0], [1.0, -2.0], 2048


def _stepping_case():
    sys, ucc = stepping_fixture()
    # rounds of 1007, 2015, 4031 and 8063 steps, then a fifth one;
    # 0.25 is not a sample measure
    return ucc, sys, [0.1, -0.3, 0.2], [0.1, -0.3, 0.2, 0.25, 0.0], 16384


def _synthesized_case():
    builtin = build_builtin("scalar_linear")
    ucc = to_ucc_cert(synthesize(builtin.ubgec, decay=0.5), builtin.ubgec, forward_invariant=True)
    samples = builtin.samples(2)
    starts = samples + [1.5 * samples[0], -0.3 * samples[1]]
    return ucc, builtin.system, samples, starts, 256


def _stitched_prefix(ucc, sys, x, depth, length):
    """The stitched prefix built round by round, one `_scan` per round."""
    start = sys.sigma(x)
    if start <= 0.0:
        return ucc.policy.controls(x, length)
    schedule = settling_schedule(ucc, start, depth=depth)
    controls, state = [], x
    for m in range(schedule.depth):
        room = length - len(controls)
        if room <= 0:
            break
        block, _, _ = _scan(
            ucc, sys, state, eps=schedule.eps_targets[m], radius=start,
            length=min(schedule.round_horizons[m], room),
        )
        controls.extend(block)
        state = rollout(sys, state, block).states[-1]
    if len(controls) < length:
        controls.extend(ucc.policy.controls(state, length - len(controls)))
    return controls[:length]


def _scalar_schedule(ucc, radius, depth, eps_tilde_factor):
    """The per-round loop that batched schedules replaced, one float call at a time.

    Returns ``(level, target, horizon, threshold)`` per round, cut at the
    first round over budget as ``settling_schedule`` cuts it.
    """
    state_gauge = ucc.stage_cost.state_cost
    excursion, relay = excursion_bound(ucc), relay_bound(ucc)
    rounds = []
    for m in range(1, depth + 1):
        level = 1.0 / m
        top = ucc.cost_bound.eval(radius)
        target = min(
            relay.invert(state_gauge.eval(level)), relay.invert((2.0 ** -m) * top), radius
        )
        try:
            if target <= 0.0:
                raise BudgetError(f"round {m} target degenerated")
            threshold = excursion.invert(eps_tilde_factor * target)
            floor_cost = state_gauge.eval(threshold)
            if floor_cost <= 0.0:
                if top > 0.0:
                    raise BudgetError("no stage cost at the threshold")
                steps = 1
            else:
                ratio = top / floor_cost
                if ratio > _STEP_CAP:
                    raise BudgetError("over the step cap")
                value = ratio - 1.0
                nearest = round(value)
                if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
                    value = nearest
                steps = max(1, math.ceil(value))
        except BudgetError:
            if m == 1:
                raise
            break
        rounds.append((level, target, steps, threshold))
    return rounds


def _hex(values):
    return [float(v).hex() for v in values]


@functools.lru_cache(maxsize=None)
def _schedule_cert(name):
    if name == "doubling":
        return doubling_cert()
    if name == "stepping":
        return stepping_fixture()[1]
    return (_chain_case if name == "chain" else _synthesized_case)()[0]


class TestBatchedSchedule:
    """Schedules settled together equal the old per-round scalar loop, radius by radius, bitwise."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["doubling", "stepping", "chain", "synthesized"]),
        st.lists(
            st.one_of(st.floats(0.01, 100.0), st.sampled_from([1.0, 2.0, 3.0, 5.0, 9.0])),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 30),
        st.sampled_from([0.25, 0.5, 0.9]),
    )
    # step-cap truncation: after round 25 from every radius, and after round 19
    @example("doubling", [0.5, 1.0, 2.0], 30, 0.5)
    @example("stepping", [0.5, 1.0, 3.0], 21, 0.25)
    def test_rounds_equal_the_scalar_loop(self, name, radii, depth, factor):
        ucc = _schedule_cert(name)
        bounds = _bounds(ucc, factor)
        try:
            expected = [_scalar_schedule(ucc, r, depth, factor) for r in radii]
        except BudgetError:
            with pytest.raises(BudgetError):
                _schedules(ucc, bounds, factor, radii, depth)
            return
        batched = _schedules(ucc, bounds, factor, radii, depth)
        assert len(batched) == len(radii)
        for radius, rounds, schedule in zip(radii, expected, batched):
            level, target, steps, threshold = (list(col) for col in zip(*rounds))
            assert schedule.radius == radius
            assert _hex(schedule.eps_levels) == _hex(level)
            assert _hex(schedule.eps_targets) == _hex(target)
            assert schedule.round_horizons == tuple(steps)
            assert schedule.cum_horizons == tuple(int(n) for n in np.cumsum(steps))
            assert _hex(schedule.thresholds) == _hex(threshold)
            assert settling_schedule(ucc, radius, depth, factor) == schedule

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_assemble_makes_two_numeric_inversions(self, monkeypatch, count):
        # the synthesized certificate inverts both its relay and its excursion bound numerically
        ucc = _schedule_cert("synthesized")
        inversions = []
        numeric = cmpfn._invert_numeric
        monkeypatch.setattr(
            cmpfn, "_invert_numeric", lambda expr, y: inversions.append(y.size) or numeric(expr, y)
        )
        _, schedules = assemble_state_bound(ucc, [0.25 * k for k in range(1, count + 1)])
        assert len(schedules) == count
        assert len(inversions) == 2

    @pytest.mark.parametrize("name", ["chain", "synthesized"])
    def test_no_schedule_computes_more_than_1074_rounds(self, monkeypatch, name):
        # from round 1,075 on the budget share top * 2.0**-m is 0.0 and the round is cut
        ucc = _schedule_cert(name)
        radii = [0.5, 1.0, 3.0]
        bounds = _bounds(ucc, 0.5)
        assert _schedules(ucc, bounds, 0.5, radii, 5000) == _schedules(ucc, bounds, 0.5, radii, 1074)
        inversions = []
        numeric = cmpfn._invert_numeric
        monkeypatch.setattr(
            cmpfn, "_invert_numeric", lambda expr, y: inversions.append(y.size) or numeric(expr, y)
        )
        _, schedules = assemble_state_bound(ucc, radii, 5000)
        assert all(schedule.depth <= 1074 for schedule in schedules)
        # the relay inverts each round's level and each radius's share of it
        assert inversions and max(inversions) <= 1074 * (1 + len(radii))

    def test_round_one_budget_error_propagates_from_assemble(self):
        # under the cap of 1e9 steps radius 1 settles in every round and radius 1e8 not at all
        assert settling_schedule(doubling_cert(), 1.0, 4).round_horizons == (47, 95, 191, 383)
        with pytest.raises(BudgetError, match=r"radius 1e\+08 .* above the cap 1e\+09"):
            assemble_state_bound(doubling_cert(), [1.0, 1e8], 4)

    def test_the_first_failing_radius_raises(self):
        # radius 2 breaks the step cap in round 1 and radius 0.1 degenerates there
        ucc = underflow_cert()
        bounds = _bounds(ucc, 0.5)
        with pytest.raises(BudgetError, match="radius 2 .* above the cap"):
            _schedules(ucc, bounds, 0.5, [2.0, 0.1], 3)
        with pytest.raises(BudgetError, match="round 1 target degenerated"):
            _schedules(ucc, bounds, 0.5, [0.1, 2.0], 3)
        # assembly settles its radii from the smallest
        with pytest.raises(BudgetError, match="round 1 target degenerated"):
            assemble_state_bound(ucc, [2.0, 0.1], 3)

    def test_bad_eps_tilde_factor_is_rejected_at_construction(self):
        sys, ucc = halving_fixture()
        with pytest.raises(ParameterError, match="eps_tilde_factor"):
            stitched_policy(ucc, sys, eps_tilde_factor=-0.5)


class TestPipelinePolicyReuse:
    """The pipeline's policy reuses the assembled schedules; nothing may show."""

    @pytest.mark.parametrize("case", [_stepping_case, _chain_case, _synthesized_case])
    def test_unpriced_policy_equals_the_priced_stitches(self, case):
        ucc, sys, _, starts, length = case()
        pol = stitched_policy(ucc, sys, depth=5)
        for x in starts:
            np.testing.assert_array_equal(
                _control_bits(pol.controls(x, length)),
                _control_bits(_stitched_prefix(ucc, sys, x, 5, length)),
            )

    @pytest.mark.parametrize("case", [_stepping_case, _chain_case, _synthesized_case])
    @pytest.mark.parametrize("depth, nu_depth", [(4, 6), (6, 6), (8, 4)])
    def test_controls_equal_a_standalone_policy(self, case, depth, nu_depth):
        ucc, sys, samples, starts, length = case()
        result = converse_pipeline(ucc, sys, samples, horizon=24, depth=depth, nu_depth=nu_depth)
        standalone = stitched_policy(ucc, sys, depth=depth)
        for x in starts:
            np.testing.assert_array_equal(
                _control_bits(result.cert.policy.controls(x, length + 8)),
                _control_bits(standalone.controls(x, length + 8)),
            )


class TestControlsOnDemand:
    """Stitched controls are built only as far as they are asked for."""

    @pytest.mark.parametrize("case", [_stepping_case, _chain_case, _synthesized_case])
    def test_controls_are_prefix_closed(self, case):
        ucc, sys, _, starts, _ = case()
        pol = stitched_policy(ucc, sys, depth=5)
        for x in starts:
            assert_prefix_closed(pol, x, range(73))

    @pytest.mark.parametrize("case", [_chain_case, _synthesized_case])
    def test_no_prefix_is_asked_past_the_horizon(self, monkeypatch, case):
        ucc, sys, samples, _, _ = case()
        asked = []
        controls = PolicyOracle.controls

        def spy(policy, x, n):
            def prefix(x, k):
                out = policy.prefix(x, k)
                asked.append((policy.ref, k, len(out)))
                return out

            return controls(dataclasses.replace(policy, prefix=prefix), x, n)

        monkeypatch.setattr(PolicyOracle, "controls", spy)
        result = converse_pipeline(ucc, sys, samples, horizon=24)
        assert result.report.passed
        assert {ref for ref, _, _ in asked} == {"stitched", ucc.policy.ref}
        assert max(k for _, k, _ in asked) == 24
        assert all(size <= k for _, k, size in asked)


class TestEachControlAppliedOnce:
    """A stitched prefix steps each of its controls once, lead and tail alike."""

    @pytest.mark.parametrize("case", [_halving_case, _stepping_case, _synthesized_case])
    def test_controls_call_transition_n_times(self, case):
        ucc, sys, _, starts, _ = case()
        steps = []

        def transition(x, u):
            steps.append(u)
            return sys.transition(x, u)

        spied = dataclasses.replace(sys, transition=transition)
        pol = stitched_policy(ucc, spied, depth=3)
        # 1,100 controls run past the first round from every halving and stepping start
        for x in (x for x in starts if sys.sigma(x) > 0.0):
            for n in (0, 1, 24, 300, 1100):
                steps.clear()
                controls = pol.controls(x, n)
                assert len(steps) == n
                assert _control_bits(steps).tolist() == _control_bits(controls).tolist()


class TestTailsAreNotMeasured:
    """A stitched prefix measures the states of its walks to each dip, and
    only those: the controls after a dip are stepped but never measured."""

    @staticmethod
    def _spied(sys, counts):
        def counted(name, measure):
            def spy(v):
                counts[name] += 1
                return measure(v)
            return spy

        return dataclasses.replace(
            sys,
            state_measure=counted("state", sys.state_measure),
            input_measure=counted("input", sys.input_measure),
        )

    def test_stitch_measures_the_walk_to_the_dip(self):
        sys, ucc = halving_fixture()
        counts = {"state": 0, "input": 0}
        controls, switch, _ = _scan(ucc, self._spied(sys, counts), 1.0, eps=0.2, length=345)
        assert len(controls) == 345
        # the start, for its radius, then every state up to the dip
        assert counts == {"state": 1 + switch + 1, "input": 0}

    def test_stitched_policy_measures_no_tail(self):
        sys, ucc = halving_fixture()
        counts = {"state": 0, "input": 0}
        controls = stitched_policy(ucc, self._spied(sys, counts), depth=3).controls(1.0, 1100)
        assert len(controls) == 1100
        # the start, then each round's radius check and the states of its walk:
        # round 1 dips at step 7, and rounds 2 and 3 start below their targets;
        # measuring the tails took 1,110 state and 1,093 input measures
        assert counts == {"state": 1 + 3 + (7 + 1) + 1 + 1, "input": 0}


class TestAssembleStateBound:
    def test_grid_shape_and_strictifier(self):
        sys, ucc = halving_fixture()
        bound, schedules = assemble_state_bound(ucc, [0.5, 1.0, 2.0, 4.0])
        assert isinstance(bound, SampledKL)
        assert len(schedules) == 4
        # at t=0 the settling curve says nothing yet, so the cell is the
        # excursion ceiling 3r plus the strictly-decreasing repair term
        assert bound.eval(1.0, 0.0) == pytest.approx(3.003, rel=1e-9)
        assert bound.eval(1.0, 64.0) < bound.eval(1.0, 8.0)

    def test_dominates_certified_rollouts(self):
        sys, ucc = halving_fixture()
        bound, _ = assemble_state_bound(ucc, [0.5, 1.0, 2.0, 4.0])
        pol = stitched_policy(ucc, sys, depth=8)
        for x0 in (0.5, 2.0):
            traj = rollout(sys, x0, pol.controls(x0, 64))
            for n, state in enumerate(traj.states):
                assert sys.sigma(state) <= bound.eval(x0, float(n)) + 1e-9

    def test_ceilings_one_double_apart_stay_strict(self):
        # c and the next double up both round to the same c * (1 + 1e-3) at t = 0, so the
        # rows tie there unless the repair lifts the tie; SampledKL rejects a tie
        low = 63.0844026600279
        high = math.nextafter(low, math.inf)
        assert low + 1e-3 * low == high + 1e-3 * high
        ucc = UCCCert(
            stage_cost=StageCost(state_cost=identity(), input_cost=identity()),
            cost_bound=table_fn([19.0, 20.0], [low, high]),
            policy=_dummy_policy(),
        )
        bound, _ = assemble_state_bound(ucc, [19.0, 20.0], 4)
        assert bound.values[1, 0] == math.nextafter(bound.values[0, 0], math.inf)

    def test_needs_two_distinct_positive_radii(self):
        _, ucc = halving_fixture()
        with pytest.raises(ParameterError, match="radii"):
            assemble_state_bound(ucc, [1.0])
        with pytest.raises(ParameterError, match="radii"):
            assemble_state_bound(ucc, [1.0, 1.0])
        with pytest.raises(ParameterError, match="radii"):
            assemble_state_bound(ucc, [-1.0, 1.0])


class TestConversePipeline:
    def test_halving_loop_closes(self):
        sys, ucc = halving_fixture()
        samples = [1.0, -2.0, 0.25]
        result = converse_pipeline(ucc, sys, samples, horizon=48)
        assert result.report.passed
        assert isinstance(result.cert, UBgECCert)
        assert result.cert.energy is ucc.stage_cost.input_cost
        assert result.excursion.eval(1.0) == 3.0
        assert result.relay.eval(1.0) == 12.0
        assert result.cert.energy_budget.eval(1.0) == 15.0
        again = verify(result.cert, sys, samples, 32)
        assert again.passed

    def test_chain_certificate_from_value_iteration_closes(self):
        chain = build_builtin("finite_chain")
        cost = StageCost(state_cost=identity(), input_cost=identity())
        table = value_iterate(chain.finite, cost)
        ucc = extract_ucc(table, chain.finite, margin=1.5)
        samples = [i % 10 for i in range(8)]
        result = converse_pipeline(
            ucc, chain.system, samples, horizon=48, depth=8, nu_depth=12
        )
        assert result.report.passed

    def test_requires_forward_invariance(self):
        sys, ucc = halving_fixture()
        bare = UCCCert(
            stage_cost=ucc.stage_cost,
            cost_bound=ucc.cost_bound,
            policy=ucc.policy,
            forward_invariant=False,
        )
        with pytest.raises(ParameterError, match="forward-invariant"):
            converse_pipeline(bare, sys, [1.0])

    def test_failing_base_certificate_rejected(self):
        sys, ucc = halving_fixture()
        tight = UCCCert(
            stage_cost=ucc.stage_cost,
            cost_bound=linear(1.0),
            policy=ucc.policy,
            forward_invariant=True,
        )
        with pytest.raises(ParameterError, match="fails verification"):
            converse_pipeline(tight, sys, [1.0], horizon=16)

    def test_policy_depth_still_validated(self):
        sys, ucc = halving_fixture()
        with pytest.raises(ParameterError, match="depth"):
            converse_pipeline(ucc, sys, [1.0, 2.0], horizon=8, depth=0)

    def test_zero_measure_samples_get_default_radii(self):
        sys, ucc = halving_fixture()
        result = converse_pipeline(ucc, sys, [0.0], horizon=16)
        assert [s.radius for s in result.schedules] == [1.0, 2.0]
        assert result.report.passed

    def test_single_measure_padded_to_two_radii(self):
        sys, ucc = halving_fixture()
        result = converse_pipeline(ucc, sys, [1.0, -1.0], horizon=16)
        assert [s.radius for s in result.schedules] == [1.0, 2.0]

    def test_schedule_csv_layout(self, tmp_path, monkeypatch):
        out, result = _chain_converse(tmp_path, monkeypatch)
        lines = (out / "schedules.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "radius,round,eps_level,eps_target,round_horizon,cum_horizon"
        rows = [ln for ln in lines[1:] if ln]
        assert len(rows) == sum(s.depth for s in result.schedules)
        first = rows[0].split(",")
        assert float(first[0]) == 1.0
        assert int(first[1]) == 1
        assert rows == [
            f"{s.radius:.17g},{m + 1},{s.eps_levels[m]:.17g},{s.eps_targets[m]:.17g},"
            f"{s.round_horizons[m]},{s.cum_horizons[m]}"
            for s in result.schedules for m in range(s.depth)
        ]

    def test_nu_csv_layout(self, tmp_path, monkeypatch):
        out, result = _chain_converse(tmp_path, monkeypatch)
        lines = [ln for ln in (out / "nu.csv").read_bytes().decode().split("\r\n") if ln]
        assert lines[0] == "radius,eps,nu"
        assert len(lines) - 1 == 9 * len(result.schedules)
        for ln, schedule in zip(lines[1:], [s for s in result.schedules for _ in range(9)]):
            radius, eps, nu = (float(v) for v in ln.split(","))
            assert radius == schedule.radius
            assert nu == schedule.value(eps) > 0.0

    def test_json_payload(self):
        sys, ucc = halving_fixture()
        result = converse_pipeline(ucc, sys, [1.0], horizon=16)
        payload = result.to_json()
        assert payload["kind"] == "converse"
        assert payload["passed"] is True
        assert set(payload) == {
            "kind",
            "excursion",
            "relay",
            "total",
            "state_bound",
            "energy",
            "energy_budget",
            "passed",
        }


def _cross_cert():
    """A forward-invariant certificate whose stage cost has a cross term."""
    cost = StageCost(state_cost=identity(), input_cost=identity(), cross_cost=lambda s, r: s * r)
    return UCCCert(
        stage_cost=cost, cost_bound=linear(3.0), policy=_dummy_policy(), forward_invariant=True
    )


def _halving_pair(**changes):
    """``(ucc, sys)`` of the halving fixture, the certificate changed as given."""
    sys, ucc = halving_fixture()
    return dataclasses.replace(ucc, **changes), sys


class TestValidationOrder:
    """With several faults at once, each public function names the same one first.

    The steps check ``eps_tilde_factor``, then the certificate, then their
    own arguments in order.  The pipeline checks forward invariance, the
    certificate, its depths and the base verify before ``eps_tilde_factor``.
    """

    @pytest.mark.parametrize(
        "call, needle",
        [
            (lambda: settle_horizon(_cross_cert(), -1.0, 0.0, eps_tilde_factor=1.0), "eps_tilde_factor"),
            (lambda: settle_horizon(_cross_cert(), -1.0, 0.0), "cross term"),
            (lambda: settle_horizon(doubling_cert(), -1.0, 0.0), "radius must be finite"),
            (lambda: settle_horizon(doubling_cert(), math.inf, -1.0), "radius must be finite"),
            (lambda: settle_horizon(doubling_cert(), 1.0, -1.0), "target must be finite"),
            (
                lambda: stitch_controls(
                    _cross_cert(), halving_fixture()[0], 1.0, -1.0, 0.5, eps_tilde_factor=2.0
                ),
                "eps_tilde_factor",
            ),
            (lambda: stitch_controls(_cross_cert(), halving_fixture()[0], 1.0, -1.0, 0.5), "cross term"),
            (lambda: stitch_controls(*_halving_pair(), 1.0, -1.0, 0.5), "below the sample"),
            (lambda: stitch_controls(*_halving_pair(), 1.0, 0.2, math.inf), "radius must be finite"),
            (lambda: settling_schedule(_cross_cert(), 0.0, 0, eps_tilde_factor=0.0), "eps_tilde_factor"),
            (lambda: settling_schedule(_cross_cert(), 0.0, 0), "cross term"),
            (lambda: settling_schedule(doubling_cert(), 0.0, 0), "radius must be finite"),
            (lambda: settling_schedule(doubling_cert(), 1e8, 0), "depth must be at least 1"),
            (lambda: assemble_state_bound(_cross_cert(), [1.0], eps_tilde_factor=2.0), "eps_tilde_factor"),
            (lambda: assemble_state_bound(_cross_cert(), [1.0]), "cross term"),
            (lambda: assemble_state_bound(doubling_cert(), [1.0], depth=0), "two distinct positive radii"),
            (lambda: assemble_state_bound(doubling_cert(), [1.0, 1e8], depth=0), "depth must be at least 1"),
            (
                lambda: converse_pipeline(
                    *_halving_pair(forward_invariant=False), [1.0],
                    depth=0, nu_depth=0, eps_tilde_factor=2.0,
                ),
                "forward-invariant",
            ),
            (
                lambda: converse_pipeline(
                    _cross_cert(), halving_fixture()[0], [1.0], depth=0, nu_depth=0, eps_tilde_factor=2.0
                ),
                "cross term",
            ),
            (
                lambda: converse_pipeline(
                    *_halving_pair(cost_bound=linear(1.0)), [1.0], horizon=16, eps_tilde_factor=2.0
                ),
                "fails verification",
            ),
        ],
    )
    def test_first_fault_named(self, call, needle):
        with pytest.raises(ParameterError, match=needle):
            call()

    def test_a_bad_target_fails_one_check_in_both_stitch_and_settle(self):
        sys, ucc = halving_fixture()
        for call in (lambda: settle_horizon(ucc, 1.0, -1.0), lambda: stitch_controls(ucc, sys, 1.0, -1.0)):
            with pytest.raises(ParameterError, match=r"^target must be finite and positive, got -1\.0$"):
                call()

    @pytest.mark.parametrize("key", ["depth", "nu_depth"])
    def test_pipeline_depths_come_before_the_base_verify(self, key):
        # the base certificate fails verification as well
        ucc, sys = _halving_pair(cost_bound=linear(1.0))
        with pytest.raises(ParameterError, match=rf"^{key} must be at least 1, got 0$"):
            converse_pipeline(ucc, sys, [1.0], horizon=16, **{key: 0})


def _artifacts(tmp_path, name):
    """Every file ``converse`` writes on the chain, by file name."""
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({**CHAIN_CONVERSE, "samples": {"count": 4}, "horizon": 24}),
                      encoding="utf-8")
    assert main(["converse", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    return {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}


def test_pipeline_assembles_through_the_public_function(tmp_path, monkeypatch):
    expected = _artifacts(tmp_path, "a")
    assert sorted(expected) == ["beta_grid.csv", "converse.json", "nu.csv", "report.csv",
                                "schedules.csv"]
    calls = []
    assemble = converse_module.assemble_state_bound
    monkeypatch.setattr(
        converse_module,
        "assemble_state_bound",
        lambda *args, **kwargs: calls.append(args) or assemble(*args, **kwargs),
    )
    assert _artifacts(tmp_path, "b") == expected
    assert len(calls) == 1
