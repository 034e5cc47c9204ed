"""Settling schedules, stitched controls, and the rebuilt energy certificate."""

import dataclasses
import functools
import io
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
    stitched_policy,
    synthesize,
    to_ucc_cert,
    total_bound,
    total_cost,
    value_iterate,
    verify,
)
from stagecraft import cmpfn
from stagecraft.converse import DEFAULT_STEP_CAP, _Settler
from support import assert_prefix_closed


def _dummy_policy():
    return PolicyOracle(prefix=lambda x, n: [], length=0, tail="zero", ref="unused")


def doubling_cert():
    """Identity state gauge and cost bound 2r: everything has a closed form."""
    cost = StageCost(state_cost=identity(), input_cost=identity())
    return UCCCert(stage_cost=cost, cost_bound=linear(2.0), policy=_dummy_policy())


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

    policy = PolicyOracle(prefix=prefix, length=256, tail="zero", ref="halve")
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
        policy=PolicyOracle(prefix=prefix, length=1, tail="zero", ref="stepping"),
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

    def test_step_cap_enforced(self):
        with pytest.raises(BudgetError, match="cap"):
            settle_horizon(doubling_cert(), 1.0, 1e-9, step_cap=10 ** 6)

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

    def test_custom_levels(self):
        schedule = settling_schedule(doubling_cert(), 1.0, depth=2, eps_levels=[0.5, 0.25])
        assert schedule.eps_targets[0] == pytest.approx(1 / 12, rel=1e-9)
        assert schedule.eps_targets[1] == pytest.approx(1 / 24, rel=1e-9)
        assert schedule.round_horizons == (95, 191)

    def test_level_validation(self):
        cert = doubling_cert()
        with pytest.raises(ParameterError, match="expected 3 levels"):
            settling_schedule(cert, 1.0, depth=3, eps_levels=[0.5])
        with pytest.raises(ParameterError, match="lie in"):
            settling_schedule(cert, 1.0, depth=2, eps_levels=[2.0, 0.5])
        with pytest.raises(ParameterError, match="strictly decreasing"):
            settling_schedule(cert, 1.0, depth=2, eps_levels=[0.5, 0.5])

    def test_radius_and_depth_validation(self):
        with pytest.raises(ParameterError, match="radius"):
            settling_schedule(doubling_cert(), 0.0)
        with pytest.raises(ParameterError, match="depth"):
            settling_schedule(doubling_cert(), 1.0, depth=0)

    def test_truncates_at_last_computable_round(self):
        schedule = settling_schedule(doubling_cert(), 1.0, depth=6, step_cap=150)
        assert schedule.depth == 2
        assert schedule.cum_horizons == (47, 142)
        assert schedule.eps_levels == (1.0, 0.5)

    def test_first_round_over_cap_raises(self):
        with pytest.raises(BudgetError):
            settling_schedule(doubling_cert(), 1.0, depth=4, step_cap=10)


class TestScheduleDepth:
    """The stitched policy reuses deeper schedules; that rests on this prefix property."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["doubling", "halving"]),
        st.floats(0.01, 100.0),
        st.integers(1, 10),
        st.integers(0, 6),
        st.sampled_from([150, 2000, 10 ** 5, DEFAULT_STEP_CAP]),
    )
    def test_shallow_schedule_is_the_first_rounds_of_a_deep_one(
        self, fixture, radius, depth, extra, step_cap
    ):
        ucc = doubling_cert() if fixture == "doubling" else halving_fixture()[1]
        deep_depth = depth + extra
        try:
            deep = settling_schedule(ucc, radius, depth=deep_depth, step_cap=step_cap)
        except BudgetError:
            with pytest.raises(BudgetError):
                settling_schedule(ucc, radius, depth=depth, step_cap=step_cap)
            return
        shallow = settling_schedule(ucc, radius, depth=depth, step_cap=step_cap)
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
            eps_levels=(1.0, 0.5, 1.0 / 3.0),
            eps_targets=(1.0 / 6.0, 1.0 / 12.0, 1.0 / 24.0),
            round_horizons=(47, 95, 191),
            cum_horizons=(47, 142, 333),
        )

    def test_count_picks_first_level_inside_target(self):
        curve = self.curve()
        assert curve.count(2.0) == 47
        assert curve.count(1.0) == 142
        assert curve.count(0.75) == 142
        assert curve.count(0.4) == 333

    def test_count_matches_a_linear_scan(self):
        rng = np.random.default_rng(3)
        levels = tuple(sorted(rng.uniform(0.01, 10.0, size=40), reverse=True))
        curve = SettlingSchedule(
            radius=1.0,
            eps_levels=levels,
            eps_targets=levels,
            round_horizons=(1,) * 40,
            cum_horizons=tuple(range(1, 41)),
        )
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
        assert len(res.controls) == 89 + 256
        assert res.bound == 12.0
        cost = total_cost(sys, ucc.stage_cost, rollout(sys, 1.0, res.controls))
        assert cost == pytest.approx(3.0, rel=1e-9)
        assert cost <= res.bound

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
        res = stitch_controls(ucc, sys, 1.0, eps=0.2, length=3)
        assert res.switch_step is None
        assert len(res.controls) == 3

    def test_zero_length_prefix(self):
        sys, ucc = halving_fixture()
        res = stitch_controls(ucc, sys, 1.0, eps=0.2, length=0)
        assert res.controls == ()

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
            policy=PolicyOracle(prefix=lambda x, n: [], length=0, tail="zero"),
            forward_invariant=True,
        )
        with pytest.raises(CertificateInvalidError, match="cost bound cannot hold"):
            stitch_controls(ucc, frozen, 1.0, eps=0.2)


class TestStitchedPolicy:
    def test_prefix_capped_at_length(self):
        sys, ucc = halving_fixture()
        pol = stitched_policy(ucc, sys, depth=3, length=40)
        controls = pol.controls(1.0, 40)
        assert len(controls) == 40
        traj = rollout(sys, 1.0, controls)
        assert sys.sigma(traj.states[-1]) == pytest.approx(0.5 ** 40, rel=1e-12)

    def test_cost_stays_under_total_bound(self):
        sys, ucc = halving_fixture()
        pol = stitched_policy(ucc, sys, depth=3, length=40)
        traj = rollout(sys, 1.0, pol.controls(1.0, 40))
        assert total_cost(sys, ucc.stage_cost, traj) <= total_bound(ucc).eval(1.0)

    def test_zero_measure_start_uses_base_policy(self):
        sys, ucc = halving_fixture()
        pol = stitched_policy(ucc, sys, depth=2, length=10)
        assert list(pol.controls(0.0, 10)) == [0.0] * 10

    def test_length_validation(self):
        sys, ucc = halving_fixture()
        with pytest.raises(ParameterError, match="length"):
            stitched_policy(ucc, sys, length=0)

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
            policy=PolicyOracle(prefix=lambda x, n: [], length=0, tail="zero"),
            forward_invariant=True,
        )
        # the first round's horizon (215 steps) fits in a request for 256
        # controls, so the scan runs to its end without a dip
        pol = stitched_policy(ucc, frozen, depth=2, length=256)
        with pytest.raises(CertificateInvalidError, match="cost bound cannot hold"):
            pol.controls(1.0, 256)
        # only a round whose whole window lies inside the request is
        # checked, whatever the policy length: 214 controls end short of
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
            policy=PolicyOracle(prefix=prefix, length=256, tail="zero"),
            forward_invariant=True,
        )
        # one round, so no later state-measure call meets the overflow first
        pol = stitched_policy(ucc, sys, depth=1, length=256)
        with pytest.raises(SimulationError):
            pol.controls(1.0, 256)


def _control_bits(controls):
    return np.asarray(controls, dtype=float).view(np.uint64)


def _chain_case():
    chain = build_builtin("finite_chain")
    cost = StageCost(state_cost=identity(), input_cost=identity())
    ucc = extract_ucc(value_iterate(chain.finite, cost), chain.finite, margin=1.5)
    # 2 and 9 are not sample measures
    return ucc, chain.system, [1, 3, 5, 0], [1, 3, 5, 0, 2, 9], 256


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
    """The stitched prefix built round by round from the public `stitch_controls`."""
    start = sys.sigma(x)
    if start <= 0.0:
        return ucc.policy.controls(x, length)
    schedule = settling_schedule(ucc, start, depth=depth)
    controls, state = [], x
    for m in range(schedule.depth):
        room = length - len(controls)
        if room <= 0:
            break
        block = stitch_controls(
            ucc, sys, state, eps=schedule.eps_targets[m], radius=start,
            length=min(schedule.round_horizons[m], room),
        )
        controls.extend(block.controls)
        state = rollout(sys, state, block.controls).states[-1]
    if len(controls) < length:
        controls.extend(ucc.policy.controls(state, length - len(controls)))
    return controls[:length]


def _scalar_schedule(ucc, radius, levels, eps_tilde_factor, step_cap):
    """The per-round loop that batched schedules replaced, one float call at a time.

    Returns ``(level, target, horizon, threshold)`` per round, cut at the
    first round over budget as ``settling_schedule`` cuts it.
    """
    state_gauge = ucc.stage_cost.state_cost
    excursion, relay = excursion_bound(ucc), relay_bound(ucc)
    rounds = []
    for m, level in enumerate(levels, start=1):
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
                if ratio > step_cap:
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
        st.one_of(
            st.integers(1, 12),
            st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12, unique=True),
        ),
        st.sampled_from([0.25, 0.5, 0.9]),
        st.sampled_from([150, 2000, 10 ** 5, DEFAULT_STEP_CAP]),
    )
    # step-cap truncation: after rounds 2, 2 and 1 under a cap of 150, and
    # with custom levels after rounds 4, 4 and 3 under a cap of 2000
    @example("doubling", [0.5, 1.0, 2.0], 6, 0.5, 150)
    @example("doubling", [0.5, 1.0, 3.0], [0.5, 0.2, 0.1, 0.05], 0.5, 2000)
    def test_rounds_equal_the_scalar_loop(self, name, radii, depth, factor, step_cap):
        ucc = _schedule_cert(name)
        if isinstance(depth, int):
            eps_levels, levels = None, [1.0 / m for m in range(1, depth + 1)]
        else:
            eps_levels = levels = sorted(depth, reverse=True)
            depth = len(levels)
        settler = _Settler(ucc, factor, step_cap)
        try:
            expected = [_scalar_schedule(ucc, r, levels, factor, step_cap) for r in radii]
        except BudgetError:
            with pytest.raises(BudgetError):
                settler.schedules(radii, depth, eps_levels)
            return
        batched = settler.schedules(radii, depth, eps_levels)
        assert len(batched) == len(radii)
        for radius, rounds, (schedule, thresholds) in zip(radii, expected, batched):
            level, target, steps, threshold = (list(col) for col in zip(*rounds))
            assert schedule.radius == radius
            assert _hex(schedule.eps_levels) == _hex(level)
            assert _hex(schedule.eps_targets) == _hex(target)
            assert schedule.round_horizons == tuple(steps)
            assert schedule.cum_horizons == tuple(int(n) for n in np.cumsum(steps))
            assert _hex(thresholds) == _hex(threshold)
            assert settling_schedule(ucc, radius, depth, eps_levels, factor, step_cap) == schedule

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_assemble_makes_two_numeric_inversions(self, monkeypatch, count):
        # the synthesized certificate inverts both its relay and its excursion bound numerically
        ucc = _schedule_cert("synthesized")
        inversions = []
        numeric = cmpfn._invert_numeric
        monkeypatch.setattr(
            cmpfn, "_invert_numeric", lambda expr, y: inversions.append(y.size) or numeric(expr, y)
        )
        build = assemble_state_bound(ucc, [0.25 * k for k in range(1, count + 1)])
        assert len(build.schedules) == count
        assert len(inversions) == 2

    def test_round_one_budget_error_propagates_from_assemble(self):
        # under a cap of 80 steps radius 1 settles in one round and radius 2 not at all
        settler = _Settler(doubling_cert(), 0.5, step_cap=80)
        assert settler.schedules([1.0], 4)[0][0].round_horizons == (47,)
        with pytest.raises(BudgetError, match="radius 2 .* above the cap 80"):
            settler.assemble([1.0, 2.0], 4)
        with pytest.raises(BudgetError, match="radius 1 "):
            _Settler(doubling_cert(), 0.5, step_cap=10).assemble([1.0, 2.0], 4)

    def test_bad_eps_tilde_factor_is_rejected_at_construction(self):
        sys, ucc = halving_fixture()
        with pytest.raises(ParameterError, match="eps_tilde_factor"):
            stitched_policy(ucc, sys, eps_tilde_factor=-0.5)


class TestPipelinePolicyReuse:
    """The pipeline's policy reuses the assembled schedules; nothing may show."""

    @pytest.mark.parametrize("case", [_stepping_case, _chain_case, _synthesized_case])
    def test_unpriced_policy_equals_the_priced_stitches(self, case):
        ucc, sys, _, starts, length = case()
        pol = stitched_policy(ucc, sys, depth=5, length=length)
        for x in starts:
            np.testing.assert_array_equal(
                _control_bits(pol.controls(x, length)),
                _control_bits(_stitched_prefix(ucc, sys, x, 5, length)),
            )

    @pytest.mark.parametrize("case", [_stepping_case, _chain_case, _synthesized_case])
    @pytest.mark.parametrize("depth, nu_depth", [(4, 6), (6, 6), (8, 4)])
    def test_controls_equal_a_standalone_policy(self, case, depth, nu_depth):
        ucc, sys, samples, starts, length = case()
        result = converse_pipeline(
            ucc, sys, samples, horizon=24, depth=depth, nu_depth=nu_depth, policy_length=length
        )
        standalone = stitched_policy(ucc, sys, depth=depth, length=length)
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
        pol = stitched_policy(ucc, sys, depth=5, length=64)
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
        # the default policy length, 4096, is far past the horizon
        result = converse_pipeline(ucc, sys, samples, horizon=24)
        assert result.report.passed
        assert {ref for ref, _, _ in asked} == {"stitched", ucc.policy.ref}
        assert max(k for _, k, _ in asked) == 24
        assert all(size <= k for _, k, size in asked)


class TestAssembleStateBound:
    def test_grid_shape_and_strictifier(self):
        sys, ucc = halving_fixture()
        build = assemble_state_bound(ucc, [0.5, 1.0, 2.0, 4.0])
        assert isinstance(build.bound, SampledKL)
        assert len(build.schedules) == 4
        # at t=0 the settling curve says nothing yet, so the cell is the
        # excursion ceiling 3r plus the strictly-decreasing repair term
        assert build.bound.eval(1.0, 0.0) == pytest.approx(3.003, rel=1e-9)
        assert build.bound.eval(1.0, 64.0) < build.bound.eval(1.0, 8.0)

    def test_dominates_certified_rollouts(self):
        sys, ucc = halving_fixture()
        build = assemble_state_bound(ucc, [0.5, 1.0, 2.0, 4.0])
        pol = stitched_policy(ucc, sys, depth=8, length=64)
        for x0 in (0.5, 2.0):
            traj = rollout(sys, x0, pol.controls(x0, 64))
            for n, state in enumerate(traj.states):
                assert sys.sigma(state) <= build.bound.eval(x0, float(n)) + 1e-9

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
        assert result.total.eval(1.0) == 15.0
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
        assert [s.radius for s in result.build.schedules] == [1.0, 2.0]
        assert result.report.passed

    def test_single_measure_padded_to_two_radii(self):
        sys, ucc = halving_fixture()
        result = converse_pipeline(ucc, sys, [1.0, -1.0], horizon=16)
        assert [s.radius for s in result.build.schedules] == [1.0, 2.0]

    def test_schedule_csv_layout(self):
        sys, ucc = halving_fixture()
        result = converse_pipeline(ucc, sys, [1.0, -2.0], horizon=16)
        buf = io.StringIO()
        result.schedule_csv(buf)
        lines = buf.getvalue().split("\r\n")
        assert lines[0] == "radius,round,eps_level,eps_target,round_horizon,cum_horizon"
        rows = [ln for ln in lines[1:] if ln]
        assert len(rows) == sum(s.depth for s in result.build.schedules)
        first = rows[0].split(",")
        assert float(first[0]) == 1.0
        assert int(first[1]) == 1

    def test_nu_csv_layout(self):
        sys, ucc = halving_fixture()
        result = converse_pipeline(ucc, sys, [1.0, -2.0], horizon=16)
        buf = io.StringIO()
        result.nu_csv(buf)
        lines = [ln for ln in buf.getvalue().split("\r\n") if ln]
        assert lines[0] == "radius,eps,nu"
        assert len(lines) - 1 == 9 * len(result.build.schedules)
        for ln in lines[1:]:
            radius, eps, nu = (float(v) for v in ln.split(","))
            assert nu > 0.0

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
