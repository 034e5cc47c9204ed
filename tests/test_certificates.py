import io
import json
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagecraft import (
    ControlSystem,
    KInfFn,
    KLValidityError,
    ParameterError,
    PolicyError,
    PolicyOracle,
    SampledKL,
    SeparableKL,
    StageCost,
    UACCert,
    UBgECCert,
    UCCCert,
    UVCCert,
    as_state_certificate,
    build_builtin,
    cert_to_json,
    const_fn,
    identity,
    joint_bound_merge,
    joint_bound_split,
    linear,
    power,
    scale,
    scale_kl,
    uvc_to_ubgec,
    verify,
)
from stagecraft.certificates import _worst_row
from support import random_sampled


def scalar_system(a=0.5):
    return ControlSystem(
        transition=lambda x, u: a * x + u,
        state_measure=abs,
        input_measure=abs,
    )


def zero_policy():
    return PolicyOracle(prefix=lambda x, n: [], length=0, tail="zero", ref="zero")


def geometric_bound(rate=0.5):
    return SeparableKL(outer=identity(), decay=rate, inner=identity())


class TestPolicyOracle:
    def test_zero_tail_pads(self):
        pol = PolicyOracle(prefix=lambda x, n: [1.0, 2.0][:n], length=2, tail="zero")
        assert pol.controls(0.0, 4) == [1.0, 2.0, 0.0, 0.0]

    def test_repeat_tail_repeats(self):
        pol = PolicyOracle(prefix=lambda x, n: [1.0, 2.0][:n], length=2, tail="repeat-last")
        assert pol.controls(0.0, 4) == [1.0, 2.0, 2.0, 2.0]

    def test_no_tail_raises_when_short(self):
        pol = PolicyOracle(prefix=lambda x, n: [1.0][:n], length=1, tail=None)
        with pytest.raises(PolicyError):
            pol.controls(0.0, 2)

    def test_overlong_prefix_is_truncated(self):
        pol = PolicyOracle(prefix=lambda x, n: [1.0, 2.0, 3.0], length=2, tail="zero")
        assert pol.controls(0.0, 3) == [1.0, 2.0, 0.0]

    def test_unknown_tail_rejected(self):
        with pytest.raises(ParameterError):
            PolicyOracle(prefix=lambda x, n: [], length=0, tail="mirror")


class TestConstruction:
    def test_policy_is_required(self):
        with pytest.raises(ParameterError):
            UACCert(state_bound=geometric_bound())

    def test_state_bound_type_checked(self):
        with pytest.raises(ParameterError):
            UACCert(state_bound=identity(), policy=zero_policy())

    def test_energy_budget_must_grow(self):
        with pytest.raises(ParameterError):
            UBgECCert(
                state_bound=geometric_bound(),
                energy=identity(),
                energy_budget=const_fn(1.0),
                policy=zero_policy(),
            )

    def test_energy_unbounded_flag(self):
        cert = UBgECCert(
            state_bound=geometric_bound(),
            energy=identity(),
            energy_budget=linear(2.0),
            policy=zero_policy(),
        )
        assert cert.energy_unbounded
        capped = UBgECCert(
            state_bound=geometric_bound(),
            energy=const_fn(0.0),
            energy_budget=linear(2.0),
            policy=zero_policy(),
        )
        assert not capped.energy_unbounded

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: UVCCert(geometric_bound(), identity(), policy=zero_policy()), "control_bound"),
            (lambda: UBgECCert(geometric_bound(), "x", linear(2.0), policy=zero_policy()), "energy"),
            (lambda: UCCCert(identity(), linear(2.0), policy=zero_policy()), "stage_cost"),
        ],
        ids=["uvc", "ubgec", "ucc"],
    )
    def test_field_error_names_the_one_bad_field(self, make, field):
        with pytest.raises(ParameterError, match=f"^{field} must be "):
            make()


class TestVerifyStateBound:
    def test_exact_bound_passes_with_zero_margin(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        report = verify(cert, scalar_system(), [1.0, -2.0, 8.0], horizon=32)
        assert report.passed
        assert report.worst().margin == 0.0

    def test_too_fast_bound_fails_at_first_step(self):
        cert = UACCert(state_bound=geometric_bound(0.4), policy=zero_policy())
        report = verify(cert, scalar_system(), [1.0], horizon=8)
        assert not report.passed
        worst = report.worst()
        assert worst.n == 1
        assert worst.margin == pytest.approx(0.1)

    def test_slack_tolerates_tiny_violation(self):
        shaved = scale_kl(geometric_bound(), 1.0 - 1e-12)
        cert = UACCert(state_bound=shaved, policy=zero_policy())
        sys = scalar_system()
        assert verify(cert, sys, [1.0], horizon=8, slack=1e-9).passed
        assert not verify(cert, sys, [1.0], horizon=8, slack=0.0).passed

    def test_sample_outside_domain_rejected(self):
        cert = UACCert(
            state_bound=geometric_bound(),
            domain=lambda x: abs(x) <= 10.0,
            policy=zero_policy(),
        )
        with pytest.raises(ParameterError):
            verify(cert, scalar_system(), [100.0], horizon=4)

    def test_bad_horizon_and_slack_rejected(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        with pytest.raises(ParameterError):
            verify(cert, scalar_system(), [1.0], horizon=-1)
        with pytest.raises(ParameterError):
            verify(cert, scalar_system(), [1.0], horizon=4, slack=-1e-9)
        for slack in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="slack must be finite"):
                verify(cert, scalar_system(), [1.0], horizon=4, slack=slack)

    def test_empty_samples_is_vacuous_pass(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        report = verify(cert, scalar_system(), [], horizon=8)
        assert report.vacuous and report.passed
        assert report.worst() is None


class TestVerifyRicherCerts:
    def test_control_rows_appear_for_uvc(self):
        b = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
        report = verify(b.uvc, b.system, b.samples(6), horizon=48)
        assert report.passed
        kinds = {row.inequality for row in report.rows}
        assert kinds == {"state_bound", "control_bound"}

    def test_zero_horizon_checks_initial_state_only(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        report = verify(cert, scalar_system(), [3.0], horizon=0)
        assert len(report.rows) == 1
        assert report.rows[0].n == 0

    def test_energy_partial_sums_stay_under_budget(self):
        b = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
        cert = UBgECCert(
            state_bound=b.uvc.state_bound,
            energy=identity(),
            energy_budget=scale(2.0, identity()),
            policy=b.policy,
        )
        report = verify(cert, b.system, b.samples(6), horizon=64)
        assert report.passed
        energy_rows = [r for r in report.rows if r.inequality == "energy_budget"]
        assert energy_rows and all(r.margin < 0 for r in energy_rows)

    def test_total_cost_and_invariance_rows(self):
        from stagecraft import StageCost

        cert = UCCCert(
            stage_cost=StageCost(state_cost=identity()),
            cost_bound=scale(2.0, identity()),
            policy=zero_policy(),
            forward_invariant=True,
        )
        report = verify(cert, scalar_system(), [1.0, 4.0], horizon=32)
        assert report.passed
        kinds = {row.inequality for row in report.rows}
        assert kinds == {"total_cost", "invariance"}

    def test_invariance_violation_is_reported(self):
        from stagecraft import StageCost

        cert = UCCCert(
            stage_cost=StageCost(state_cost=identity()),
            cost_bound=scale(3.0, identity()),
            domain=lambda x: x >= 1.0,
            policy=zero_policy(),
            forward_invariant=True,
        )
        report = verify(cert, scalar_system(), [2.0], horizon=8)
        assert not report.passed
        bad = [r for r in report.rows if r.inequality == "invariance"][0]
        assert bad.lhs == 1.0 and bad.n == 2


class TestConversions:
    def test_uvc_to_ubgec_identity_case(self):
        b = build_builtin("scalar_linear", None)
        cert = uvc_to_ubgec(b.uvc, decay=0.5)
        for r in (0.5, 1.0, 3.0):
            assert cert.energy.eval(r) == pytest.approx(r, rel=1e-12)
            assert cert.energy_budget.eval(r) == pytest.approx(2.0 * r, rel=1e-12)

    def test_uvc_to_ubgec_square_outer(self):
        bound = SeparableKL(outer=power(2.0), decay=0.5, inner=identity())
        uvc = UVCCert(
            state_bound=geometric_bound(),
            control_bound=bound,
            policy=zero_policy(),
        )
        cert = uvc_to_ubgec(uvc, decay=0.5)
        assert cert.energy.eval(4.0) == pytest.approx(2.0, rel=1e-9)
        assert cert.energy_budget.eval(3.0) == pytest.approx(6.0, rel=1e-12)
        assert cert.energy_unbounded

    def test_converted_cert_verifies(self):
        b = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
        cert = uvc_to_ubgec(b.uvc, decay=b.natural_decay)
        report = verify(cert, b.system, b.samples(8), horizon=64)
        assert report.passed

    def test_hierarchy_projection(self):
        b = build_builtin("scalar_linear", None)
        uac = as_state_certificate(b.uvc)
        assert isinstance(uac, UACCert)
        assert uac.state_bound is b.uvc.state_bound
        assert verify(uac, b.system, b.samples(4), horizon=32).passed


class TestJointBounds:
    def test_merge_unit_weights_doubles_geometric(self):
        uvc = UVCCert(
            state_bound=geometric_bound(),
            control_bound=geometric_bound(),
            policy=zero_policy(),
        )
        merged = joint_bound_merge(uvc, 1.0, 1.0)
        assert isinstance(merged, SampledKL)
        r, t = merged.r_grid[10], 3.0
        assert merged.eval(float(r), t) == pytest.approx(2.0 * r * 0.5**3, rel=1e-12)

    def test_merge_clamps_small_weights(self):
        uvc = UVCCert(
            state_bound=geometric_bound(),
            control_bound=geometric_bound(),
            policy=zero_policy(),
        )
        merged = joint_bound_merge(uvc, 0.0, 0.0)
        r = merged.r_grid[5]
        assert merged.eval(float(r), 0.0) == pytest.approx(2.0 * r, rel=1e-12)

    def test_merge_dominates_weighted_sum(self):
        uvc = UVCCert(
            state_bound=geometric_bound(),
            control_bound=SeparableKL(outer=identity(), decay=0.3, inner=linear(0.5)),
            policy=zero_policy(),
        )
        w1, w2 = 1.5, 0.25
        merged = joint_bound_merge(uvc, w1, w2)
        for r in merged.r_grid[::9]:
            for t in (0.0, 1.0, 5.0, 20.0):
                target = w1 * uvc.state_bound.eval(float(r), t) + w2 * uvc.control_bound.eval(
                    float(r), t
                )
                assert merged.eval(float(r), t) >= target - 1e-12

    def test_split_halves_geometric(self):
        bx, bu = joint_bound_split(geometric_bound(), 2.0, 2.0)
        assert bx.eval(1.0, 0.0) == pytest.approx(0.5)
        assert bu.eval(4.0, 1.0) == pytest.approx(1.0)

    def test_split_rejects_zero_weight(self):
        with pytest.raises(ParameterError):
            joint_bound_split(geometric_bound(), 0.0, 1.0)


class TestReports:
    def test_csv_is_deterministic_and_crlf(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        texts = []
        for _ in range(2):
            report = verify(cert, scalar_system(), [1.0, 2.0], horizon=16)
            buf = io.StringIO(newline="")
            report.to_csv(buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        assert texts[0].startswith("sample,inequality,n,lhs,rhs,margin\r\n")

    def test_json_includes_verdict(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        report = verify(cert, scalar_system(), [1.0], horizon=4)
        obj = report.to_json()
        assert obj["passed"] is True
        assert len(obj["rows"]) == 1

    def test_cert_to_json_kinds(self):
        b = build_builtin("scalar_linear", None)
        assert cert_to_json(b.uvc)["kind"] == "uvc"
        assert cert_to_json(b.ubgec)["kind"] == "ubgec"
        assert cert_to_json(as_state_certificate(b.uvc))["kind"] == "uac"
        assert isinstance(cert_to_json(b.ubgec)["energy_budget"], dict)


# ---------------------------------------------------------------------------
# each kind's JSON form and margin rows, pinned
# ---------------------------------------------------------------------------


def kind_certs():
    """One certificate of each kind on ``scalar_system()``."""
    policy = PolicyOracle(prefix=lambda x, n: [-0.25 * x, 0.1 * x][:n], length=2, ref="two-step")
    tight = SeparableKL(outer=identity(), decay=0.4, inner=linear(1.1))
    return {
        "uac": UACCert(state_bound=tight, policy=policy),
        "uvc": UVCCert(
            state_bound=tight,
            control_bound=SeparableKL(outer=power(2.0), decay=0.6, inner=linear(3.0)),
            policy=policy,
        ),
        "ubgec": UBgECCert(
            state_bound=tight, energy=identity(), energy_budget=linear(2.0), policy=policy
        ),
        # the push policy takes sample -1.2 to -1.8, out of the domain at step 1
        "ucc": UCCCert(
            stage_cost=StageCost(state_cost=identity(), input_cost=power(2.0)),
            cost_bound=linear(4.0),
            domain=lambda x: abs(x) <= 1.5,
            policy=PolicyOracle(prefix=lambda x, n: [x][:n], length=1, ref="push"),
            forward_invariant=True,
        ),
    }


TIGHT_ROWS = {
    3: [
        (0, "state_bound", 2, 0.225, 0.17600000000000002, 0.04899999999999999),
        (1, "state_bound", 2, 0.27, 0.21120000000000003, 0.05879999999999999),
        (2, "state_bound", 0, 0.0, 0.0, 0.0),
    ],
    0: [
        (0, "state_bound", 0, 1.0, 1.1, -0.10000000000000009),
        (1, "state_bound", 0, 1.2, 1.32, -0.1200000000000001),
        (2, "state_bound", 0, 0.0, 0.0, 0.0),
    ],
}


def kinf(expr):
    return {"expr": expr, "kind": "kinf"}


TIGHT_BOUND = {
    "decay": 0.4,
    "inner": kinf({"c": 1.1, "op": "linear"}),
    "kind": "kl.separable",
    "outer": kinf({"op": "identity"}),
}
TWO_STEP = {"length": 2, "ref": "two-step", "tail": "zero"}

# compared as JSON text, so true is not 1 and 2.0 is not 2
PINNED_JSON = {
    "uac": {"kind": "uac", "policy": TWO_STEP, "state_bound": TIGHT_BOUND},
    "uvc": {
        "control_bound": {
            "decay": 0.6,
            "inner": kinf({"c": 3.0, "op": "linear"}),
            "kind": "kl.separable",
            "outer": kinf({"op": "power", "p": 2.0}),
        },
        "kind": "uvc",
        "policy": TWO_STEP,
        "state_bound": TIGHT_BOUND,
    },
    "ubgec": {
        "energy": kinf({"op": "identity"}),
        "energy_budget": kinf({"c": 2.0, "op": "linear"}),
        "energy_unbounded": True,
        "kind": "ubgec",
        "policy": TWO_STEP,
        "state_bound": TIGHT_BOUND,
    },
    "ucc": {
        "cost_bound": kinf({"c": 4.0, "op": "linear"}),
        "forward_invariant": True,
        "kind": "ucc",
        "policy": {"length": 1, "ref": "push", "tail": "zero"},
        "stage_cost": {
            "has_cross": False,
            "input_cost": kinf({"op": "power", "p": 2.0}),
            "kind": "stage_cost",
            "state_cost": kinf({"op": "identity"}),
        },
    },
}

PINNED_ROWS = {
    "uac": TIGHT_ROWS,
    "uvc": {
        3: [
            TIGHT_ROWS[3][0],
            (0, "control_bound", 2, 0.0, 1.1664, -1.1664),
            TIGHT_ROWS[3][1],
            (1, "control_bound", 2, 0.0, 1.6796159999999996, -1.6796159999999996),
            TIGHT_ROWS[3][2],
            (2, "control_bound", 0, 0.0, 0.0, 0.0),
        ],
        0: TIGHT_ROWS[0],
    },
    "ubgec": {
        3: [
            TIGHT_ROWS[3][0],
            (0, "energy_budget", 2, 0.35, 2.0, -1.65),
            TIGHT_ROWS[3][1],
            (1, "energy_budget", 2, 0.42, 2.4, -1.98),
            TIGHT_ROWS[3][2],
            (2, "energy_budget", 1, 0.0, 0.0, 0.0),
        ],
        0: TIGHT_ROWS[0],
    },
    "ucc": {
        3: [
            (0, "total_cost", 3, 4.25, 4.0, 0.25),
            (0, "invariance", 0, 0.0, 0.0, 0.0),
            (1, "total_cost", 3, 5.34, 4.8, 0.54),
            (1, "invariance", 1, 1.0, 0.0, 1.0),
            (2, "total_cost", 1, 0.0, 0.0, 0.0),
            (2, "invariance", 0, 0.0, 0.0, 0.0),
        ],
        0: [(i, "invariance", 0, 0.0, 0.0, 0.0) for i in range(3)],
    },
}


class TestKindForms:
    @pytest.mark.parametrize("kind", sorted(PINNED_JSON))
    def test_cert_to_json_is_pinned(self, kind):
        obj = cert_to_json(kind_certs()[kind])
        assert json.dumps(obj, sort_keys=True) == json.dumps(PINNED_JSON[kind], sort_keys=True)

    def test_builtin_energy_certificate_json_is_pinned(self):
        obj = cert_to_json(build_builtin("scalar_linear", None).ubgec)
        assert json.dumps(obj, sort_keys=True) == (
            '{"energy": {"expr": {"inner": {"op": "identity"}, "op": "inverse_of"}, '
            '"kind": "kinf"}, "energy_budget": {"expr": {"c": 2.0, "inner": {"op": "identity"}, '
            '"op": "scale"}, "kind": "kinf"}, "energy_unbounded": true, "kind": "ubgec", '
            '"policy": {"length": 0, "ref": "zero", "tail": "zero"}, "state_bound": '
            '{"decay": 0.5, "inner": {"expr": {"op": "identity"}, "kind": "kinf"}, '
            '"kind": "kl.separable", "outer": {"expr": {"op": "identity"}, "kind": "kinf"}}}'
        )

    def test_cert_to_json_rejects_other_objects(self):
        with pytest.raises(ParameterError, match="unknown certificate type"):
            cert_to_json(geometric_bound())

    @pytest.mark.parametrize("horizon", [3, 0])
    @pytest.mark.parametrize("kind", sorted(PINNED_ROWS))
    def test_rows_are_pinned_in_order(self, kind, horizon):
        report = verify(kind_certs()[kind], scalar_system(), [1.0, -1.2, 0.0], horizon=horizon)
        assert [astuple(row) for row in report.rows] == PINNED_ROWS[kind][horizon]
        keys = ("sample", "inequality", "n", "lhs", "rhs", "margin")
        rows = report.to_json()["rows"]
        assert [list(row.items()) for row in rows] == [
            list(zip(keys, row)) for row in PINNED_ROWS[kind][horizon]
        ]


# ---------------------------------------------------------------------------
# one broadcast call per bound against the per-point loops it replaced
# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestGridPathsMatchLoops:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_merge_is_the_double_loop(self, seed, w1, w2):
        rng = np.random.default_rng(seed)
        uvc = UVCCert(
            state_bound=random_sampled(rng, 12, 10)[0],
            control_bound=random_sampled(rng, 12, 10)[0],
            policy=zero_policy(),
        )
        r_grid = np.concatenate(([0.0], np.logspace(-2.0, 4.0, 9)))
        t_grid = np.array([0.0, 0.5, 1.0, 4.0, 9.0, 9.5, 30.0])
        c1, c2 = max(w1, 1.0), max(w2, 1.0)
        state, control = uvc.state_bound, uvc.control_bound
        expected = np.array(
            [[c1 * state.eval(r, t) + c2 * control.eval(r, t) for t in t_grid] for r in r_grid]
        )
        # past the last column the tails of two rows may cross, so the
        # tabulation can be invalid; then both must refuse it the same way
        try:
            SampledKL(r_grid=r_grid, t_grid=t_grid, values=expected)
        except KLValidityError as exc:
            with pytest.raises(KLValidityError, match=re.escape(str(exc))):
                joint_bound_merge(uvc, w1, w2, r_grid=r_grid, t_grid=t_grid)
            return
        merged = joint_bound_merge(uvc, w1, w2, r_grid=r_grid, t_grid=t_grid)
        np.testing.assert_array_equal(bits(merged.values), bits(expected))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    def test_verify_rows_are_the_per_step_loop(self, seed, horizon):
        rng = np.random.default_rng(seed)
        state_bound = random_sampled(rng, 12, 10)[0]
        control_bound = SeparableKL(outer=power(2.0), decay=0.6, inner=linear(3.0))
        policy = PolicyOracle(prefix=lambda x, n: [-0.25 * x, 0.1 * x][:n], length=2, tail="zero")
        cert = UVCCert(state_bound=state_bound, control_bound=control_bound, policy=policy)
        system = scalar_system(0.9)
        samples = [0.0, 0.3, -2.0, 50.0]
        report = verify(cert, system, samples, horizon=horizon)

        expected = []
        for i, x in enumerate(samples):
            controls = policy.controls(x, horizon)
            states = [x]
            for u in controls:
                states.append(system.transition(states[-1], u))
            sig = np.abs(states)
            bound = [state_bound.eval(sig[0], float(n)) for n in range(horizon + 1)]
            expected.append(_worst_row(i, "state_bound", sig, bound))
            if horizon > 0:
                bound = [control_bound.eval(sig[0], float(n)) for n in range(horizon)]
                expected.append(_worst_row(i, "control_bound", np.abs(controls), bound))
        assert report.rows == tuple(expected)
