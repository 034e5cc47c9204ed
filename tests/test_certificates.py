import itertools
import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagecraft import (
    CertificateInvalidError,
    ControlSystem,
    KInfFn,
    KLValidityError,
    ParameterError,
    PolicyOracle,
    SampledKL,
    SeparableKL,
    SimulationError,
    StageCost,
    UACCert,
    UBgECCert,
    UCCCert,
    UVCCert,
    as_state_certificate,
    build_builtin,
    const_fn,
    identity,
    joint_bound_merge,
    joint_bound_split,
    linear,
    power,
    rollout,
    rollout_all,
    scale,
    scale_kl,
    uvc_to_ubgec,
    verify,
)
from stagecraft.certificates import _worst_row
from stagecraft.cli import main
from support import random_sampled, stitched_policy


def scalar_system(a=0.5):
    return ControlSystem(
        transition=lambda x, u: a * x + u,
        state_measure=abs,
        input_measure=abs,
    )


def zero_policy():
    return PolicyOracle(prefix=lambda x, n: [], ref="zero")


def geometric_bound(rate=0.5):
    return SeparableKL(outer=identity(), decay=rate, inner=identity())


class TestPolicyOracle:
    def test_zero_tail_pads(self):
        pol = PolicyOracle(prefix=lambda x, n: [1.0, 2.0][:n])
        assert pol.controls(0.0, 4) == [1.0, 2.0, 0.0, 0.0]

    def test_overlong_prefix_is_truncated(self):
        pol = PolicyOracle(prefix=lambda x, n: [1.0, 2.0, 3.0])
        assert pol.controls(0.0, 2) == [1.0, 2.0]


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

    @pytest.mark.parametrize("horizon", [2.5, 3.0, np.float64(3.0), True, False, "3", None])
    def test_horizon_must_be_an_integer(self, horizon):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        with pytest.raises(ParameterError, match="horizon must be an integer"):
            verify(cert, scalar_system(), [1.0], horizon=horizon)

    def test_numpy_integer_horizon_is_an_int(self):
        cert = UACCert(state_bound=geometric_bound(), policy=zero_policy())
        report = verify(cert, scalar_system(), [1.0], horizon=np.int64(3))
        assert type(report.horizon) is int
        assert report == verify(cert, scalar_system(), [1.0], horizon=3)

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
            policy=b.uvc.policy,
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
    def test_csv_is_deterministic_and_crlf(self, tmp_path):
        config = tmp_path / "uac.json"
        config.write_text(json.dumps({"system": {"builtin": "scalar_linear"},
                                      "certificate": {"kind": "uac"},
                                      "samples": {"count": 2}, "horizon": 16}), encoding="utf-8")
        texts = []
        for name in ("a", "b"):
            assert main(["verify", "--config", str(config), "--out", str(tmp_path / name)]) == 0
            texts.append((tmp_path / name / "report.csv").read_bytes().decode("utf-8"))
        assert texts[0] == texts[1]
        assert texts[0].count("\r\n") == texts[0].count("\n")
        header, *lines = texts[0].split("\r\n")[:-1]
        assert lines
        assert header == "sample,inequality,n,lhs,rhs,margin"
        b = build_builtin("scalar_linear", None)
        report = verify(as_state_certificate(b.uvc), b.system, b.samples(2), horizon=16)
        assert [line.split(",") for line in lines] == [
            [str(row.sample), row.inequality, str(row.n), *("%.17g" % v for v in astuple(row)[3:])]
            for row in report.rows
        ]

    def test_cert_to_json_kinds(self):
        b = build_builtin("scalar_linear", None)
        assert b.uvc.to_json()["kind"] == "uvc"
        assert b.ubgec.to_json()["kind"] == "ubgec"
        assert as_state_certificate(b.uvc).to_json()["kind"] == "uac"
        assert isinstance(b.ubgec.to_json()["energy_budget"], dict)


# ---------------------------------------------------------------------------
# each kind's JSON form and margin rows, pinned
# ---------------------------------------------------------------------------


def kind_certs():
    """One certificate of each kind on ``scalar_system()``."""
    policy = PolicyOracle(prefix=lambda x, n: [-0.25 * x, 0.1 * x][:n], ref="two-step")
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
            policy=PolicyOracle(prefix=lambda x, n: [x][:n], ref="push"),
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
TWO_STEP = {"ref": "two-step"}

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
        "policy": {"ref": "push"},
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
        obj = kind_certs()[kind].to_json()
        assert json.dumps(obj, sort_keys=True) == json.dumps(PINNED_JSON[kind], sort_keys=True)

    def test_builtin_energy_certificate_json_is_pinned(self):
        obj = build_builtin("scalar_linear", None).ubgec.to_json()
        assert json.dumps(obj, sort_keys=True) == (
            '{"energy": {"expr": {"inner": {"op": "identity"}, "op": "inverse_of"}, '
            '"kind": "kinf"}, "energy_budget": {"expr": {"c": 2.0, "inner": {"op": "identity"}, '
            '"op": "scale"}, "kind": "kinf"}, "energy_unbounded": true, "kind": "ubgec", '
            '"policy": {"ref": "zero"}, "state_bound": '
            '{"decay": 0.5, "inner": {"expr": {"op": "identity"}, "kind": "kinf"}, '
            '"kind": "kl.separable", "outer": {"expr": {"op": "identity"}, "kind": "kinf"}}}'
        )

    @pytest.mark.parametrize("horizon", [3, 0])
    @pytest.mark.parametrize("kind", sorted(PINNED_ROWS))
    def test_rows_are_pinned_in_order(self, kind, horizon):
        report = verify(kind_certs()[kind], scalar_system(), [1.0, -1.2, 0.0], horizon=horizon)
        assert [astuple(row) for row in report.rows] == PINNED_ROWS[kind][horizon]


class TestEachStepMeasuredOnce:
    """``verify`` steps and measures each sample once, in its rollout."""

    @staticmethod
    def spied_system(measured, input_measure=abs):
        def state_measure(x):
            measured["state"].append(x)
            return abs(x)

        def counted_input_measure(u):
            measured["input"].append(u)
            return input_measure(u)

        return ControlSystem(
            transition=scalar_system().transition,
            state_measure=state_measure,
            input_measure=counted_input_measure,
        )

    @pytest.mark.parametrize("horizon", [5, 0])
    @pytest.mark.parametrize("kind", ["uac", "uvc", "ubgec", "ucc"])
    def test_each_state_and_input_is_measured_once(self, kind, horizon):
        cert = kind_certs()[kind]
        samples = [1.0, -1.2, 0.0]
        measured = {"state": [], "input": []}
        report = verify(cert, self.spied_system(measured), samples, horizon=horizon)
        assert report.rows == verify(cert, scalar_system(), samples, horizon=horizon).rows
        states, inputs = [], []
        for x in samples:
            controls = cert.policy.controls(x, horizon)
            inputs += controls
            states.append(x)
            for u in controls:
                states.append(scalar_system().transition(states[-1], u))
        assert measured == {"state": states, "input": inputs}

    @pytest.mark.parametrize("horizon", [5, 0])
    @pytest.mark.parametrize("kind", ["uac", "uvc", "ubgec", "ucc"])
    def test_a_vectorized_walk_measures_everything_in_one_call_each(self, kind, horizon):
        cert = kind_certs()[kind]
        samples = [1.0, -1.2, 0.0]
        measured = {"state": [], "input": []}
        system = replace(self.spied_system(measured), vectorized=True)
        report = verify(cert, system, samples, horizon=horizon)
        assert report.rows == verify(cert, scalar_system(), samples, horizon=horizon).rows
        trajs = [rollout(scalar_system(), x, cert.policy.controls(x, horizon)) for x in samples]
        [states], [inputs] = measured["state"], measured["input"]
        # one call each over every sample's states and inputs, time-major
        assert states.tolist() == np.array([t.states for t in trajs]).T.ravel().tolist()
        assert inputs.tolist() == np.array([t.inputs for t in trajs]).T.ravel().tolist()

    def test_state_certificate_measures_its_inputs(self):
        # the rollout measures every input, so a bad input measure fails
        # even a certificate without control rows, with exit code 3
        cert = kind_certs()["uac"]
        sys = self.spied_system({"state": [], "input": []}, input_measure=lambda u: math.nan)
        with pytest.raises(SimulationError, match="input measure returned nan"):
            verify(cert, sys, [1.0], horizon=3)
        assert not issubclass(SimulationError, ParameterError)


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
        policy = PolicyOracle(prefix=lambda x, n: [-0.25 * x, 0.1 * x][:n])
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


# ---------------------------------------------------------------------------
# the one walk of a vectorized system against the per-sample loop
# ---------------------------------------------------------------------------


# the builtins that declare ``vectorized``, by (name, params)
VECTORIZED_BUILTINS = [
    ("scalar_linear", None),
    ("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7}),
    ("two_state_linear", None),
    ("saturating_scalar", None),
]


def cli_random_samples(name, draws):
    """Samples from the CLI's random ranges: magnitudes 10**[-2, 2], random signs or angles."""
    if name == "two_state_linear":
        return [10.0 ** m * np.array([np.cos(a), np.sin(a)]) for m, a, _ in draws]
    return [(1.0 if up else -1.0) * 10.0 ** m for m, _, up in draws]


def bit_equal(a, b):
    return np.array_equal(bits(np.asarray(a)), bits(np.asarray(b)))


class TestOneWalk:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(VECTORIZED_BUILTINS),
        st.sampled_from(["uac", "uvc", "ubgec"]),
        st.lists(
            st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2.0 * np.pi), st.booleans()),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 600),
    )
    def test_walk_is_the_per_sample_rollout(self, builtin, kind, draws, horizon):
        b = build_builtin(*builtin)
        assert b.system.vectorized
        cert = {"uac": as_state_certificate(b.uvc), "uvc": b.uvc, "ubgec": b.ubgec}[kind]
        samples = cli_random_samples(b.name, draws)
        loop = replace(b.system, vectorized=False)
        assert verify(cert, b.system, samples, horizon) == verify(cert, loop, samples, horizon)
        plans = [cert.policy.controls(x, horizon) for x in samples]
        walked = rollout_all(b.system, samples, plans)
        assert walked is not None
        for traj, x, plan in zip(walked, samples, plans):
            alone = rollout(loop, x, plan)
            assert traj.inputs == alone.inputs
            assert bit_equal(traj.states, alone.states)
            assert bit_equal(traj.sigma, alone.sigma) and bit_equal(traj.rho, alone.rho)


# sample -> its plan, then the error it raises: 1.0 pays a negative stage
# cost at step 0 (raised by its row), 2.0 overflows at input 5, 3.0 has a
# NaN input measure at step 1, and 4.0's stitched policy never dips
FAULTY_PLANS = {1.0: [3.0], 2.0: [0.0, 0.0] + [1e308] * 4, 3.0: [0.0, 7.0]}
FAULTS = {
    1.0: (SimulationError, "stage cost evaluated to -6.0"),
    2.0: (SimulationError, "non-finite after applying input 5"),
    3.0: (SimulationError, "input measure returned nan"),
    4.0: (CertificateInvalidError, "no certified state dipped below"),
}


class TestWalkErrors:
    """A vectorized ``verify`` raises what the per-sample loop raises, from the first failing sample."""

    HORIZON = 2600  # past the stitched policy's first round of 2,559 steps

    @classmethod
    def certificate_and_system(cls):
        system = ControlSystem(
            transition=lambda x, u: 0.5 * x + u,
            state_measure=abs,
            input_measure=lambda u: np.where(u == 7.0, np.nan, np.abs(u)),
            vectorized=True,
        )
        cost = StageCost(
            state_cost=identity(), input_cost=identity(),
            cross_cost=lambda s, r: -10.0 if r == 3.0 else 0.0,
        )
        # the base policy holds 4.0 in place, so the stitched one cannot dip
        hold = PolicyOracle(prefix=lambda x, n: [0.5 * x] * n if x == 4.0 else [])
        base = UCCCert(
            stage_cost=StageCost(state_cost=identity(), input_cost=identity()),
            cost_bound=linear(4.0),
            policy=hold,
            forward_invariant=True,
        )
        stitched = stitched_policy(base, system)

        def prefix(x, n):
            return stitched.prefix(x, n) if x == 4.0 else FAULTY_PLANS.get(x, [])[:n]

        cert = UCCCert(stage_cost=cost, cost_bound=linear(1e9), policy=PolicyOracle(prefix=prefix))
        return cert, system

    @staticmethod
    def raised(cert, system, samples, horizon):
        with pytest.raises(Exception) as err:
            verify(cert, system, samples, horizon)
        return type(err.value), str(err.value), getattr(err.value, "step", None)

    @pytest.mark.parametrize(
        "failing",
        [order for r in range(1, 5) for order in itertools.permutations(sorted(FAULTS), r)],
        ids=str,
    )
    def test_the_first_failing_sample_raises_as_in_the_loop(self, failing):
        cert, system = self.certificate_and_system()
        samples = [0.5, *failing]
        walked = self.raised(cert, system, samples, self.HORIZON)
        looped = self.raised(cert, replace(system, vectorized=False), samples, self.HORIZON)
        assert walked == looped
        kind, needle = FAULTS[failing[0]]
        assert walked[0] is kind and needle in walked[1]

    def test_healthy_samples_walk(self):
        cert, system = self.certificate_and_system()
        samples = [0.5, -8.0, 0.0]
        plans = [cert.policy.controls(x, self.HORIZON) for x in samples]
        assert rollout_all(system, samples, plans) is not None
        assert verify(cert, system, samples, self.HORIZON).passed
