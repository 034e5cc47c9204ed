"""Acceptance checks: each test prints one [PASS]/[FAIL] line for its criterion.

The criteria pin down the package's headline guarantees end to end:
function-algebra invariants, decay-bound decomposition, budget and
total-cost certification on the bundled systems, interaction
admission, transient budgeting, the converse construction, oracle
fidelity, the settling-schedule spot values, and the paper's loop
closed exactly on random finite systems.
"""

import time

import numpy as np
import pytest

from stagecraft import (
    BUILTIN_FACTORIES,
    BudgetError,
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    FiniteSystem,
    InteractionRejectedError,
    InteractionSpec,
    PolicyOracle,
    StageCost,
    TransientData,
    UCCCert,
    admissible_wrapper,
    admit_interaction,
    build_builtin,
    certify_ucc,
    combine,
    converse_pipeline,
    extract_ucc,
    greedy_policy,
    identity,
    kl_decompose,
    linear,
    power,
    rollout,
    scale,
    settle_horizon,
    settling_schedule,
    synthesize,
    to_ucc_cert,
    transient_split,
    uvc_to_ubgec,
    value_iterate,
    verify,
)
from support import (
    LOG_GRID,
    brute_force_values,
    random_finite_system,
    random_kinf,
    random_sampled,
    random_separable,
    selfcheck,
    total_cost,
    transient_partition,
)

VI_TOL = 1e-10
UNIT_COST = StageCost(state_cost=identity(), input_cost=identity())


def _line(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        tail = f" [{detail}]" if detail else ""
        print(f"\n[{status}] criterion {number}: {label}{tail}")


def test_criterion_1_function_algebra_round_trip(capsys):
    rng = np.random.default_rng(20240811)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        fn = random_kinf(rng, depth=6)
        selfcheck(fn)
        forward = fn.eval(LOG_GRID)
        back = fn.invert(forward)
        worst = max(worst, float(np.max(np.abs(back - LOG_GRID) / LOG_GRID)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(capsys, 1, "1000 random trees invert on the log grid",
          ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_decomposition_dominates(capsys):
    rng = np.random.default_rng(4711)
    started = time.perf_counter()
    worst = -np.inf

    def gap_separable(beta, decomp):
        gaps = []
        for t in DEFAULT_T_GRID:
            gaps.append(np.max(beta.eval(DEFAULT_R_GRID, t) - decomp.eval(DEFAULT_R_GRID, t)))
        return float(np.max(gaps))

    def gap_sampled(beta, decomp):
        # a tabulated bound is validated on its own grid, so domination
        # is checked there
        gap = -np.inf
        for t in beta.t_grid:
            rhs = decomp.eval(beta.r_grid, t)
            for i, r in enumerate(beta.r_grid):
                gap = max(gap, beta.eval(float(r), float(t)) - rhs[i])
        return gap

    for _ in range(50):
        beta = random_separable(rng)
        worst = max(worst, gap_separable(beta, kl_decompose(beta, decay=0.5)))
    for _ in range(20):
        beta, _base = random_sampled(rng)
        worst = max(worst, gap_sampled(beta, kl_decompose(beta, decay=0.5)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    _line(capsys, 2, "70 decay bounds sit under their separable envelopes",
          ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_3_budget_from_control_decay(capsys):
    builtin = build_builtin("scalar_linear")
    cert = uvc_to_ubgec(builtin.uvc, decay=0.5)
    assert cert.energy.eval(2.0) == pytest.approx(2.0, rel=1e-12)
    assert cert.energy_budget.eval(1.0) == pytest.approx(2.0, rel=1e-12)
    samples = list(np.logspace(-2.0, 2.0, 32))
    report = verify(cert, builtin.system, samples, horizon=64)
    energy_rows = [row for row in report.rows if row.inequality == "energy_budget"]
    worst = max(row.margin for row in energy_rows)
    ok = report.passed and bool(energy_rows) and worst <= 0.0
    _line(capsys, 3, "converted budget covers every partial energy sum",
          ok, f"worst margin {worst:.2e}")
    assert report.passed
    assert energy_rows
    assert worst <= 0.0


def test_criterion_4_synthesized_costs_stay_bounded(capsys):
    failures = []
    for name in sorted(BUILTIN_FACTORIES):
        builtin = build_builtin(name)
        result = synthesize(builtin.ubgec, decay=builtin.natural_decay)
        report = certify_ucc(
            result,
            builtin.ubgec,
            builtin.system,
            builtin.samples(32),
            horizon=256,
            slack=1e-9,
        )
        if not report.passed:
            failures.append((name, report.worst()))
    ok = not failures
    _line(capsys, 4, "truncated synthesized costs stay under the bound on all builtins",
          ok, "" if ok else repr(failures))
    assert not failures, failures


def test_criterion_5_interaction_admission(capsys):
    damped = build_builtin("scalar_linear", {"a": 1.2, "b": 1.0, "gain": -0.7})
    base = synthesize(damped.ubgec, decay=0.5)

    product = InteractionSpec(cross=lambda s, r: s * r, c_cross=1.0, gain=identity())
    report_product = certify_ucc(
        admit_interaction(product, base, damped.ubgec),
        damped.ubgec,
        damped.system,
        damped.samples(8),
        horizon=96,
    )

    wrap = admissible_wrapper(
        identity(), identity(), base.decomposition.outer, damped.ubgec.energy
    )
    wrapped_sum = InteractionSpec(
        cross=lambda s, r: wrap.eval(s + r), c_state=1.0, c_input=1.0
    )
    report_sum = certify_ucc(
        admit_interaction(wrapped_sum, base, damped.ubgec),
        damped.ubgec,
        damped.system,
        damped.samples(8),
        horizon=96,
    )

    rejected = False
    try:
        admit_interaction(
            InteractionSpec(cross=lambda s, r: s * s, c_state=1.0), base, damped.ubgec
        )
    except InteractionRejectedError:
        rejected = True

    ok = report_product.passed and report_sum.passed and rejected
    _line(capsys, 5, "declared cross terms certify, undeclared growth is rejected", ok)
    assert report_product.passed
    assert report_sum.passed
    assert rejected


def test_criterion_6_transient_burst_budget(capsys):
    builtin = build_builtin("scalar_linear")
    spec = InteractionSpec(
        cross=lambda s, r: s + r + max(s - 1.0, 0.0) * (1.0 + r),
        c_state=1.0,
        c_input=1.0,
        transient=TransientData(
            radius=1.0,
            state_rate=combine(scale(2.0, identity()), power(2.0), "sum"),
            input_rate=combine(identity(), power(2.0), "sum"),
        ),
    )
    split = transient_split(spec, builtin.ubgec, decay=0.5)
    cert = UCCCert(
        stage_cost=StageCost(cross_cost=spec.cross),
        cost_bound=split.total_bound,
        policy=builtin.uvc.policy,
    )
    samples = [0.25, -1.0, 4.0, -16.0, 50.0]
    report = verify(cert, builtin.system, samples, horizon=64)

    budgets_hold = True
    for x in samples:
        part = transient_partition(spec, builtin.ubgec, builtin.system, x, horizon=48)
        sigma = builtin.system.sigma(x)
        budgets_hold &= len(part.transient) <= split.count(sigma)
        budgets_hold &= part.transient_cost <= split.burst_bound(sigma) + 1e-9

    ok = report.passed and budgets_hold
    _line(capsys, 6, "radius-gated burst costs respect their step and cost budgets", ok)
    assert report.passed
    assert budgets_hold


def test_criterion_7_converse_round_trip(capsys):
    started = time.perf_counter()

    chain = build_builtin("finite_chain")
    table = value_iterate(chain.finite, UNIT_COST)
    chain_ucc = extract_ucc(table, chain.finite, margin=1.5)
    chain_result = converse_pipeline(
        chain_ucc, chain.system, list(range(10)), horizon=64, slack=1e-9
    )

    builtin = build_builtin("scalar_linear")
    synthesis = synthesize(builtin.ubgec, decay=0.5)
    certified = certify_ucc(
        synthesis, builtin.ubgec, builtin.system, builtin.samples(8), horizon=64
    )
    loop_ucc = to_ucc_cert(synthesis, builtin.ubgec, forward_invariant=True)
    loop_result = converse_pipeline(
        loop_ucc, builtin.system, builtin.samples(8), horizon=64, slack=1e-9
    )

    elapsed = time.perf_counter() - started
    ok = (
        chain_result.report.passed
        and certified.passed
        and loop_result.report.passed
        and elapsed < 60.0
    )
    _line(capsys, 7, "energy certificates rebuilt from total costs verify",
          ok, f"{elapsed:.1f}s")
    assert chain_result.report.passed
    assert certified.passed
    assert loop_result.report.passed
    assert elapsed < 60.0


def test_criterion_8_oracle_fidelity(capsys):
    chain = build_builtin("finite_chain")
    table = value_iterate(chain.finite, UNIT_COST)
    sys_view = chain.finite.to_control_system()
    policy = greedy_policy(table, chain.finite)
    worst_gap = 0.0
    for x0 in range(chain.finite.num_states):
        traj = rollout(sys_view, x0, policy.controls(x0, 64))
        achieved = total_cost(UNIT_COST, traj)
        worst_gap = max(worst_gap, abs(achieved - float(table.values[x0])))

    small = FiniteSystem(
        successor=np.array([[0, 0, 0], [1, 0, 0], [2, 1, 0], [3, 2, 1], [4, 3, 2]]),
        state_measure=np.arange(5, dtype=float),
        input_measure=np.array([0.0, 1.0, 1.5]),
    )
    small_table = value_iterate(small, UNIT_COST)
    brute = brute_force_values(small, UNIT_COST, depth=8)
    brute_match = bool(np.allclose(brute, small_table.values, rtol=0, atol=1e-9))

    ok = worst_gap <= 10 * VI_TOL and brute_match
    _line(capsys, 8, "greedy rollouts attain the value table; brute force agrees",
          ok, f"worst gap {worst_gap:.2e}")
    assert worst_gap <= 10 * VI_TOL
    assert brute_match


def test_criterion_9_settling_spot_values(capsys):
    cert = UCCCert(
        stage_cost=UNIT_COST,
        cost_bound=linear(2.0),
        policy=PolicyOracle(prefix=lambda x, n: []),
    )
    horizon = settle_horizon(cert, 1.0, 0.2)
    schedule = settling_schedule(cert, 1.0, depth=1)
    first_target = schedule.eps_targets[0]
    ok = horizon == 39 and first_target == pytest.approx(1 / 6, rel=1e-9)
    _line(capsys, 9, "settle horizon and first schedule target match hand values",
          ok, f"horizon {horizon}, first target {first_target:.6f}")
    assert horizon == 39
    assert first_target == pytest.approx(1 / 6, rel=1e-9)


def test_criterion_10_loop_closes_on_finite_systems(capsys):
    # exact values -> total-cost certificate -> converse energy certificate ->
    # designed stage cost -> exact values under it, which its cost bound must cover
    started = time.perf_counter()
    failures, budget_errors, ratios = [], 0, []
    for seed in range(40):
        fsys = random_finite_system(np.random.default_rng(seed))
        sys_view = fsys.to_control_system()
        states = list(range(fsys.num_states))
        ucc = extract_ucc(value_iterate(fsys, UNIT_COST), fsys, margin=1.5)
        try:
            converse = converse_pipeline(ucc, sys_view, states, horizon=64)
        except BudgetError:
            budget_errors += 1
            continue
        design = synthesize(converse.cert)
        values = value_iterate(fsys, design.stage_cost).values
        bound = design.cost_bound.eval(fsys.state_measure)
        certified = certify_ucc(design, converse.cert, sys_view, states, horizon=64)
        if not (converse.report.passed and certified.passed and np.all(values <= bound)):
            failures.append(seed)
        ratios += (values[1:] / bound[1:]).tolist()
    elapsed = time.perf_counter() - started
    closed = 40 - budget_errors - len(failures)
    _line(capsys, 10, "the paper's loop closes exactly on random finite systems", not failures,
          f"{closed} of 40 closed, {budget_errors} BudgetError, "
          f"median V'/bound {np.median(ratios):.3g}, {elapsed:.1f}s")
    assert not failures, failures
