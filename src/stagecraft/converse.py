"""Rebuild an energy-budget certificate from a total-cost certificate.

The construction is fully constructive.  From a total-cost
certificate whose stage cost splits into a strictly increasing state
gauge plus an input gauge, it derives

* an excursion bound capping the state measure along any certified
  rollout,
* a settle horizon within which the rollout must dip below any
  threshold, which lets certified prefixes be stitched into controls
  that settle through a schedule of shrinking targets, and
* a sampled decay bound on the state measure assembled from the
  schedule's settling times.

The output certifies that decay bound together with an energy budget
on the input gauge, using the stitched controls as its policy.

The public functions are the construction's steps, and
``converse_pipeline`` chains them: it calls ``assemble_state_bound``
and hands the schedules it returns to the stitched policy.  Each step
checks its certificate and builds the gauge and bounds once, with
``_bounds``, then passes them on to the private steps it runs.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .cmpfn import DEFAULT_T_GRID, KInfFn, NonnegFn, SampledKL, combine, compose, inverse_of
from .cmpfn import _strict_running_max
from .certificates import (
    DEFAULT_SLACK,
    PolicyOracle,
    UBgECCert,
    UCCCert,
    VerificationReport,
    verify,
)
from .errors import BudgetError, CertificateInvalidError, ParameterError
from .system import ControlSystem, _step

__all__ = [
    "excursion_bound",
    "relay_bound",
    "total_bound",
    "settle_horizon",
    "StitchResult",
    "stitch_controls",
    "SettlingSchedule",
    "settling_schedule",
    "assemble_state_bound",
    "ConverseResult",
    "converse_pipeline",
]

DEFAULT_DEPTH = 16
DEFAULT_NU_DEPTH = 48
DEFAULT_EPS_TILDE_FACTOR = 0.5

_STRICTIFIER = 1e-3
_STEP_CAP = 10 ** 9
# round m's budget share is top * 2.0**-m, and 2.0**-m is 0.0 from m = 1,075 on:
# that round's target is 0 and it is always cut, so deeper rounds only add work
_MAX_ROUNDS = 1074


def _gauges(ucc: UCCCert) -> Tuple[KInfFn, NonnegFn]:
    """State and input gauges of the certificate's stage cost."""
    if not isinstance(ucc, UCCCert):
        raise ParameterError("expected a total-cost certificate")
    cost = ucc.stage_cost
    if cost.cross_cost is not None:
        raise ParameterError("the converse construction needs a stage cost without a cross term")
    if not isinstance(cost.state_cost, KInfFn):
        raise ParameterError(
            "the converse construction needs a strictly increasing, unbounded state gauge"
        )
    if cost.input_cost is None:
        raise ParameterError("the converse construction needs an input gauge")
    return cost.state_cost, cost.input_cost


def excursion_bound(ucc: UCCCert) -> KInfFn:
    """Cap on the state measure along any certified rollout.

    Every stage cost is at least the state gauge of the current
    state, so the whole trajectory cost bounds each state: apply the
    inverse state gauge to the cost bound.
    """
    state_gauge, _ = _gauges(ucc)
    return compose(inverse_of(state_gauge), ucc.cost_bound)


def relay_bound(ucc: UCCCert) -> KInfFn:
    """Cost bound surviving one hand-off to a fresh certified prefix.

    A stitched control pays at most the cost bound before the
    hand-off state, whose measure the excursion bound caps, plus the
    cost bound from there.
    """
    return _relay(ucc, excursion_bound(ucc))


def _relay(ucc: UCCCert, excursion: KInfFn) -> KInfFn:
    """``relay_bound`` from the excursion bound already built."""
    bound = ucc.cost_bound
    return combine(bound, compose(bound, excursion), "sum")


def total_bound(ucc: UCCCert) -> KInfFn:
    """Cost bound for the full settling schedule of hand-offs."""
    return combine(relay_bound(ucc), ucc.cost_bound, "sum")


def _bounds(ucc: UCCCert, eps_tilde_factor: float) -> Tuple[KInfFn, KInfFn, KInfFn]:
    """State gauge, excursion bound and relay bound of ``ucc``, each built once.

    Checks ``eps_tilde_factor`` first and the certificate second, the
    order every public step reports them in.
    """
    if not 0.0 < eps_tilde_factor < 1.0:
        raise ParameterError(f"eps_tilde_factor must lie in (0, 1), got {eps_tilde_factor!r}")
    excursion = excursion_bound(ucc)
    return ucc.stage_cost.state_cost, excursion, _relay(ucc, excursion)


def _within(sys: ControlSystem, x, radius: Optional[float]):
    """State measure of x and the radius a stitch starts from, checked."""
    start = sys.sigma(x)
    big_r = start if radius is None else float(radius)
    if big_r < start:
        raise ParameterError(f"radius {big_r:g} is below the sample's state measure {start:g}")
    return start, big_r


def _steps(radius, eps, threshold, floor_cost, top) -> int:
    """Smallest positive integer at least ``top / floor_cost - 1``, capped."""
    if floor_cost <= 0.0:
        if top <= 0.0:
            return 1
        raise BudgetError(f"threshold {threshold:g} carries no stage cost; cannot bound steps")
    ratio = top / floor_cost
    if ratio > _STEP_CAP:
        raise BudgetError(
            f"settling from radius {radius:g} to target {eps:g} needs about "
            f"{ratio:.3g} steps, above the cap {_STEP_CAP:g}"
        )
    value = ratio - 1.0
    nearest = round(value)
    if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
        value = nearest
    return max(1, math.ceil(value))


def _settle(ucc: UCCCert, bounds, eps_tilde_factor: float, radius: float, eps: float):
    """Threshold of the target ``eps`` and the settle horizon from ``radius``."""
    if not (np.isfinite(radius) and radius >= 0):
        raise ParameterError(f"radius must be finite and nonnegative, got {radius!r}")
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"target must be finite and positive, got {eps!r}")
    state_gauge, excursion, _ = bounds
    threshold = excursion.invert(eps_tilde_factor * eps)
    top = ucc.cost_bound.eval(radius)
    return threshold, _steps(radius, eps, threshold, state_gauge.eval(threshold), top)


def settle_horizon(
    ucc: UCCCert,
    radius: float,
    eps: float,
    eps_tilde_factor: float = DEFAULT_EPS_TILDE_FACTOR,
) -> int:
    """Steps within which a certified rollout must dip below a threshold.

    The threshold is the excursion level of ``eps_tilde_factor *
    eps``.  Each step spent above it costs at least the state gauge
    of the threshold, so the cost bound at ``radius`` cannot pay for
    more than the returned number of steps: the smallest positive
    integer at least ``cost_bound(radius) / state_gauge(threshold) - 1``.
    """
    return _settle(ucc, _bounds(ucc, eps_tilde_factor), eps_tilde_factor, radius, eps)[1]


@dataclass(frozen=True)
class StitchResult:
    """One certified prefix handed off to a fresh one at the switch step."""

    controls: Tuple
    switch_step: Optional[int]
    horizon: int
    threshold: float
    bound: float


def _scan(
    ucc: UCCCert, sys: ControlSystem, x, threshold: float, horizon: int, length: int
) -> Tuple[list, Optional[int], object]:
    """Controls of one stitched prefix, unpriced, its switch step and
    the state the controls reach.

    Follows the certified policy from ``x`` for at most
    ``min(horizon, length)`` steps until the state measure dips
    below the threshold, then restarts it from the state reached.
    Each control is applied once, with the non-finite-state check of
    ``rollout``; only the lead's states are measured, since only they
    are checked against the threshold.
    """
    scan_cap = min(horizon, length)
    lead = ucc.policy.controls(x, scan_cap)
    state = x
    tolerance = threshold * (1.0 + 1e-12)
    for n in range(scan_cap + 1):
        if sys.sigma(state) <= tolerance:
            tail = ucc.policy.controls(state, length - n)
            for k, u in enumerate(tail):
                state = _step(sys, state, u, k)
            return list(lead[:n]) + list(tail), n, state
        if n < scan_cap:
            state = _step(sys, state, lead[n], n)
    if scan_cap >= horizon:
        raise CertificateInvalidError(
            f"no certified state dipped below {threshold:g} within {horizon} steps "
            f"from state measure {sys.sigma(x):g}; the cost bound cannot hold"
        )
    return list(lead), None, state


def stitch_controls(
    ucc: UCCCert,
    sys: ControlSystem,
    x,
    eps: float,
    radius: Optional[float] = None,
    eps_tilde_factor: float = DEFAULT_EPS_TILDE_FACTOR,
) -> StitchResult:
    """Follow the certified policy until it dips below the target threshold,
    then restart it from the state reached there.

    Returns the settle horizon's worth of controls.  The scan must
    succeed within the settle horizon; failure means the certificate's
    cost accounting is inconsistent.
    """
    bounds = _bounds(ucc, eps_tilde_factor)
    start, big_r = _within(sys, x, radius)
    threshold, horizon = _settle(ucc, bounds, eps_tilde_factor, big_r, eps)
    stitched, switch, _ = _scan(ucc, sys, x, threshold, horizon, horizon)
    return StitchResult(tuple(stitched), switch, horizon, threshold, bounds[2].eval(start))


@dataclass(frozen=True)
class SettlingSchedule:
    """Shrinking targets and per-round horizons for one starting radius.

    Round ``m`` (1-based) drives the state measure below
    ``eps_targets[m-1]`` within ``round_horizons[m-1]`` further
    steps; after ``cum_horizons[m-1]`` total steps the measure stays
    below ``eps_levels[m-1]``.

    The schedule is also a smoothed settling-time curve.
    ``count(eps)`` is the scheduled step count after which the state
    measure stays below ``eps``; it is a nonincreasing step function
    of ``eps``.  ``value(eps)`` averages the count over
    ``[eps/2, eps]`` and adds ``radius / eps``, which makes it
    strictly decreasing and continuous, hence invertible.

    Only the radius, targets and round horizons define the curve: the
    levels are ``1/m`` and the cumulative horizons the running sums,
    both derived once here.  ``thresholds`` holds the excursion level
    each round of the stitched policy scans for; a schedule built by
    hand for its curve alone may leave it empty.
    """

    radius: float
    eps_targets: Tuple[float, ...]
    round_horizons: Tuple[int, ...]
    thresholds: Tuple[float, ...] = ()
    eps_levels: Tuple[float, ...] = field(init=False)
    cum_horizons: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        depth = len(self.round_horizons)
        if len(self.eps_targets) != depth or len(self.thresholds) not in (0, depth):
            raise ParameterError(f"{depth} round horizons need {depth} targets and 0 or {depth} "
                                 f"thresholds, got {len(self.eps_targets)}, {len(self.thresholds)}")
        object.__setattr__(self, "eps_levels", _levels(depth))
        object.__setattr__(self, "cum_horizons", tuple(itertools.accumulate(self.round_horizons)))

    @property
    def depth(self) -> int:
        return len(self.eps_levels)

    @property
    def floor(self) -> float:
        """Largest target with a computable count."""
        return self.eps_levels[-1]

    def count(self, eps: float) -> int:
        """Scheduled steps to stay below eps: the cumulative horizon of
        the first level strictly inside the target."""
        if eps <= self.floor:
            raise ParameterError(
                f"target {eps:g} is at or below the schedule floor {self.floor:g}"
            )
        # eps_levels descend: find the first level strictly below eps
        return self.cum_horizons[bisect.bisect_right(self.eps_levels, -eps, key=operator.neg)]

    def value(self, eps: float) -> float:
        if eps / 2.0 <= self.floor:
            raise ParameterError(
                f"averaging window of target {eps:g} dips below the schedule floor"
            )
        a, b = eps / 2.0, eps
        cuts = sorted({a, b} | {e for e in self.eps_levels if a < e < b})
        integral = 0.0
        for left, right in zip(cuts, cuts[1:]):
            integral += (right - left) * self.count(0.5 * (left + right))
        return (2.0 / eps) * integral + self.radius / eps

    def inverse(self, steps: float) -> Optional[float]:
        """Largest measure guaranteed after the given step count.

        Returns None when the step count is too small to say anything
        (below the first cumulative horizon) or too large for the
        schedule's depth.
        """
        base = float(self.cum_horizons[0])
        if steps <= base:
            return None
        knee = base + self.radius / 2.0
        if steps <= knee:
            return self.radius / (steps - base)
        lo = 2.0 * self.floor * (1.0 + 1e-9)
        hi = 2.0
        if self.value(lo) < steps:
            return None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.value(mid) >= steps:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * hi:
                break
        return 0.5 * (lo + hi)


def _levels(depth: int) -> Tuple[float, ...]:
    """The level ``1/m`` of each round ``m`` of a schedule ``depth`` rounds deep."""
    return tuple(1.0 / m for m in range(1, depth + 1))


def settling_schedule(
    ucc: UCCCert,
    radius: float,
    depth: int = DEFAULT_DEPTH,
    eps_tilde_factor: float = DEFAULT_EPS_TILDE_FACTOR,
) -> SettlingSchedule:
    """Target sequence for settling from the given radius.

    Round ``m`` has level ``1/m``.  Its target is clipped three ways:
    below the relay preimage of the level's stage cost, below the
    relay preimage of a geometrically shrinking share of the starting
    cost budget, and below the radius itself.  The clipping makes both
    the per-round costs and the final measures summable.

    Rounds whose horizon would blow the step cap are dropped: the
    schedule truncates at the last computable round.  At least the
    first round must fit under the cap.
    """
    return _schedules(ucc, _bounds(ucc, eps_tilde_factor), eps_tilde_factor, [radius], depth)[0]


def _schedules(
    ucc: UCCCert, bounds, eps_tilde_factor: float, radii: Sequence[float], depth: int
) -> list:
    """``settling_schedule`` of every radius, with the threshold of each round.

    One relay inversion gives the level costs and budget shares, one
    excursion inversion all thresholds; a float call equals its entry
    in any array bitwise.  A schedule ends before the first round whose
    target is not positive or whose horizon ``_steps`` refuses, and in
    round 1 either raises ``BudgetError``.
    """
    for radius in radii:
        if not (np.isfinite(radius) and radius > 0):
            raise ParameterError(f"radius must be finite and positive, got {radius!r}")
    if depth < 1:
        raise ParameterError(f"depth must be at least 1, got {depth}")
    depth = min(depth, _MAX_ROUNDS)

    state_gauge, excursion, relay = bounds
    radii = np.asarray(radii, dtype=float)
    tops = ucc.cost_bound.eval(radii)
    shares = np.outer(tops, 2.0 ** -np.arange(1, depth + 1))
    costs = relay.invert(np.concatenate((state_gauge.eval(_levels(depth)), shares.ravel())))
    by_level, by_budget = costs[:depth], costs[depth:].reshape(shares.shape)
    targets = np.minimum(np.minimum(by_level, by_budget), radii[:, None])
    thresholds = excursion.invert(eps_tilde_factor * targets)
    floors = state_gauge.eval(thresholds)
    out = []
    for radius, top, row, row_thresholds, row_floors in zip(
            radii.tolist(), tops.tolist(), targets.tolist(), thresholds.tolist(), floors.tolist()):
        horizons = []
        for m, (target, threshold, floor_cost) in enumerate(zip(row, row_thresholds, row_floors)):
            try:
                if target <= 0.0:
                    raise BudgetError(f"round {m + 1} target degenerated to {target!r}")
                horizons.append(_steps(radius, target, threshold, floor_cost, top))
            except BudgetError:
                if m == 0:
                    raise
                break
        n = len(horizons)
        out.append(SettlingSchedule(radius, tuple(row[:n]), tuple(horizons),
                                    tuple(row_thresholds[:n])))
    return out


def _policy(
    ucc: UCCCert, bounds, eps_tilde_factor: float, sys: ControlSystem, depth: int, built: dict
) -> PolicyOracle:
    """Concatenate stitched prefixes through the settling schedule.

    Per starting state, round ``m`` runs the stitched control for the
    round's target, truncated to the round's horizon, and states with
    zero measure fall back to the certificate's own policy.
    ``prefix(x, n)`` fills ``n`` controls round by round, then from
    the certificate's own policy after the last round, and stops
    there: a round cut short by ``n`` scans only the controls it
    returns, so it raises ``CertificateInvalidError`` only when its
    whole horizon fits in the request.

    ``built`` maps radii to schedules already settled, at least
    ``depth`` rounds deep: a schedule of depth ``d`` is the first ``d``
    rounds of a deeper one, step-cap truncation included.  Other radii
    are settled on demand with ``bounds``.
    """

    def prefix(x, n):
        start = sys.sigma(x)
        if start <= 0.0:
            return ucc.policy.controls(x, n)
        schedule = built.get(float(start))
        if schedule is None:
            schedule = _schedules(ucc, bounds, eps_tilde_factor, [start], depth)[0]
        controls = []
        state = x
        for m in range(min(depth, schedule.depth)):
            room = n - len(controls)
            if room <= 0:
                break
            _within(sys, state, start)
            horizon = schedule.round_horizons[m]
            block, _, state = _scan(
                ucc, sys, state, schedule.thresholds[m], horizon, min(horizon, room)
            )
            controls.extend(block)
        if len(controls) < n:
            controls.extend(ucc.policy.controls(state, n - len(controls)))
        return controls

    return PolicyOracle(prefix=prefix, ref="stitched")


def assemble_state_bound(
    ucc: UCCCert,
    r_values: Sequence[float],
    depth: int = DEFAULT_NU_DEPTH,
    eps_tilde_factor: float = DEFAULT_EPS_TILDE_FACTOR,
) -> Tuple[SampledKL, Tuple[SettlingSchedule, ...]]:
    """Decay bound on the state measure for the stitched policy, and the
    settling schedule of each radius.

    Rows are the given radii and columns the steps of ``DEFAULT_T_GRID``.
    Each cell takes the smaller of the excursion bound (valid at every
    step) and the settling-curve inverse (valid once enough steps have
    passed), plus a vanishing strictly-decreasing term that keeps the
    grid a valid decay bound.
    Rows are repaired to strict increase with a running maximum that
    lifts each tie by one double.  All radii are settled in one pass from
    the smallest, so when several fail, the smallest failing radius raises.
    """
    bounds = _bounds(ucc, eps_tilde_factor)
    radii = np.asarray(sorted(set(float(r) for r in r_values)), dtype=float)
    if radii.size < 2 or np.any(radii <= 0):
        raise ParameterError("need at least two distinct positive radii")

    schedules = tuple(_schedules(ucc, bounds, eps_tilde_factor, radii, depth))
    rows = []
    for ceiling, schedule in zip(bounds[1].eval(radii).tolist(), schedules):
        row = []
        for t in DEFAULT_T_GRID:
            settled = schedule.inverse(float(t))
            value = ceiling if settled is None else min(ceiling, settled)
            row.append(value + _STRICTIFIER * ceiling / (1.0 + float(t)))
        rows.append(row)

    values = _strict_running_max(np.asarray(rows, dtype=float))
    return SampledKL(r_grid=radii, t_grid=DEFAULT_T_GRID, values=values), schedules


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConverseResult:
    """Energy-budget certificate rebuilt from a total-cost certificate."""

    cert: UBgECCert
    excursion: KInfFn
    relay: KInfFn
    schedules: Tuple[SettlingSchedule, ...]
    report: VerificationReport

    def to_json(self) -> dict:
        budget = self.cert.energy_budget.to_json()
        return {
            "kind": "converse",
            "excursion": self.excursion.to_json(),
            "relay": self.relay.to_json(),
            "total": budget,
            "state_bound": self.cert.state_bound.to_json(),
            "energy": self.cert.energy.to_json(),
            "energy_budget": budget,
            "passed": self.report.passed,
        }


def converse_pipeline(
    ucc: UCCCert,
    sys: ControlSystem,
    samples: Sequence,
    horizon: int = 64,
    depth: int = DEFAULT_DEPTH,
    nu_depth: int = DEFAULT_NU_DEPTH,
    eps_tilde_factor: float = DEFAULT_EPS_TILDE_FACTOR,
    slack: float = DEFAULT_SLACK,
) -> ConverseResult:
    """Full constructive converse, verified on the given samples.

    The total-cost certificate must assert forward invariance and
    must itself verify on the samples; both are preconditions, not
    verification failures of the result.  ``depth`` and ``nu_depth``
    are checked before either verify, since a sample of measure zero
    runs no round that would check them.
    """
    if not ucc.forward_invariant:
        raise ParameterError(
            "the converse construction needs a forward-invariant total-cost certificate"
        )
    _gauges(ucc)
    for name, value in (("depth", depth), ("nu_depth", nu_depth)):
        if value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")
    base_report = verify(ucc, sys, samples, horizon, slack)
    if not base_report.passed:
        worst = base_report.worst()
        raise ParameterError(
            "the total-cost certificate fails verification "
            f"({worst.inequality} margin {worst.margin:g} at sample {worst.sample})"
        )

    # the bound needs two radii: one measure m pads to (m, 2m), none gives (1, 2)
    measures = sorted({m for m in map(sys.sigma, samples) if m > 0.0}) or [1.0]
    radii = measures if len(measures) > 1 else [measures[0], 2.0 * measures[0]]

    bound, schedules = assemble_state_bound(ucc, radii, nu_depth, eps_tilde_factor)
    bounds = _bounds(ucc, eps_tilde_factor)
    _, excursion, relay = bounds
    # without the hand-off the policy would settle each sample radius again per sample
    built = {schedule.radius: schedule for schedule in schedules} if depth <= nu_depth else {}
    cert = UBgECCert(
        state_bound=bound,
        energy=ucc.stage_cost.input_cost,
        energy_budget=combine(relay, ucc.cost_bound, "sum"),
        domain=ucc.domain,
        policy=_policy(ucc, bounds, eps_tilde_factor, sys, depth, built),
    )
    report = verify(cert, sys, samples, horizon, slack)
    return ConverseResult(cert, excursion, relay, schedules, report)
