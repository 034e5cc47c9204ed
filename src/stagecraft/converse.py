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
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .cmpfn import DEFAULT_T_GRID, KInfFn, NonnegFn, SampledKL, combine, compose, inverse_of
from .certificates import (
    DEFAULT_SLACK,
    TAIL_ZERO,
    PolicyOracle,
    UBgECCert,
    UCCCert,
    VerificationReport,
    verify,
)
from .errors import BudgetError, CertificateInvalidError, ParameterError
from .system import ControlSystem, rollout
from .system import _write_csv

__all__ = [
    "DEFAULT_STEP_CAP",
    "excursion_bound",
    "relay_bound",
    "total_bound",
    "settle_horizon",
    "StitchResult",
    "stitch_controls",
    "SettlingSchedule",
    "settling_schedule",
    "stitched_policy",
    "StateBoundBuild",
    "assemble_state_bound",
    "ConverseResult",
    "converse_pipeline",
]

DEFAULT_STEP_CAP = 10 ** 9
DEFAULT_DEPTH = 16
DEFAULT_NU_DEPTH = 48
DEFAULT_POLICY_LENGTH = 4096

_STRICTIFIER = 1e-3


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
    bound = ucc.cost_bound
    return combine(bound, compose(bound, excursion_bound(ucc)), "sum")


def total_bound(ucc: UCCCert) -> KInfFn:
    """Cost bound for the full settling schedule of hand-offs."""
    return combine(relay_bound(ucc), ucc.cost_bound, "sum")


def _within(sys: ControlSystem, x, radius: Optional[float]):
    """State measure of x and the radius a stitch starts from, checked."""
    start = sys.sigma(x)
    big_r = start if radius is None else float(radius)
    if big_r < start:
        raise ParameterError(f"radius {big_r:g} is below the sample's state measure {start:g}")
    return start, big_r


def settle_horizon(
    ucc: UCCCert,
    radius: float,
    eps: float,
    eps_tilde_factor: float = 0.5,
    step_cap: int = DEFAULT_STEP_CAP,
) -> int:
    """Steps within which a certified rollout must dip below a threshold.

    The threshold is the excursion level of ``eps_tilde_factor *
    eps``.  Each step spent above it costs at least the state gauge
    of the threshold, so the cost bound at ``radius`` cannot pay for
    more than the returned number of steps: the smallest positive
    integer at least ``cost_bound(radius) / state_gauge(threshold) - 1``.
    """
    return _Settler(ucc, eps_tilde_factor, step_cap).settle(radius, eps)


@dataclass(frozen=True)
class StitchResult:
    """One certified prefix handed off to a fresh one at the switch step."""

    controls: Tuple
    switch_step: Optional[int]
    horizon: int
    threshold: float
    bound: float


def stitch_controls(
    ucc: UCCCert,
    sys: ControlSystem,
    x,
    eps: float,
    radius: Optional[float] = None,
    eps_tilde_factor: float = 0.5,
    length: Optional[int] = None,
) -> StitchResult:
    """Follow the certified policy until it dips below the target threshold,
    then restart it from the state reached there.

    The scan must succeed within the settle horizon; failure means
    the certificate's cost accounting is inconsistent.  With an
    explicit ``length`` the returned prefix is truncated, and a scan
    window cut short by the truncation is not an error.
    """
    settler = _Settler(ucc, eps_tilde_factor)
    start, big_r = _within(sys, x, radius)
    threshold = settler.threshold(eps)
    horizon = settler.settle(big_r, eps, threshold) if big_r > 0 else 1
    out_len = horizon + ucc.policy.length if length is None else int(length)
    if out_len < 0:
        raise ParameterError(f"length must be nonnegative, got {length!r}")
    stitched, switch = settler.scan(sys, x, threshold, horizon, out_len)
    return StitchResult(
        controls=tuple(stitched),
        switch_step=switch,
        horizon=horizon,
        threshold=threshold,
        bound=settler.relay.eval(start),
    )


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
    """

    radius: float
    eps_levels: Tuple[float, ...]
    eps_targets: Tuple[float, ...]
    round_horizons: Tuple[int, ...]
    cum_horizons: Tuple[int, ...]

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


def settling_schedule(
    ucc: UCCCert,
    radius: float,
    depth: int = DEFAULT_DEPTH,
    eps_levels: Optional[Sequence[float]] = None,
    eps_tilde_factor: float = 0.5,
    step_cap: int = DEFAULT_STEP_CAP,
) -> SettlingSchedule:
    """Target sequence for settling from the given radius.

    Levels default to ``1/m``.  The round-``m`` target is clipped
    three ways: below the relay preimage of the level's stage cost,
    below the relay preimage of a geometrically shrinking share of
    the starting cost budget, and below the radius itself.  The
    clipping makes both the per-round costs and the final measures
    summable.

    Rounds whose horizon would blow the step cap are dropped: the
    schedule truncates at the last computable round.  At least the
    first round must fit under the cap.
    """
    return _Settler(ucc, eps_tilde_factor, step_cap).schedules([radius], depth, eps_levels)[0][0]


def stitched_policy(
    ucc: UCCCert,
    sys: ControlSystem,
    depth: int = DEFAULT_DEPTH,
    eps_tilde_factor: float = 0.5,
    length: int = DEFAULT_POLICY_LENGTH,
) -> PolicyOracle:
    """Concatenate stitched prefixes through the settling schedule.

    Per starting state, round ``m`` runs the stitched control for the
    round's target, truncated to the round's horizon, and states with
    zero measure fall back to the certificate's own policy.  Controls
    are built on demand: a request for ``n`` controls runs only the
    rounds that fill them, so a round's scan checks for its dip only
    when its whole window lies inside the request.  ``length`` only
    sets where the zero tail starts.
    """
    return _Settler(ucc, eps_tilde_factor).policy(sys, depth, length)


@dataclass(frozen=True)
class StateBoundBuild:
    """Assembled decay bound plus the data it came from."""

    bound: SampledKL
    schedules: Tuple[SettlingSchedule, ...]


class _Settler:
    """The converse construction for one certificate.

    Holds the state gauge and the excursion and relay bounds, built
    once.  ``schedules`` settles any number of radii with one array
    call per bound; a float call equals its entry in any array bitwise,
    so every round is the one a scalar computation gives.
    ``assemble`` keeps the schedules it builds, with the threshold of
    every round, and the stitched policy of the same certificate reuses
    them for sample states: without that hand-off the policy would
    redo each sample radius's inversions for every verified sample.
    """

    def __init__(self, ucc: UCCCert, eps_tilde_factor: float, step_cap: int = DEFAULT_STEP_CAP):
        if not 0.0 < eps_tilde_factor < 1.0:
            raise ParameterError(f"eps_tilde_factor must lie in (0, 1), got {eps_tilde_factor!r}")
        self.ucc = ucc
        self.state_gauge, _ = _gauges(ucc)
        self.excursion = excursion_bound(ucc)
        self.relay = relay_bound(ucc)
        self.eps_tilde_factor = eps_tilde_factor
        self.step_cap = step_cap
        # radius -> (schedule, round thresholds) of the last assemble
        self._built = {}
        self._built_depth = 0

    def threshold(self, eps):
        """Excursion level of ``eps_tilde_factor * eps``."""
        return self.excursion.invert(self.eps_tilde_factor * eps)

    def settle(self, radius: float, eps: float, threshold: Optional[float] = None) -> int:
        """``settle_horizon``, optionally at a threshold already computed."""
        if not (np.isfinite(radius) and radius >= 0):
            raise ParameterError(f"radius must be finite and nonnegative, got {radius!r}")
        if not (np.isfinite(eps) and eps > 0):
            raise ParameterError(f"target must be finite and positive, got {eps!r}")
        if threshold is None:
            threshold = self.threshold(eps)
        top = self.ucc.cost_bound.eval(radius)
        return self._steps(radius, eps, threshold, self.state_gauge.eval(threshold), top)

    def _steps(self, radius, eps, threshold, floor_cost, top) -> int:
        """Smallest positive integer at least ``top / floor_cost - 1``, capped."""
        if floor_cost <= 0.0:
            if top <= 0.0:
                return 1
            raise BudgetError(f"threshold {threshold:g} carries no stage cost; cannot bound steps")
        ratio = top / floor_cost
        if ratio > self.step_cap:
            raise BudgetError(
                f"settling from radius {radius:g} to target {eps:g} needs about "
                f"{ratio:.3g} steps, above the cap {self.step_cap:g}"
            )
        value = ratio - 1.0
        nearest = round(value)
        if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
            value = nearest
        return max(1, math.ceil(value))

    def schedules(self, radii: Sequence[float], depth: int, eps_levels: Optional[Sequence[float]] = None):
        """``settling_schedule`` of every radius, with the threshold of each round.

        The level costs and all budget shares go through one relay
        inversion, and all live targets through one excursion inversion;
        only the integer horizons are counted radius by radius.
        """
        for radius in radii:
            if not (np.isfinite(radius) and radius > 0):
                raise ParameterError(f"radius must be finite and positive, got {radius!r}")
        if depth < 1:
            raise ParameterError(f"depth must be at least 1, got {depth}")
        if eps_levels is None:
            levels = [1.0 / m for m in range(1, depth + 1)]
        else:
            levels = [float(e) for e in eps_levels]
            if len(levels) != depth:
                raise ParameterError(f"expected {depth} levels, got {len(levels)}")
            if any(not (0.0 < e <= 1.0) for e in levels):
                raise ParameterError("levels must lie in (0, 1]")
            if any(b >= a for a, b in zip(levels, levels[1:])):
                raise ParameterError("levels must be strictly decreasing")

        radii = np.asarray(radii, dtype=float)
        tops = self.ucc.cost_bound.eval(radii)
        shares = np.outer(tops, 2.0 ** -np.arange(1, depth + 1))
        costs = self.relay.invert(np.concatenate((self.state_gauge.eval(levels), shares.ravel())))
        by_level, by_budget = costs[:depth], costs[depth:].reshape(shares.shape)
        targets = np.minimum(np.minimum(by_level, by_budget), radii[:, None]).tolist()
        lives = [next((m for m, target in enumerate(row) if target <= 0.0), depth) for row in targets]
        if 0 in lives:
            raise BudgetError(f"round 1 target degenerated to {targets[lives.index(0)][0]!r}")
        thresholds = self.threshold(np.concatenate([row[:live] for row, live in zip(targets, lives)]))
        by_round = iter(zip(thresholds.tolist(), self.state_gauge.eval(thresholds).tolist()))
        out = []
        for radius, top, row, live in zip(radii.tolist(), tops.tolist(), targets, lives):
            rounds = list(itertools.islice(by_round, live))
            horizons = []
            for m, (threshold, floor_cost) in enumerate(rounds):
                try:
                    horizons.append(self._steps(radius, row[m], threshold, floor_cost, top))
                except BudgetError:
                    if m == 0:
                        raise
                    break
            n = len(horizons)
            schedule = SettlingSchedule(
                radius=radius,
                eps_levels=tuple(levels[:n]),
                eps_targets=tuple(row[:n]),
                round_horizons=tuple(horizons),
                cum_horizons=tuple(itertools.accumulate(horizons)),
            )
            out.append((schedule, tuple(threshold for threshold, _ in rounds[:n])))
        return out

    def scan(
        self, sys: ControlSystem, x, threshold: float, horizon: int, length: int
    ) -> Tuple[list, Optional[int]]:
        """Controls of one stitched prefix, unpriced, and its switch step.

        Follows the certified policy from ``x`` for at most
        ``min(horizon, length)`` steps until the state measure dips
        below the threshold, then restarts it from the state reached.
        """
        scan_cap = min(horizon, length)
        lead = self.ucc.policy.controls(x, scan_cap)
        state = x
        tolerance = threshold * (1.0 + 1e-12)
        for n in range(scan_cap + 1):
            if sys.sigma(state) <= tolerance:
                return list(lead[:n]) + self.ucc.policy.controls(state, length - n), n
            if n < scan_cap:
                state = sys.transition(state, lead[n])
        if scan_cap >= horizon:
            raise CertificateInvalidError(
                f"no certified state dipped below {threshold:g} within {horizon} steps "
                f"from state measure {sys.sigma(x):g}; the cost bound cannot hold"
            )
        return list(lead[:length]), None

    def policy(self, sys: ControlSystem, depth: int, length: int) -> PolicyOracle:
        """``stitched_policy``; sample radii reuse the schedules of ``assemble``.

        ``prefix(x, n)`` fills ``n`` controls round by round and stops
        there: a round cut short by ``n`` scans only the controls it
        returns, so it raises ``CertificateInvalidError`` only when its
        whole horizon fits in the request.  ``length`` is where the
        zero tail starts.

        With the default ``1/m`` levels a schedule of depth ``d`` is
        the first ``d`` rounds of a deeper one, step-cap truncation
        included, so any depth up to the assembled one can reuse it.
        """
        if length < 1:
            raise ParameterError(f"length must be positive, got {length}")
        built = self._built if 1 <= depth <= self._built_depth else {}

        def prefix(x, n):
            start = sys.sigma(x)
            if start <= 0.0:
                return self.ucc.policy.controls(x, n)
            known = built.get(float(start))
            schedule, thresholds = known if known else self.schedules([start], depth)[0]
            controls = []
            state = x
            for m in range(min(depth, schedule.depth)):
                room = n - len(controls)
                if room <= 0:
                    break
                _within(sys, state, start)
                horizon = schedule.round_horizons[m]
                block, _ = self.scan(sys, state, thresholds[m], horizon, min(horizon, room))
                controls.extend(block)
                state = rollout(sys, state, block).states[-1]
            if len(controls) < n:
                controls.extend(self.ucc.policy.controls(state, n - len(controls)))
            return controls

        return PolicyOracle(prefix=prefix, length=length, tail=TAIL_ZERO, ref="stitched")

    def assemble(self, r_values: Sequence[float], depth: int) -> StateBoundBuild:
        """``assemble_state_bound``; keeps the schedules for ``policy``."""
        radii = np.asarray(sorted(set(float(r) for r in r_values)), dtype=float)
        if radii.size < 2 or np.any(radii <= 0):
            raise ParameterError("need at least two distinct positive radii")

        built, rows = {}, []
        schedules = self.schedules(radii, depth)
        ceilings = self.excursion.eval(radii).tolist()
        for ceiling, (schedule, thresholds) in zip(ceilings, schedules):
            row = []
            for t in DEFAULT_T_GRID:
                settled = schedule.inverse(float(t))
                value = ceiling if settled is None else min(ceiling, settled)
                row.append(value + _STRICTIFIER * ceiling / (1.0 + float(t)))
            built[schedule.radius] = (schedule, thresholds)
            rows.append(row)

        values = np.maximum.accumulate(np.asarray(rows, dtype=float), axis=0)
        bound = SampledKL(r_grid=radii, t_grid=DEFAULT_T_GRID, values=values)
        self._built, self._built_depth = built, depth
        return StateBoundBuild(
            bound=bound, schedules=tuple(schedule for schedule, _ in built.values())
        )


def assemble_state_bound(
    ucc: UCCCert,
    r_values: Sequence[float],
    depth: int = DEFAULT_NU_DEPTH,
    eps_tilde_factor: float = 0.5,
) -> StateBoundBuild:
    """Decay bound on the state measure for the stitched policy.

    Rows are the given radii and columns the steps of ``DEFAULT_T_GRID``.
    Each cell takes the smaller of the excursion bound (valid at every
    step) and the settling-curve inverse (valid once enough steps have
    passed), plus a vanishing strictly-decreasing term that keeps the
    grid a valid decay bound.
    Rows are repaired to strict increase with a running maximum.
    All radii are settled in one pass, so when several fail, the error
    raised is the first that pass meets, not the smallest radius's.
    """
    return _Settler(ucc, eps_tilde_factor).assemble(r_values, depth)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConverseResult:
    """Energy-budget certificate rebuilt from a total-cost certificate."""

    cert: UBgECCert
    excursion: KInfFn
    relay: KInfFn
    total: KInfFn
    build: StateBoundBuild
    report: VerificationReport

    def to_json(self) -> dict:
        return {
            "kind": "converse",
            "excursion": self.excursion.to_json(),
            "relay": self.relay.to_json(),
            "total": self.total.to_json(),
            "state_bound": self.cert.state_bound.to_json(),
            "energy": self.cert.energy.to_json(),
            "energy_budget": self.cert.energy_budget.to_json(),
            "passed": self.report.passed,
        }

    def schedule_csv(self, fp) -> None:
        rows = [
            (s.radius, m + 1, s.eps_levels[m], s.eps_targets[m], s.round_horizons[m],
             s.cum_horizons[m])
            for s in self.build.schedules
            for m in range(s.depth)
        ]
        header = ("radius", "round", "eps_level", "eps_target", "round_horizon", "cum_horizon")
        _write_csv(fp, [header, *rows])

    def nu_csv(self, fp) -> None:
        rows = []
        for schedule in self.build.schedules:
            lo = 2.0 * schedule.floor * 1.05
            for eps in np.geomspace(lo, max(4.0, 4.0 * lo), 9):
                rows.append((schedule.radius, eps, schedule.value(eps)))
        _write_csv(fp, [("radius", "eps", "nu"), *rows])


def converse_pipeline(
    ucc: UCCCert,
    sys: ControlSystem,
    samples: Sequence,
    horizon: int = 64,
    depth: int = DEFAULT_DEPTH,
    nu_depth: int = DEFAULT_NU_DEPTH,
    eps_tilde_factor: float = 0.5,
    slack: float = DEFAULT_SLACK,
    policy_length: int = DEFAULT_POLICY_LENGTH,
) -> ConverseResult:
    """Full constructive converse, verified on the given samples.

    The total-cost certificate must assert forward invariance and
    must itself verify on the samples; both are preconditions, not
    verification failures of the result.
    """
    if not ucc.forward_invariant:
        raise ParameterError(
            "the converse construction needs a forward-invariant total-cost certificate"
        )
    _gauges(ucc)
    base_report = verify(ucc, sys, samples, horizon, slack)
    if not base_report.passed:
        worst = base_report.worst()
        raise ParameterError(
            "the total-cost certificate fails verification "
            f"({worst.inequality} margin {worst.margin:g} at sample {worst.sample})"
        )

    measures = sorted({sys.sigma(x) for x in samples if sys.sigma(x) > 0.0})
    if not measures:
        radii = [1.0, 2.0]
    elif len(measures) == 1:
        radii = [measures[0], 2.0 * measures[0]]
    else:
        radii = measures

    settler = _Settler(ucc, eps_tilde_factor)
    build = settler.assemble(radii, nu_depth)
    policy = settler.policy(sys, depth, policy_length)
    total = total_bound(ucc)
    cert = UBgECCert(
        state_bound=build.bound,
        energy=ucc.stage_cost.input_cost,
        energy_budget=total,
        domain=ucc.domain,
        policy=policy,
    )
    report = verify(cert, sys, samples, horizon, slack)
    return ConverseResult(
        cert=cert,
        excursion=settler.excursion,
        relay=settler.relay,
        total=total,
        build=build,
        report=report,
    )
