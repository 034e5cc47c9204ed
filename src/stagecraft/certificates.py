"""Controllability certificates and their sampled verification.

A certificate packages the objects that witness a controllability
property of a discrete-time system: a decay bound on the state
measure, optionally bounds on the controls or their accumulated
energy, or a bound on the total trajectory cost.  ``verify`` replays
the certified policy from sampled initial states and reports the
worst violation margin of every inequality the certificate declares.

Certificates are immutable and verification is pure.  Each kind
declares its own inequalities: its ``rows`` turn one replayed
trajectory into one worst-margin row per inequality, and its
``to_json`` records its fields.  The rows read the state and input
measures the rollout recorded, so each sample is stepped and measured
once.  On a vectorized system every sample is stepped in one walk
(``rollout_all``).  Each decay bound is evaluated once per sample, over
the whole horizon in one broadcast call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import index
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .cmpfn import (
    KInfFn,
    KLFn,
    NonnegFn,
    SampledKL,
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    inverse_of,
    kl_decompose,
    scale,
    scale_kl,
)
from .errors import ParameterError
from .system import ControlSystem, StageCost, Trajectory, rollout, rollout_all, stage_costs

__all__ = [
    "PolicyOracle",
    "UACCert",
    "UVCCert",
    "UBgECCert",
    "UCCCert",
    "MarginRow",
    "VerificationReport",
    "verify",
    "uvc_to_ubgec",
    "joint_bound_merge",
    "joint_bound_split",
    "as_state_certificate",
]

DEFAULT_SLACK = 1e-9


@dataclass(frozen=True)
class PolicyOracle:
    """Map from initial state to an unending control sequence.

    ``prefix(x, n)`` returns at most the first ``n`` controls the
    policy plans from ``x``, so a policy builds only the controls it is
    asked for.  A prefix must be prefix-closed: the first ``k`` controls
    of ``prefix(x, n)`` are ``prefix(x, k)`` for every ``k <= n``.  A
    plan that ends early is padded with ``zero_input``.
    """

    prefix: Callable[[Any, int], Sequence]
    zero_input: Any = 0.0
    ref: str = ""

    def controls(self, x, n: int) -> list:
        """First ``n`` controls for initial state ``x``."""
        if n < 0:
            raise ParameterError(f"control count must be nonnegative, got {n}")
        seq = list(self.prefix(x, n))[:n]
        return seq + [self.zero_input] * (n - len(seq))


def _always(_x) -> bool:
    return True


# the class each annotated certificate field must hold, and how to say so
_FIELD_TYPES = {
    "KLFn": (KLFn, "a KL decay bound"),
    "NonnegFn": (NonnegFn, "a nonnegative function"),
    "KInfFn": (KInfFn, "strictly increasing and unbounded"),
    "StageCost": (StageCost, "a StageCost"),
}


class _Certificate:
    """Checks, margin rows and JSON form shared by the certificate kinds.

    Each kind is a frozen dataclass that names its JSON ``kind`` and
    annotates its mathematical fields with the classes of
    ``_FIELD_TYPES``; ``domain`` and ``policy`` are opaque callables.
    """

    def __post_init__(self):
        for f in fields(self):
            if f.type in _FIELD_TYPES:
                cls, what = _FIELD_TYPES[f.type]
                if not isinstance(getattr(self, f.name), cls):
                    raise ParameterError(f"{f.name} must be {what}")
        if self.policy is None:
            raise ParameterError("a certificate needs a policy oracle")

    def rows(self, traj: Trajectory, sample: int):
        """Worst margin of each declared inequality along one replayed trajectory."""
        sig = traj.sigma
        bound = self.state_bound.eval(float(sig[0]), np.arange(len(sig), dtype=float))
        yield _worst_row(sample, "state_bound", sig, bound)

    def to_json(self) -> dict:
        """The fields plus policy metadata; ``domain`` is not recorded."""
        out = {"kind": self.kind}
        for f in fields(self):
            if f.name not in ("domain", "policy"):
                value = getattr(self, f.name)
                out[f.name] = value if isinstance(value, bool) else value.to_json()
        out["policy"] = {"ref": self.policy.ref}
        return out


@dataclass(frozen=True)
class UACCert(_Certificate):
    """State decay certificate: sigma along the trajectory stays under a KL bound."""

    kind = "uac"
    state_bound: KLFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None


@dataclass(frozen=True)
class UVCCert(_Certificate):
    """State decay plus a matching KL decay bound on the control measure."""

    kind = "uvc"
    state_bound: KLFn
    control_bound: KLFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None

    def rows(self, traj, sample):
        yield from super().rows(traj, sample)
        if len(traj):
            bound = self.control_bound.eval(float(traj.sigma[0]), np.arange(len(traj), dtype=float))
            yield _worst_row(sample, "control_bound", traj.rho, bound)


@dataclass(frozen=True)
class UBgECCert(_Certificate):
    """State decay plus a budget on accumulated control energy.

    ``energy`` prices each control through its measure; partial sums
    of priced controls must stay below ``energy_budget`` of the
    initial state measure.  ``energy`` being strictly increasing and
    unbounded (a ``KInfFn``) unlocks the stronger synthesis
    guarantees; a merely nonnegative ``energy`` is accepted.
    """

    kind = "ubgec"
    state_bound: KLFn
    energy: NonnegFn
    energy_budget: KInfFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None

    @property
    def energy_unbounded(self) -> bool:
        """Whether the energy gauge is strictly increasing and unbounded."""
        return isinstance(self.energy, KInfFn)

    def rows(self, traj, sample):
        yield from super().rows(traj, sample)
        if len(traj):
            sums = np.cumsum(self.energy.eval(traj.rho))
            budget = np.full(len(traj), self.energy_budget.eval(float(traj.sigma[0])))
            yield _worst_row(sample, "energy_budget", sums, budget, n0=1)

    def to_json(self) -> dict:
        return {**super().to_json(), "energy_unbounded": self.energy_unbounded}


@dataclass(frozen=True)
class UCCCert(_Certificate):
    """Total-cost certificate: every truncated cost stays under a bound.

    ``forward_invariant`` additionally asserts that certified
    trajectories never leave the domain, which the converse
    construction requires.
    """

    kind = "ucc"
    stage_cost: StageCost
    cost_bound: KInfFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None
    forward_invariant: bool = False

    def rows(self, traj, sample):
        if len(traj):
            sums = np.cumsum(stage_costs(self.stage_cost, traj))
            bound = np.full(len(traj), self.cost_bound.eval(float(traj.sigma[0])))
            yield _worst_row(sample, "total_cost", sums, bound, n0=1)
        if self.forward_invariant:
            inside = np.array([bool(self.domain(s)) for s in traj.states])
            # argmax picks the first state outside, or state 0 when all are inside
            yield _worst_row(sample, "invariance", (~inside).astype(float), np.zeros(inside.size))


Certificate = Union[UACCert, UVCCert, UBgECCert, UCCCert]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginRow:
    """Worst-case slack consumption of one inequality at one sample."""

    sample: int
    inequality: str
    n: int
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    horizon: int
    slack: float
    rows: Tuple[MarginRow, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(row.margin <= self.slack for row in self.rows)

    @property
    def vacuous(self) -> bool:
        return not self.rows

    def worst(self) -> Optional[MarginRow]:
        if not self.rows:
            return None
        return max(self.rows, key=lambda row: row.margin)


def _worst_row(sample: int, name: str, lhs, rhs, n0: int = 0) -> MarginRow:
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    margins = lhs - rhs
    k = int(np.argmax(margins))
    return MarginRow(sample, name, n0 + k, float(lhs[k]), float(rhs[k]), float(margins[k]))


def verify(
    cert: Certificate,
    sys: ControlSystem,
    samples: Sequence,
    horizon: int,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Replay the certified policy on each sample and collect margins.

    Each inequality of the certificate contributes one row per
    sample, carrying the worst step over the horizon.  The report
    passes when every margin is at most ``slack``.

    On a vectorized system every plan is built first and all samples
    are stepped in one walk.  If a plan or the walk would raise, the
    replay runs sample by sample instead (plan, rollout, rows), so the
    error raised is the one the first failing sample raises there.
    """
    if isinstance(horizon, bool) or not hasattr(type(horizon), "__index__"):
        raise ParameterError(f"horizon must be an integer, got {horizon!r}")
    horizon = index(horizon)
    if horizon < 0:
        raise ParameterError(f"horizon must be nonnegative, got {horizon}")
    if not 0.0 <= slack < math.inf:
        raise ParameterError(f"slack must be finite and nonnegative, got {slack!r}")
    samples = list(samples)
    for x in samples:
        if not cert.domain(x):
            raise ParameterError(f"sample {x!r} is outside the certificate domain")
    trajs = _walk(cert, sys, samples, horizon) if sys.vectorized else None
    if trajs is None:
        trajs = (rollout(sys, x, cert.policy.controls(x, horizon)) for x in samples)
    rows = tuple(row for i, traj in enumerate(trajs) for row in cert.rows(traj, i))
    return VerificationReport(
        kind=type(cert).__name__, horizon=horizon, slack=slack, rows=rows
    )


def _walk(cert: Certificate, sys: ControlSystem, samples: list, horizon: int):
    """Every sample's trajectory from one walk, or None if a plan or a step would raise."""
    try:
        plans = [cert.policy.controls(x, horizon) for x in samples]
    except Exception:  # the per-sample replay raises it after the rows of earlier samples
        return None
    return rollout_all(sys, samples, plans)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def uvc_to_ubgec(cert: UVCCert, decay: float = 0.5) -> UBgECCert:
    """Trade the control decay bound for an energy budget.

    The control bound is dominated by a separable bound with the
    given rate; pricing controls through the inverse of its outer
    warp makes each priced control decay geometrically, so the budget
    is the inner gauge scaled by the geometric-series total
    ``1 / (1 - decay)``.  The resulting energy gauge is strictly
    increasing and unbounded by construction.
    """
    if not isinstance(cert, UVCCert):
        raise ParameterError("uvc_to_ubgec expects a control-decay certificate")
    decomp = kl_decompose(cert.control_bound, decay=decay)
    return UBgECCert(
        state_bound=cert.state_bound,
        energy=inverse_of(decomp.outer),
        energy_budget=scale(1.0 / (1.0 - decay), decomp.inner),
        domain=cert.domain,
        policy=cert.policy,
    )


def as_state_certificate(cert: Union[UVCCert, UBgECCert]) -> UACCert:
    """Drop everything but the state decay bound."""
    return UACCert(state_bound=cert.state_bound, domain=cert.domain, policy=cert.policy)


def joint_bound_merge(cert: UVCCert, w1: float, w2: float, r_grid=None, t_grid=None) -> KLFn:
    """Single decay bound dominating both the state and control bounds.

    Returns the grid tabulation of
    ``max(w1, 1) * state_bound + max(w2, 1) * control_bound``,
    which dominates each summand for any nonnegative weights.
    """
    if w1 < 0 or w2 < 0:
        raise ParameterError("merge weights must be nonnegative")
    c1, c2 = max(float(w1), 1.0), max(float(w2), 1.0)
    r_grid = DEFAULT_R_GRID if r_grid is None else np.asarray(r_grid, dtype=float)
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    r, t = r_grid[:, None], t_grid[None, :]
    values = c1 * cert.state_bound.eval(r, t) + c2 * cert.control_bound.eval(r, t)
    return SampledKL(r_grid=r_grid, t_grid=t_grid, values=values)


def joint_bound_split(beta: KLFn, w1: float, w2: float) -> Tuple[KLFn, KLFn]:
    """Recover per-quantity bounds from a merged decay bound.

    Both returned bounds equal ``max(1/w1, 1/w2) * beta``; each
    dominates its share of any weighted sum that ``beta`` dominates.
    """
    if w1 <= 0 or w2 <= 0:
        raise ParameterError("split weights must be positive")
    c = max(1.0 / float(w1), 1.0 / float(w2))
    return scale_kl(beta, c), scale_kl(beta, c)
