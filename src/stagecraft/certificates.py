"""Controllability certificates and their sampled verification.

A certificate packages the objects that witness a controllability
property of a discrete-time system: a decay bound on the state
measure, optionally bounds on the controls or their accumulated
energy, or a bound on the total trajectory cost.  ``verify`` replays
the certified policy from sampled initial states and reports the
worst violation margin of every inequality the certificate declares.

Certificates are immutable and verification is pure.  Each decay
bound is evaluated once per sample, over the whole horizon in one
broadcast call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .cmpfn import (
    KInfFn,
    KLFn,
    NonnegFn,
    SampledKL,
    DEFAULT_R_GRID,
    DEFAULT_T_GRID,
    kl_decompose,
    scale,
    scale_kl,
)
from .errors import ParameterError, PolicyError
from .system import ControlSystem, StageCost, _fmt, rollout, stage_costs

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
    "cert_to_json",
]

DEFAULT_SLACK = 1e-9

TAIL_ZERO = "zero"
TAIL_REPEAT = "repeat-last"


@dataclass(frozen=True)
class PolicyOracle:
    """Map from initial state to a control sequence.

    ``prefix(x)`` returns a finite control prefix of up to ``length``
    entries.  Requests beyond the prefix follow the tail rule:
    ``"zero"`` pads with ``zero_input``, ``"repeat-last"`` repeats the
    final prefix entry, and ``None`` makes over-long requests an
    error.
    """

    prefix: Callable[[Any], Sequence]
    length: int
    tail: Optional[str] = TAIL_ZERO
    zero_input: Any = 0.0
    ref: str = ""

    def __post_init__(self):
        if self.length < 0:
            raise ParameterError(f"prefix length must be nonnegative, got {self.length}")
        if self.tail not in (TAIL_ZERO, TAIL_REPEAT, None):
            raise ParameterError(f"unknown tail rule {self.tail!r}")

    def controls(self, x, n: int) -> list:
        """First ``n`` controls for initial state ``x``."""
        if n < 0:
            raise ParameterError(f"control count must be nonnegative, got {n}")
        seq = list(self.prefix(x))
        if len(seq) > self.length:
            seq = seq[: self.length]
        if len(seq) >= n:
            return seq[:n]
        if self.tail is None:
            raise PolicyError(
                f"policy prefix has {len(seq)} controls, {n} requested and no tail rule declared"
            )
        if self.tail == TAIL_REPEAT and seq:
            pad = seq[-1]
        else:
            pad = self.zero_input
        return seq + [pad] * (n - len(seq))


def _always(_x) -> bool:
    return True


@dataclass(frozen=True)
class UACCert:
    """State decay certificate: sigma along the trajectory stays under a KL bound."""

    state_bound: KLFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None

    def __post_init__(self):
        if not isinstance(self.state_bound, KLFn):
            raise ParameterError("state_bound must be a KL decay bound")
        if self.policy is None:
            raise ParameterError("a certificate needs a policy oracle")


@dataclass(frozen=True)
class UVCCert:
    """State decay plus a matching KL decay bound on the control measure."""

    state_bound: KLFn
    control_bound: KLFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None

    def __post_init__(self):
        if not isinstance(self.state_bound, KLFn) or not isinstance(self.control_bound, KLFn):
            raise ParameterError("state_bound and control_bound must be KL decay bounds")
        if self.policy is None:
            raise ParameterError("a certificate needs a policy oracle")


@dataclass(frozen=True)
class UBgECCert:
    """State decay plus a budget on accumulated control energy.

    ``energy`` prices each control through its measure; partial sums
    of priced controls must stay below ``energy_budget`` of the
    initial state measure.  ``energy`` being strictly increasing and
    unbounded (a ``KInfFn``) unlocks the stronger synthesis
    guarantees; a merely nonnegative ``energy`` is accepted.
    """

    state_bound: KLFn
    energy: NonnegFn
    energy_budget: KInfFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None

    def __post_init__(self):
        if not isinstance(self.state_bound, KLFn):
            raise ParameterError("state_bound must be a KL decay bound")
        if not isinstance(self.energy, NonnegFn):
            raise ParameterError("energy must be a nonnegative function")
        if not isinstance(self.energy_budget, KInfFn):
            raise ParameterError("energy_budget must be strictly increasing and unbounded")
        if self.policy is None:
            raise ParameterError("a certificate needs a policy oracle")

    @property
    def energy_unbounded(self) -> bool:
        """Whether the energy gauge is strictly increasing and unbounded."""
        return isinstance(self.energy, KInfFn)


@dataclass(frozen=True)
class UCCCert:
    """Total-cost certificate: every truncated cost stays under a bound.

    ``forward_invariant`` additionally asserts that certified
    trajectories never leave the domain, which the converse
    construction requires.
    """

    stage_cost: StageCost
    cost_bound: KInfFn
    domain: Callable[[Any], bool] = _always
    policy: PolicyOracle = None
    forward_invariant: bool = False

    def __post_init__(self):
        if not isinstance(self.stage_cost, StageCost):
            raise ParameterError("stage_cost must be a StageCost")
        if not isinstance(self.cost_bound, KInfFn):
            raise ParameterError("cost_bound must be strictly increasing and unbounded")
        if self.policy is None:
            raise ParameterError("a certificate needs a policy oracle")


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

    def to_csv(self, fp) -> None:
        fp.write("sample,inequality,n,lhs,rhs,margin\r\n")
        for row in self.rows:
            fp.write(
                f"{row.sample},{row.inequality},{row.n},"
                f"{_fmt(row.lhs)},{_fmt(row.rhs)},{_fmt(row.margin)}\r\n"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "slack": self.slack,
            "passed": self.passed,
            "rows": [
                {
                    "sample": row.sample,
                    "inequality": row.inequality,
                    "n": row.n,
                    "lhs": row.lhs,
                    "rhs": row.rhs,
                    "margin": row.margin,
                }
                for row in self.rows
            ],
        }


def _worst_row(sample: int, name: str, lhs, rhs, n0: int = 0) -> Optional[MarginRow]:
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if lhs.size == 0:
        return None
    margins = lhs - rhs
    k = int(np.argmax(margins))
    return MarginRow(sample, name, n0 + k, float(lhs[k]), float(rhs[k]), float(margins[k]))


def _sample_rows(cert: Certificate, sys: ControlSystem, sample: int, x, horizon: int):
    controls = cert.policy.controls(x, horizon)
    traj = rollout(sys, x, controls)
    sig = np.array([sys.sigma(s) for s in traj.states])
    r0 = float(sig[0])
    rows = []

    if isinstance(cert, (UACCert, UVCCert, UBgECCert)):
        bound = cert.state_bound.eval(r0, np.arange(horizon + 1, dtype=float))
        rows.append(_worst_row(sample, "state_bound", sig, bound))

    if isinstance(cert, UVCCert) and horizon > 0:
        rho = np.array([sys.rho(u) for u in traj.inputs])
        bound = cert.control_bound.eval(r0, np.arange(horizon, dtype=float))
        rows.append(_worst_row(sample, "control_bound", rho, bound))

    if isinstance(cert, UBgECCert) and horizon > 0:
        rho = np.array([sys.rho(u) for u in traj.inputs])
        sums = np.cumsum(cert.energy.eval(rho))
        budget = cert.energy_budget.eval(r0)
        rows.append(_worst_row(sample, "energy_budget", sums, np.full(horizon, budget), n0=1))

    if isinstance(cert, UCCCert):
        if horizon > 0:
            sums = np.cumsum(stage_costs(sys, cert.stage_cost, traj))
            bound = cert.cost_bound.eval(r0)
            rows.append(_worst_row(sample, "total_cost", sums, np.full(horizon, bound), n0=1))
        if cert.forward_invariant:
            inside = np.array([bool(cert.domain(s)) for s in traj.states])
            bad = np.flatnonzero(~inside)
            n = int(bad[0]) if bad.size else 0
            lhs = 1.0 if bad.size else 0.0
            rows.append(MarginRow(sample, "invariance", n, lhs, 0.0, lhs))

    return [row for row in rows if row is not None]


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
    """
    if horizon < 0:
        raise ParameterError(f"horizon must be nonnegative, got {horizon}")
    if slack < 0:
        raise ParameterError(f"slack must be nonnegative, got {slack!r}")
    samples = list(samples)
    for x in samples:
        if not cert.domain(x):
            raise ParameterError(f"sample {x!r} is outside the certificate domain")
    rows = tuple(
        row for i, x in enumerate(samples) for row in _sample_rows(cert, sys, i, x, horizon)
    )
    return VerificationReport(
        kind=type(cert).__name__, horizon=horizon, slack=slack, rows=rows
    )


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def uvc_to_ubgec(cert: UVCCert, decay: float = 0.5, r_grid=None, t_grid=None) -> UBgECCert:
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
    decomp = kl_decompose(cert.control_bound, decay=decay, r_grid=r_grid, t_grid=t_grid)
    return UBgECCert(
        state_bound=cert.state_bound,
        energy=decomp.outer.inverse(),
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _policy_meta(policy: PolicyOracle) -> dict:
    return {"length": policy.length, "tail": policy.tail, "ref": policy.ref}


def cert_to_json(cert: Certificate) -> dict:
    """Serialize the mathematical content of a certificate.

    Policies and domain predicates are opaque callables; only their
    metadata is recorded.
    """
    if isinstance(cert, UACCert):
        return {
            "kind": "uac",
            "state_bound": cert.state_bound.to_json(),
            "policy": _policy_meta(cert.policy),
        }
    if isinstance(cert, UVCCert):
        return {
            "kind": "uvc",
            "state_bound": cert.state_bound.to_json(),
            "control_bound": cert.control_bound.to_json(),
            "policy": _policy_meta(cert.policy),
        }
    if isinstance(cert, UBgECCert):
        return {
            "kind": "ubgec",
            "state_bound": cert.state_bound.to_json(),
            "energy": cert.energy.to_json(),
            "energy_budget": cert.energy_budget.to_json(),
            "energy_unbounded": cert.energy_unbounded,
            "policy": _policy_meta(cert.policy),
        }
    if isinstance(cert, UCCCert):
        return {
            "kind": "ucc",
            "stage_cost": cert.stage_cost.to_json(),
            "cost_bound": cert.cost_bound.to_json(),
            "forward_invariant": cert.forward_invariant,
            "policy": _policy_meta(cert.policy),
        }
    raise ParameterError(f"unknown certificate type {type(cert).__name__}")
