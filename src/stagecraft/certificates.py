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
``to_json`` records its fields.  Each decay bound is evaluated once per
sample, over the whole horizon in one broadcast call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
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
from .system import ControlSystem, StageCost, _write_csv, rollout, stage_costs

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

    ``prefix(x, n)`` returns at most the first ``n`` controls of a
    finite prefix, and ``controls`` never asks it for more than
    ``length``, so a policy builds only the controls it is asked for.
    A prefix must be prefix-closed: the first ``k`` controls of
    ``prefix(x, n)`` are ``prefix(x, k)`` for every ``k <= n``.
    Requests beyond ``length`` or beyond a shorter prefix follow the
    tail rule: ``"zero"`` pads with ``zero_input``, ``"repeat-last"``
    repeats the final prefix entry, and ``None`` makes over-long
    requests an error.
    """

    prefix: Callable[[Any, int], Sequence]
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
        asked = min(n, self.length)
        seq = list(self.prefix(x, asked))[:asked]
        if len(seq) == n:
            return seq
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

    def rows(self, sys: ControlSystem, traj, sig: np.ndarray, sample: int):
        """Worst margin of each declared inequality along one replayed
        trajectory ``traj`` whose state measures are ``sig``."""
        bound = self.state_bound.eval(float(sig[0]), np.arange(len(sig), dtype=float))
        yield _worst_row(sample, "state_bound", sig, bound)

    def to_json(self) -> dict:
        """The fields plus policy metadata; ``domain`` is not recorded."""
        out = {"kind": self.kind}
        for f in fields(self):
            if f.name not in ("domain", "policy"):
                value = getattr(self, f.name)
                out[f.name] = value if isinstance(value, bool) else value.to_json()
        policy = self.policy
        out["policy"] = {"length": policy.length, "tail": policy.tail, "ref": policy.ref}
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

    def rows(self, sys, traj, sig, sample):
        yield from super().rows(sys, traj, sig, sample)
        if len(traj):
            rho = np.array([sys.rho(u) for u in traj.inputs])
            bound = self.control_bound.eval(float(sig[0]), np.arange(len(traj), dtype=float))
            yield _worst_row(sample, "control_bound", rho, bound)


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

    def rows(self, sys, traj, sig, sample):
        yield from super().rows(sys, traj, sig, sample)
        if len(traj):
            rho = np.array([sys.rho(u) for u in traj.inputs])
            sums = np.cumsum(self.energy.eval(rho))
            budget = np.full(len(traj), self.energy_budget.eval(float(sig[0])))
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

    def rows(self, sys, traj, sig, sample):
        if len(traj):
            sums = np.cumsum(stage_costs(sys, self.stage_cost, traj))
            bound = np.full(len(traj), self.cost_bound.eval(float(sig[0])))
            yield _worst_row(sample, "total_cost", sums, bound, n0=1)
        if self.forward_invariant:
            inside = np.array([bool(self.domain(s)) for s in traj.states])
            bad = np.flatnonzero(~inside)
            n = int(bad[0]) if bad.size else 0
            lhs = 1.0 if bad.size else 0.0
            yield MarginRow(sample, "invariance", n, lhs, 0.0, lhs)


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
        header = [f.name for f in fields(MarginRow)]
        _write_csv(fp, [header, *map(attrgetter(*header), self.rows)])

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "slack": self.slack,
            "passed": self.passed,
            "rows": [asdict(row) for row in self.rows],
        }


def _worst_row(sample: int, name: str, lhs, rhs, n0: int = 0) -> MarginRow:
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    margins = lhs - rhs
    k = int(np.argmax(margins))
    return MarginRow(sample, name, n0 + k, float(lhs[k]), float(rhs[k]), float(margins[k]))


def _sample_rows(cert: Certificate, sys: ControlSystem, sample: int, x, horizon: int):
    traj = rollout(sys, x, cert.policy.controls(x, horizon))
    sig = np.array([sys.sigma(s) for s in traj.states])
    return cert.rows(sys, traj, sig, sample)


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
    if not 0.0 <= slack < math.inf:
        raise ParameterError(f"slack must be finite and nonnegative, got {slack!r}")
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


def cert_to_json(cert: Certificate) -> dict:
    """Serialize the mathematical content of a certificate.

    Policies and domain predicates are opaque callables; only their
    metadata is recorded.
    """
    if not isinstance(cert, _Certificate):
        raise ParameterError(f"unknown certificate type {type(cert).__name__}")
    return cert.to_json()
