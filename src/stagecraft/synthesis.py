"""Stage-cost synthesis from energy-budget certificates.

Given a certificate with a state decay bound and a control energy
budget, ``synthesize`` builds a stage cost (state gauge plus control
gauge) together with a strictly increasing bound on every truncated
trajectory cost.  ``admit_interaction`` extends the stage cost by an
opaque cross term once the term's declared envelope survives a grid
check, and ``transient_split`` handles cross terms that are only
well-behaved below a state-measure radius, paying for the excursions
above the radius with a separate burst budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cmpfn import (
    DEFAULT_R_GRID,
    KInfFn,
    NonnegFn,
    SeparableKL,
    _finite_positive,
    combine,
    compose,
    const_fn,
    inverse_of,
    kl_decompose,
    linear,
    pointwise_min,
    scale,
    strict_table,
)
from .certificates import DEFAULT_SLACK, UBgECCert, UCCCert, VerificationReport, verify
from .errors import (
    ChoiceRejectedError,
    InteractionRejectedError,
    NonContractionError,
    ParameterError,
)
from .system import ControlSystem, StageCost

__all__ = [
    "TransientData",
    "InteractionSpec",
    "SynthesisResult",
    "synthesize",
    "to_ucc_cert",
    "certify_ucc",
    "admit_interaction",
    "admissible_wrapper",
    "TransientSplit",
    "transient_split",
]

COUNT_SEARCH_CAP = 2 ** 20


@dataclass(frozen=True)
class TransientData:
    """Envelope for a cross term above a state-measure radius.

    For state measures at or above ``radius`` the cross term must
    stay under ``state_rate(sigma) + input_rate(rho)``.
    """

    radius: float
    state_rate: KInfFn
    input_rate: KInfFn

    def __post_init__(self):
        _finite_positive(self.radius, "transient radius")
        if not isinstance(self.state_rate, KInfFn) or not isinstance(self.input_rate, KInfFn):
            raise ParameterError("transient rates must be strictly increasing and unbounded")


@dataclass(frozen=True)
class InteractionSpec:
    """Opaque cross term with its declared admissibility envelope.

    ``cross`` maps a (state measure, input measure) pair to a
    nonnegative cost contribution.  The declared envelope is

        c_state * inv_outer(sigma) + c_input * energy(rho)
          + c_cross * inv_outer(sigma) * gain(rho)

    where ``inv_outer`` and ``energy`` come from the certificate this
    spec is admitted against.  When ``transient`` data is present the
    envelope only has to hold below the transient radius.
    """

    cross: Callable[[float, float], float]
    c_state: float = 0.0
    c_input: float = 0.0
    c_cross: float = 0.0
    gain: Optional[KInfFn] = None
    transient: Optional[TransientData] = None

    def __post_init__(self):
        if not callable(self.cross):
            raise ParameterError("cross must be callable on (sigma, rho)")
        for name in ("c_state", "c_input", "c_cross"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.c_cross > 0 and not isinstance(self.gain, KInfFn):
            raise ParameterError("a cross-product coefficient needs a strictly increasing gain")
        if self.transient is not None and not isinstance(self.transient, TransientData):
            raise ParameterError("transient must be TransientData")

    def to_json(self) -> dict:
        return {
            "kind": "interaction",
            "c_state": self.c_state,
            "c_input": self.c_input,
            "c_cross": self.c_cross,
            "gain": None if self.gain is None else self.gain.to_json(),
            "transient": None
            if self.transient is None
            else {
                "radius": self.transient.radius,
                "state_rate": self.transient.state_rate.to_json(),
                "input_rate": self.transient.input_rate.to_json(),
            },
        }


@dataclass(frozen=True)
class SynthesisResult:
    """Stage cost plus total-cost bound, with how they were built."""

    stage_cost: StageCost
    cost_bound: KInfFn
    decomposition: SeparableKL
    state_coeff: float
    input_coeff: float
    interaction: Optional[InteractionSpec] = None

    @property
    def provenance(self) -> dict:
        record = {
            "decay": self.decomposition.decay,
            "inner": self.decomposition.inner.to_json(),
            "outer": self.decomposition.outer.to_json(),
            "state_coeff": self.state_coeff,
            "input_coeff": self.input_coeff,
        }
        if self.interaction is not None:
            record["interaction"] = self.interaction.to_json()
        return record

    def to_json(self) -> dict:
        return {
            "kind": "synthesis",
            "stage_cost": self.stage_cost.to_json(),
            "cost_bound": self.cost_bound.to_json(),
            "provenance": self.provenance,
        }


def _cost_bound(decomp: SeparableKL, cert: UBgECCert, c_state, c_input, spec=None) -> NonnegFn:
    """``(c_state / (1 - decay)) * inner + c_input * budget``, plus the
    cross-product term of ``spec`` when it has one, dropping zero weights."""
    terms = [(c_state / (1.0 - decomp.decay), decomp.inner), (c_input, cert.energy_budget)]
    if spec is not None and spec.c_cross > 0:
        terms.append((1.0, _cross_product_term(spec, decomp, cert)))
    live = [f if c == 1.0 else scale(float(c), f) for c, f in terms if c > 0]
    if not live:
        return const_fn(0.0)
    total = live[0]
    for f in live[1:]:
        total = combine(total, f, "sum")
    return total


def _check_dominates(candidate, reference, coeff, what):
    grid = DEFAULT_R_GRID
    cv = np.asarray(candidate.eval(grid), dtype=float)
    rv = coeff * np.asarray(reference.eval(grid), dtype=float)
    gap = cv - rv
    k = int(np.argmax(gap))
    if gap[k] > DEFAULT_SLACK:
        raise ChoiceRejectedError(
            f"{what} exceeds its ceiling at r={grid[k]:g}: {cv[k]:g} > {rv[k]:g} + {DEFAULT_SLACK:g}"
        )


def synthesize(
    cert: UBgECCert,
    decay: float = 0.5,
    state_coeff: float = 1.0,
    input_coeff: float = 1.0,
    state_cost: Optional[KInfFn] = None,
    input_cost: Optional[NonnegFn] = None,
) -> SynthesisResult:
    """Build a stage cost whose truncated totals the certificate can pay for.

    The state decay bound is dominated by a separable bound at the
    given rate.  The default state gauge is the inverse of the outer
    warp; the default input gauge is the certificate's energy.
    Either may be replaced by a candidate that stays below
    ``coeff * default`` on ``DEFAULT_R_GRID``, and the total-cost bound

        (state_coeff / (1 - decay)) * inner + input_coeff * budget

    scales accordingly.
    """
    if not isinstance(cert, UBgECCert):
        raise ParameterError("synthesize expects an energy-budget certificate")
    _finite_positive(state_coeff, "state_coeff")
    _finite_positive(input_coeff, "input_coeff")
    decomp = kl_decompose(cert.state_bound, decay=decay)
    inv_outer = inverse_of(decomp.outer)

    if state_cost is None:
        state_cost = inv_outer
    else:
        if not isinstance(state_cost, KInfFn):
            raise ParameterError("a state gauge must be strictly increasing and unbounded")
        _check_dominates(state_cost, inv_outer, state_coeff, "state gauge")

    if input_cost is None:
        input_cost = cert.energy
    else:
        if not isinstance(input_cost, NonnegFn):
            raise ParameterError("an input gauge must be a nonnegative function")
        _check_dominates(input_cost, cert.energy, input_coeff, "input gauge")

    return SynthesisResult(
        stage_cost=StageCost(state_cost=state_cost, input_cost=input_cost),
        cost_bound=_cost_bound(decomp, cert, state_coeff, input_coeff),
        decomposition=decomp,
        state_coeff=float(state_coeff),
        input_coeff=float(input_coeff),
    )


def to_ucc_cert(
    result: SynthesisResult, cert: UBgECCert, forward_invariant: bool = False
) -> UCCCert:
    """Package a synthesis result as a total-cost certificate."""
    return UCCCert(
        stage_cost=result.stage_cost,
        cost_bound=result.cost_bound,
        domain=cert.domain,
        policy=cert.policy,
        forward_invariant=forward_invariant,
    )


def certify_ucc(
    result: SynthesisResult,
    cert: UBgECCert,
    sys: ControlSystem,
    samples,
    horizon: int,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Check every truncated cost of the certified policy against the bound."""
    return verify(to_ucc_cert(result, cert), sys, samples, horizon, slack)


# ---------------------------------------------------------------------------
# interaction terms
# ---------------------------------------------------------------------------


# state and input measures of the interaction checks: the origin, then DEFAULT_R_GRID
_MEASURE_GRID = np.concatenate(([0.0], DEFAULT_R_GRID))


def _envelope_values(spec: InteractionSpec, inv_outer, energy, sig, rho) -> np.ndarray:
    """Declared envelope on the (sigma, rho) grid, shaped (len(sig), len(rho))."""
    inv_sig = np.asarray(inv_outer.eval(sig), dtype=float)
    rho_part = spec.c_input * np.asarray(energy.eval(rho), dtype=float)
    total = (spec.c_state * inv_sig)[:, None] + rho_part[None, :]
    if spec.c_cross > 0:
        gain = np.asarray(spec.gain.eval(rho), dtype=float)
        total += spec.c_cross * inv_sig[:, None] * gain[None, :]
    return total


def _reject_gap(gap, sig, rho, envelope: str) -> None:
    """Raise at the worst (sigma, rho) grid point if ``gap`` exceeds ``DEFAULT_SLACK``."""
    if np.max(gap) > DEFAULT_SLACK:
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise InteractionRejectedError(
            f"cross term breaks {envelope} at sigma={sig[i]:g}, rho={rho[j]:g} by {gap[i, j]:g}"
        )


def _check_regimes(spec, inv_outer, energy):
    """Grid falsification of the declared envelopes; raises on violation.

    Sampling cannot prove the envelope, only fail to falsify it.
    """
    sig = rho = _MEASURE_GRID
    cross = np.array([[float(spec.cross(s, p)) for p in rho] for s in sig])
    if np.any(cross < 0) or not np.all(np.isfinite(cross)):
        raise InteractionRejectedError("cross term must be finite and nonnegative")

    small = np.ones(sig.size, dtype=bool)
    if spec.transient is not None:
        small = sig < spec.transient.radius
        large = ~small
        if np.any(large):
            bound = (
                np.asarray(spec.transient.state_rate.eval(sig[large]), dtype=float)[:, None]
                + np.asarray(spec.transient.input_rate.eval(rho), dtype=float)[None, :]
            )
            _reject_gap(cross[large] - bound, sig[large], rho, "the excursion envelope")
    if np.any(small):
        bound = _envelope_values(spec, inv_outer, energy, sig[small], rho)
        _reject_gap(cross[small] - bound, sig[small], rho, "its declared envelope")


def _cross_product_term(spec: InteractionSpec, decomp: SeparableKL, cert: UBgECCert):
    """The (c_cross / (1 - decay)) * inner * (gain o energy^-1 o budget) term."""
    wrap = compose(spec.gain, compose(inverse_of(cert.energy), cert.energy_budget))
    product = combine(decomp.inner, wrap, "product")
    return scale(spec.c_cross / (1.0 - decomp.decay), product)


def admit_interaction(
    spec: InteractionSpec,
    base: SynthesisResult,
    cert: UBgECCert,
) -> SynthesisResult:
    """Extend a synthesized stage cost by an admissible cross term.

    The cross term's declared envelope is checked on a measure grid;
    passing inflates the total-cost bound to

        ((state_coeff + c_state) / (1 - decay)) * inner
          + (input_coeff + c_input) * budget
          + (c_cross / (1 - decay)) * inner * (gain o energy^-1 o budget).
    """
    if not isinstance(spec, InteractionSpec):
        raise ParameterError("admit_interaction expects an InteractionSpec")
    if spec.transient is not None:
        raise ParameterError(
            "cross terms with transient data go through transient_split instead"
        )
    if not cert.energy_unbounded:
        raise ParameterError(
            "admitting interactions needs a strictly increasing, unbounded energy gauge"
        )
    decomp = base.decomposition
    inv_outer = inverse_of(decomp.outer)
    _check_regimes(spec, inv_outer, cert.energy)

    cost_bound = _cost_bound(
        decomp, cert, base.state_coeff + spec.c_state, base.input_coeff + spec.c_input, spec
    )
    return SynthesisResult(
        stage_cost=StageCost(
            state_cost=base.stage_cost.state_cost,
            input_cost=base.stage_cost.input_cost,
            cross_cost=spec.cross,
        ),
        cost_bound=cost_bound,
        decomposition=decomp,
        state_coeff=base.state_coeff,
        input_coeff=base.input_coeff,
        interaction=spec,
    )


def admissible_wrapper(
    state_gauge: KInfFn, input_gauge: KInfFn, outer: KInfFn, energy: KInfFn
) -> KInfFn:
    """Wrapper making ``wrap(state_gauge(sigma) + input_gauge(rho))`` admissible.

    The returned function satisfies, by construction,
    ``wrap(2 * state_gauge(r)) <= outer^-1(r)`` and
    ``wrap(2 * input_gauge(r)) <= energy(r)``, so the wrapped sum is
    an admissible cross term with unit state and input coefficients
    and no cross-product part.
    """
    for name, fn in (
        ("state_gauge", state_gauge),
        ("input_gauge", input_gauge),
        ("outer", outer),
        ("energy", energy),
    ):
        if not isinstance(fn, KInfFn):
            raise ParameterError(f"{name} must be strictly increasing and unbounded")
    half = linear(0.5)
    via_state = compose(inverse_of(outer), compose(inverse_of(state_gauge), half))
    via_input = compose(energy, compose(inverse_of(input_gauge), half))
    return pointwise_min(via_state, via_input)


# ---------------------------------------------------------------------------
# transient split
# ---------------------------------------------------------------------------


def _excursion_count(beta, radius: float, r: float) -> int:
    """Smallest n with beta(r, n) < radius, by one array ``eval`` per doubling block."""
    # an array eval of 64 steps costs about what one step does
    lo, hi = 0, 64
    while lo <= COUNT_SEARCH_CAP:
        steps = np.arange(lo, min(hi, COUNT_SEARCH_CAP + 1), dtype=float)
        below = np.flatnonzero(beta.eval(r, steps) < radius)
        if below.size:
            return lo + int(below[0])
        lo, hi = hi, 2 * hi
    raise NonContractionError(
        f"decay bound never drops below {radius:g} at r={r:g} "
        f"within {COUNT_SEARCH_CAP} steps"
    )


@dataclass(frozen=True)
class TransientSplit:
    """Cost budgets for the excursion and settled phases.

    ``count(r)`` caps how many steps the state measure can spend at
    or above the radius; ``burst_bound(r)`` prices those steps and
    ``settled_bound`` prices the rest.  ``total_bound`` is a strictly
    increasing envelope of their sum on the construction grid.
    """

    total_bound: KInfFn
    settled_bound: NonnegFn
    burst_bound: Callable[[float], float]
    count: Callable[[float], int]
    radius: float


def transient_split(
    spec: InteractionSpec,
    cert: UBgECCert,
    decay: float = 0.5,
) -> TransientSplit:
    """Budget a radius-gated cross term by splitting rollouts at the radius.

    Above the radius the term obeys the excursion envelope and the
    state decay bound caps the number of such steps; below it the
    declared small-measure envelope applies.  Both grid checks must
    pass, otherwise the declaration is rejected.
    """
    if spec.transient is None:
        raise ParameterError("transient_split needs an InteractionSpec with transient data")
    if not cert.energy_unbounded:
        raise ParameterError(
            "transient budgeting needs a strictly increasing, unbounded energy gauge"
        )
    data = spec.transient
    decomp = kl_decompose(cert.state_bound, decay=decay)
    inv_outer = inverse_of(decomp.outer)
    _check_regimes(spec, inv_outer, cert.energy)

    beta = cert.state_bound
    inv_energy = inverse_of(cert.energy)

    def count(r: float) -> int:
        return _excursion_count(beta, data.radius, float(r))

    def burst_bound(r: float) -> float:
        r = float(r)
        n = count(r)
        if n == 0:
            return 0.0
        per_state = data.state_rate.eval(beta.eval(r, 0.0))
        per_input = data.input_rate.eval(inv_energy.eval(cert.energy_budget.eval(r)))
        return n * (per_state + per_input)

    settled = _cost_bound(decomp, cert, spec.c_state, spec.c_input, spec)
    grid = DEFAULT_R_GRID
    joint = np.array([burst_bound(r) + settled.eval(r) for r in grid])
    shifted = np.empty_like(joint)
    shifted[:-1] = joint[1:]
    shifted[-1] = joint[-1]
    shifted = np.maximum.accumulate(shifted) + 1e-9 * grid
    total = strict_table(grid, shifted)

    return TransientSplit(
        total_bound=total,
        settled_bound=settled,
        burst_bound=burst_bound,
        count=count,
        radius=data.radius,
    )
