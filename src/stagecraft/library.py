"""Built-in benchmark systems with exact hand-derived certificates.

Each entry bundles a small control system, a policy, matching decay
certificates whose bounds are tight enough to be interesting (several
hold with margin exactly zero), and its own sampling rule, fixed or random.
These are the fixtures the command line and the test suite exercise
end to end.  ``_separable`` builds the three plants with a separable state
bound: its rate is their natural decay and prices their energy budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cmpfn import DEFAULT_T_GRID, KLFn, SampledKL, SeparableKL, identity, linear
from .certificates import PolicyOracle, UBgECCert, UVCCert, uvc_to_ubgec
from .errors import ParameterError
from .oracle import FiniteSystem
from .system import ControlSystem

__all__ = ["BuiltinSystem", "BUILTIN_FACTORIES", "build_builtin", "scalar_linear",
           "two_state_linear", "finite_chain", "saturating_scalar"]


@dataclass(frozen=True)
class BuiltinSystem:
    """A system, a policy, and certificates that verify on it."""

    name: str
    system: ControlSystem
    uvc: UVCCert
    ubgec: UBgECCert
    natural_decay: float
    samples: Callable[..., list]  # (count, rng=None): a fixed spread, or draws from rng
    finite: Optional[FiniteSystem] = None


def _zero_policy() -> PolicyOracle:
    return PolicyOracle(prefix=lambda x, n: [], ref="zero")


def _signed_magnitudes(count: int, rng: Optional[np.random.Generator] = None) -> list:
    if rng is None:
        return (np.resize([1.0, -1.0], count) * np.logspace(-2.0, 2.0, count)).tolist()
    signs = rng.choice([-1.0, 1.0], size=count)
    return (signs * 10.0 ** rng.uniform(-2.0, 2.0, size=count)).tolist()


def _separable(name: str, system: ControlSystem, policy: PolicyOracle, state_bound: SeparableKL,
               control_bound: KLFn, samples: Callable[..., list]) -> BuiltinSystem:
    """A builtin whose natural decay is the rate of its separable state
    bound, with the energy-budget certificate traded at that rate."""
    uvc = UVCCert(state_bound=state_bound, control_bound=control_bound, policy=policy)
    return BuiltinSystem(name=name, system=system, uvc=uvc, samples=samples,
                         ubgec=uvc_to_ubgec(uvc, decay=state_bound.decay),
                         natural_decay=state_bound.decay)


def scalar_linear(a: float = 0.5, b: float = 1.0, gain: Optional[float] = None) -> BuiltinSystem:
    """One-dimensional linear system, open loop or under a linear gain.

    Without a gain the drift must already contract and the policy is
    all zeros; with one, the closed loop must contract and the policy
    replays the closed-loop inputs.  All bounds are exact geometric
    envelopes of the closed-loop trajectory.
    """
    a, b = float(a), float(b)
    gain = None if gain is None else float(gain)
    for key, value in (("a", a), ("b", b), ("gain", gain)):
        if value is not None and not np.isfinite(value):
            raise ParameterError(f"scalar_linear parameter {key!r} must be finite, got {value!r}")
    sys = ControlSystem(
        transition=lambda x, u: a * x + b * u,
        state_measure=abs,
        input_measure=abs,
        vectorized=True,
    )
    if gain is None:
        contraction = abs(a)
        if contraction >= 1.0:
            raise ParameterError(f"drift {a!r} does not contract; provide a gain")
        policy = _zero_policy()
        inner = identity()
    else:
        contraction = abs(a + b * gain)
        if contraction >= 1.0:
            raise ParameterError(f"closed loop {a + b * gain!r} does not contract")

        def prefix(x, n, _k=gain, _a=a, _b=b):
            # step with the same expression the plant uses so a replay
            # reproduces this exact float sequence; collapsing to the
            # closed-loop factor drifts once the open-loop drift is > 1
            controls = []
            state = float(x)
            for _ in range(n):
                u = _k * state
                controls.append(u)
                state = _a * state + _b * u
            return controls

        policy = PolicyOracle(prefix=prefix, ref="linear gain")
        inner = linear(max(abs(gain), 1e-12))
    return _separable("scalar_linear", sys, policy,
                      SeparableKL(outer=identity(), decay=contraction, inner=identity()),
                      SeparableKL(outer=identity(), decay=contraction, inner=inner),
                      _signed_magnitudes)


def two_state_linear() -> BuiltinSystem:
    """Jordan-block pair with a shared eigenvalue, open loop.

    The off-diagonal coupling makes the norm decay non-monotone step
    to step.  Since ``A = 0.5 (I + N/2)`` with ``N`` nilpotent, the
    spectral norm is ``||A^n|| = 0.5**n * (n/2 + sqrt(n**2/4 + 4)) / 2``.
    Its ratio to the declared rate ``0.7**n`` is 1 at n = 0 and at most
    0.915 (at n = 1) for n >= 1, so the envelope constant is 1.
    """
    A = np.array([[0.5, 0.25], [0.0, 0.5]])
    B = np.array([0.0, 1.0])
    sys = ControlSystem(
        # both act row by row on a stack of states; on one state they are
        # bitwise A @ x and np.linalg.norm(x), as the tests check
        transition=lambda x, u: x @ A.T + np.multiply.outer(u, B),
        state_measure=lambda x: np.sqrt(np.vecdot(x, x, axis=-1)),
        input_measure=abs,
        vectorized=True,
    )
    bound = SeparableKL(outer=identity(), decay=0.7, inner=linear(1.0))

    directions = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / np.sqrt(2.0),
        np.array([-1.0, 1.0]) / np.sqrt(2.0),
    ]

    def samples(count: int, rng: Optional[np.random.Generator] = None) -> list:
        if rng is None:
            magnitudes = np.logspace(-2.0, 2.0, count)
            return [
                directions[i % len(directions)] * float(m) for i, m in enumerate(magnitudes)
            ]
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
        return [m * np.array([np.cos(a), np.sin(a)]) for a, m in zip(angles, mags)]

    return _separable("two_state_linear", sys, _zero_policy(), bound, bound, samples)


def finite_chain(length: int = 10) -> BuiltinSystem:
    """Countdown chain on {0, ..., length-1} with inputs {0, 1}.

    Input 1 steps the state down by one (stopping at zero), input 0
    holds.  The policy pays one unit of input per unit of state, so
    energy and budget match exactly, and the hyperbolic decay bound
    is tight at every level at step zero.
    """
    if length < 2:
        raise ParameterError(f"chain needs at least 2 states, got {length}")
    xs = np.arange(length)
    successor = np.stack([xs, np.maximum(xs - 1, 0)], axis=1)
    finite = FiniteSystem(
        successor=successor,
        state_measure=xs.astype(float),
        input_measure=np.array([0.0, 1.0]),
    )
    sys = finite.to_control_system()

    def prefix(x, n):
        return [1] * min(int(x), n)

    policy = PolicyOracle(prefix=prefix, zero_input=0, ref="countdown")

    scale_k = float(length - 1)
    values = np.outer(xs.astype(float), scale_k / (scale_k + DEFAULT_T_GRID))
    bound = SampledKL(r_grid=xs.astype(float), t_grid=DEFAULT_T_GRID, values=values)

    uvc = UVCCert(state_bound=bound, control_bound=bound, policy=policy)
    ubgec = UBgECCert(
        state_bound=bound,
        energy=identity(),
        energy_budget=identity(),
        policy=policy,
    )
    return BuiltinSystem(
        name="finite_chain",
        system=sys,
        uvc=uvc,
        ubgec=ubgec,
        # the sampled bound decays hyperbolically and has no rate of its own
        natural_decay=0.5,
        samples=finite.samples,
        finite=finite,
    )


def saturating_scalar() -> BuiltinSystem:
    """Saturating scalar map with a one-step deadbeat policy.

    The drift x / (1 + x^2) is globally bounded by 1/2 in magnitude
    and below the state in magnitude, so cancelling it lands exactly
    on zero and every bound halves per step with room to spare.
    """

    def drift(x):
        # x * x, not x ** 2: on a Python float ** calls the C library's
        # pow, which can miss the rounded square by one bit (about 1 state
        # in 1,100 with glibc 2.36), while on an array ** 2 is x * x
        return x / (1.0 + x * x)

    sys = ControlSystem(
        transition=lambda x, u: drift(x) + u,
        state_measure=abs,
        input_measure=abs,
        vectorized=True,
    )
    policy = PolicyOracle(prefix=lambda x, n: [-drift(x)][:n], ref="deadbeat")
    bound = SeparableKL(outer=identity(), decay=0.5, inner=identity())
    return _separable("saturating_scalar", sys, policy, bound, bound, _signed_magnitudes)


BUILTIN_FACTORIES = {
    "scalar_linear": scalar_linear,
    "two_state_linear": two_state_linear,
    "finite_chain": finite_chain,
    "saturating_scalar": saturating_scalar,
}


def build_builtin(name: str, params: Optional[dict] = None) -> BuiltinSystem:
    """Look up a factory by name and call it with config parameters."""
    factory = BUILTIN_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(BUILTIN_FACTORIES))
        raise ParameterError(f"unknown builtin {name!r}; known: {known}")
    try:
        return factory(**(params or {}))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad parameters for builtin {name!r}: {exc}") from None
