"""Built-in benchmark systems with exact hand-derived certificates.

Each entry bundles a small control system, a policy, matching decay
certificates whose bounds are tight enough to be interesting (several
hold with margin exactly zero), and a deterministic sample generator.
These are the fixtures the command line and the test suite exercise
end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cmpfn import SampledKL, SeparableKL, identity, linear
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
    samples: Callable[[int], list]
    finite: Optional[FiniteSystem] = None

    @property
    def policy(self) -> PolicyOracle:
        return self.uvc.policy


def _zero_policy() -> PolicyOracle:
    return PolicyOracle(prefix=lambda x, n: [], length=0, tail="zero", ref="zero")


def _signed_logspace(count: int, lo: float = -2.0, hi: float = 2.0) -> list:
    magnitudes = np.logspace(lo, hi, count)
    return [float(m) if i % 2 == 0 else -float(m) for i, m in enumerate(magnitudes)]


def scalar_linear(a: float = 0.5, b: float = 1.0, gain: Optional[float] = None) -> BuiltinSystem:
    """One-dimensional linear system, open loop or under a linear gain.

    Without a gain the drift must already contract and the policy is
    all zeros; with one, the closed loop must contract and the policy
    replays the closed-loop inputs.  All bounds are exact geometric
    envelopes of the closed-loop trajectory.
    """
    a, b = float(a), float(b)
    sys = ControlSystem(
        transition=lambda x, u: a * x + b * u,
        state_measure=abs,
        input_measure=abs,
    )
    if gain is None:
        contraction = abs(a)
        if contraction >= 1.0:
            raise ParameterError(f"drift {a!r} does not contract; provide a gain")
        policy = _zero_policy()
        control_bound = SeparableKL(outer=identity(), decay=contraction, inner=identity())
    else:
        gain = float(gain)
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

        policy = PolicyOracle(prefix=prefix, length=512, tail="zero", ref="linear gain")
        control_bound = SeparableKL(
            outer=identity(), decay=contraction, inner=linear(max(abs(gain), 1e-12))
        )
    state_bound = SeparableKL(outer=identity(), decay=contraction, inner=identity())
    uvc = UVCCert(state_bound=state_bound, control_bound=control_bound, policy=policy)
    return BuiltinSystem(
        name="scalar_linear",
        system=sys,
        uvc=uvc,
        ubgec=uvc_to_ubgec(uvc, decay=contraction),
        natural_decay=contraction,
        samples=_signed_logspace,
    )


def two_state_linear() -> BuiltinSystem:
    """Jordan-block pair with a shared eigenvalue, open loop.

    The off-diagonal coupling makes the norm decay non-monotone step
    to step, so the envelope constant is the largest ratio of the
    matrix-power norm to the declared rate over a long horizon.
    """
    decay = 0.7
    A = np.array([[0.5, 0.25], [0.0, 0.5]])
    B = np.array([0.0, 1.0])
    sys = ControlSystem(
        transition=lambda x, u: A @ np.asarray(x, dtype=float) + B * float(u),
        state_measure=lambda x: float(np.linalg.norm(np.asarray(x, dtype=float))),
        input_measure=abs,
    )
    powers = np.array(list(itertools.accumulate(itertools.repeat(A, 60), np.matmul)))
    # Python's float pow, which numpy's array power need not match bitwise
    rates = np.array([decay ** n for n in range(1, 61)])
    growth = max(1.0, float(np.max(np.linalg.norm(powers, 2, axis=(1, 2)) / rates)))
    bound = SeparableKL(outer=identity(), decay=decay, inner=linear(growth))
    uvc = UVCCert(state_bound=bound, control_bound=bound, policy=_zero_policy())

    directions = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / np.sqrt(2.0),
        np.array([-1.0, 1.0]) / np.sqrt(2.0),
    ]

    def samples(count: int) -> list:
        magnitudes = np.logspace(-2.0, 2.0, count)
        return [
            directions[i % len(directions)] * float(m) for i, m in enumerate(magnitudes)
        ]

    return BuiltinSystem(
        name="two_state_linear",
        system=sys,
        uvc=uvc,
        ubgec=uvc_to_ubgec(uvc, decay=decay),
        natural_decay=decay,
        samples=samples,
    )


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

    policy = PolicyOracle(prefix=prefix, length=length - 1, tail="zero", zero_input=0, ref="countdown")

    scale_k = float(length - 1)
    t_grid = np.arange(65, dtype=float)
    values = np.outer(xs.astype(float), scale_k / (scale_k + t_grid))
    bound = SampledKL(r_grid=xs.astype(float), t_grid=t_grid, values=values)

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
        natural_decay=0.5,
        samples=lambda count: [int(i % length) for i in range(count)],
        finite=finite,
    )


def saturating_scalar() -> BuiltinSystem:
    """Saturating scalar map with a one-step deadbeat policy.

    The drift x / (1 + x^2) is globally bounded by 1/2 in magnitude
    and below the state in magnitude, so cancelling it lands exactly
    on zero and every bound halves per step with room to spare.
    """

    def drift(x: float) -> float:
        return float(x) / (1.0 + float(x) ** 2)

    sys = ControlSystem(
        transition=lambda x, u: drift(x) + float(u),
        state_measure=abs,
        input_measure=abs,
    )
    policy = PolicyOracle(
        prefix=lambda x, n: [-drift(x)][:n], length=1, tail="zero", ref="deadbeat"
    )
    bound = SeparableKL(outer=identity(), decay=0.5, inner=identity())
    uvc = UVCCert(state_bound=bound, control_bound=bound, policy=policy)
    return BuiltinSystem(
        name="saturating_scalar",
        system=sys,
        uvc=uvc,
        ubgec=uvc_to_ubgec(uvc, decay=0.5),
        natural_decay=0.5,
        samples=_signed_logspace,
    )


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
