"""Discrete-time control systems, rollouts, and stage costs.

A system is a deterministic transition map together with two scalar
gauges: a state measure ``x -> sigma >= 0`` and an input measure
``u -> rho >= 0``.  Everything downstream (certificates, synthesis,
cost accounting) sees states and inputs only through these gauges, so
state and input types are opaque: scalars, tuples, numpy vectors all
work as long as the transition map accepts them.

``rollout`` and ``rollout_all`` are the one place a trajectory is
stepped and measured: they record the measure of every state and
input, and everything that reads a trajectory (certificate rows, stage
costs) reads those measures instead of calling the gauges again.

A system may declare itself ``vectorized``: its transition and both
gauges then also take arrays with a leading sample axis, and each row
acts independently, bit for bit as a call on that row alone.
``rollout_all`` uses this to step many samples with one call per step.

Costs are accumulated per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cmpfn import KInfFn, NonnegFn
from .errors import ParameterError, SimulationError

__all__ = [
    "ControlSystem",
    "Trajectory",
    "StageCost",
    "rollout",
    "rollout_all",
    "stage_costs",
]


def _isfinite_state(x):
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    try:
        return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))
    except (TypeError, ValueError):
        return False


def _step(sys, x, u, k: int):
    """State after applying ``u``, input ``k``, to ``x``; SimulationError if it is not finite."""
    x = sys.transition(x, u)
    if not _isfinite_state(x):
        raise SimulationError(f"state became non-finite after applying input {k}", step=k)
    return x


@dataclass(frozen=True)
class ControlSystem:
    """Deterministic transition with scalar state/input gauges.

    With ``vectorized`` set, ``transition(X, U)``, ``state_measure(X)``
    and ``input_measure(U)`` also accept float64 arrays whose leading
    axis runs over samples.  Row ``i`` of each result must equal, bit for
    bit, the call on row ``i`` alone, whatever the other rows hold.
    """

    transition: Callable
    state_measure: Callable
    input_measure: Callable
    vectorized: bool = False

    def sigma(self, x):
        v = float(self.state_measure(x))
        if not (v >= 0.0 and math.isfinite(v)):
            raise SimulationError(f"state measure returned {v!r}, expected a finite nonnegative value")
        return v

    def rho(self, u):
        v = float(self.input_measure(u))
        if not (v >= 0.0 and math.isfinite(v)):
            raise SimulationError(f"input measure returned {v!r}, expected a finite nonnegative value")
        return v


@dataclass(frozen=True)
class Trajectory:
    """A rollout: n+1 states, the n inputs that produced them, and the
    float arrays ``sigma`` and ``rho`` of their measures."""

    states: tuple
    inputs: tuple
    sigma: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        counts = tuple(map(len, (self.states, self.sigma, self.inputs, self.rho)))
        if not counts[0] == counts[1] == counts[2] + 1 == counts[3] + 1:
            raise ParameterError(
                "a trajectory needs one more state than inputs and one measure per state and "
                "per input, got %d states, %d state measures, %d inputs and %d input measures" % counts
            )

    def __len__(self):
        return len(self.inputs)


def rollout(sys: ControlSystem, x0, controls: Sequence) -> Trajectory:
    """Apply every control starting from ``x0``, measuring each state and input.

    Raises SimulationError (carrying the offending step) as soon as the
    state leaves the finite range, rather than propagating NaNs, and
    when a measure is negative or not finite.
    """
    if not _isfinite_state(x0):
        raise SimulationError("initial state is not finite", step=0)
    states, sigma, rho = [x0], [sys.sigma(x0)], []
    for k, u in enumerate(controls):
        states.append(_step(sys, states[-1], u, k))
        sigma.append(sys.sigma(states[-1]))
        rho.append(sys.rho(u))
    sigma, rho = np.array(sigma, dtype=float), np.array(rho, dtype=float)
    return Trajectory(tuple(states), tuple(controls), sigma, rho)


def rollout_all(sys: ControlSystem, samples: Sequence, plans: Sequence) -> Optional[tuple]:
    """``rollout`` of every sample under its plan, stepped together on a vectorized system.

    The plans share one length; samples and controls are read as float64
    arrays.  One Python loop over time calls ``transition`` once per step
    for all samples, then one call of each gauge and one check cover
    every state and input.  Returns ``rollout``'s trajectories bit for
    bit, or None where ``rollout`` could raise for some sample (a
    non-finite state, a negative or non-finite measure, or a call or
    float operation that raises): replaying ``rollout`` sample by sample
    then raises the exact error.
    """
    try:
        with np.errstate(all="raise", under="ignore"):
            states = [np.asarray(samples, dtype=float)]
            controls = np.asarray(plans, dtype=float).swapaxes(0, 1)
            for u in controls:
                states.append(sys.transition(states[-1], u))
            X = np.array(states, dtype=float)
            sigma = sys.state_measure(X.reshape(-1, *X.shape[2:]))
            rho = sys.input_measure(controls.reshape(-1, *controls.shape[2:]))
            sigma = np.asarray(sigma, dtype=float).reshape(X.shape[:2])
            rho = np.asarray(rho, dtype=float).reshape(controls.shape[:2])
    except Exception:  # rollout, replayed per sample, raises it with its step
        return None
    measures = np.concatenate((sigma.ravel(), rho.ravel()))
    if not (np.isfinite(X).all() and np.all((measures >= 0.0) & (measures < math.inf))):
        return None
    return tuple(
        Trajectory((x0, *X[1:, i]), tuple(plan), sigma[:, i], rho[:, i])
        for i, (x0, plan) in enumerate(zip(samples, plans))
    )


@dataclass(frozen=True)
class StageCost:
    """Per-stage cost ``state_cost(sigma) + input_cost(rho) + cross_cost(sigma, rho)``.

    Any of the three parts may be omitted.  The two single-gauge parts
    are comparison functions so their shape is known; the cross term is
    a plain callable for costs that couple the gauges.
    """

    state_cost: Optional[KInfFn] = None
    input_cost: Optional[NonnegFn] = None
    cross_cost: Optional[Callable] = None

    def __post_init__(self):
        if self.state_cost is None and self.input_cost is None and self.cross_cost is None:
            raise ParameterError("a stage cost needs at least one nonzero part")

    def of_measures(self, sigma, rho):
        """Stage cost at state measure ``sigma`` and input measure ``rho``.

        The two arguments broadcast; two scalars give a ``float``.  The
        parts are added in the order ``0.0 + state + input + cross``, so
        every entry equals its own scalar call bitwise, and the opaque
        cross term is called once per entry, in C order, with Python
        floats.  Raises SimulationError naming the first entry that is
        negative or not finite.
        """
        sigma = np.asarray(sigma, dtype=float)
        rho = np.asarray(rho, dtype=float)
        grid = np.broadcast_arrays(sigma, rho)
        total = np.zeros(grid[0].shape)
        if self.state_cost is not None:
            total = total + self.state_cost.eval(sigma)
        if self.input_cost is not None:
            total = total + self.input_cost.eval(rho)
        if self.cross_cost is not None:
            pairs = zip(*(a.ravel().tolist() for a in grid))
            total = total + np.reshape([float(self.cross_cost(s, r)) for s, r in pairs], total.shape)
        bad = ~((total >= 0.0) & np.isfinite(total))
        if bad.any():
            k = np.unravel_index(np.argmax(bad), total.shape)
            raise SimulationError(
                f"stage cost evaluated to {float(total[k])!r} "
                f"at sigma={float(grid[0][k])}, rho={float(grid[1][k])}"
            )
        return float(total) if total.ndim == 0 else total

    def to_json(self) -> dict:
        return {
            "kind": "stage_cost",
            "state_cost": None if self.state_cost is None else self.state_cost.to_json(),
            "input_cost": None if self.input_cost is None else self.input_cost.to_json(),
            "has_cross": self.cross_cost is not None,
        }


def stage_costs(cost: StageCost, traj: Trajectory) -> np.ndarray:
    """Cost of each stage, from the recorded measures of its state and its input."""
    return cost.of_measures(traj.sigma[:-1], traj.rho)
