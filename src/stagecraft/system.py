"""Discrete-time control systems, rollouts, and stage costs.

A system is a deterministic transition map together with two scalar
gauges: a state measure ``x -> sigma >= 0`` and an input measure
``u -> rho >= 0``.  Everything downstream (certificates, synthesis,
cost accounting) sees states and inputs only through these gauges, so
state and input types are opaque: scalars, tuples, numpy vectors all
work as long as the transition map accepts them.

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
    "stage_costs",
    "total_cost",
]


def _write_csv(fp, rows) -> None:
    """Write each row as one CSV line ending in CRLF.

    Floats, numpy floats included, take 17 significant digits, enough to
    round-trip a double; any other value is written with ``str``.
    """
    for row in rows:
        cells = ["%.17g" % v if isinstance(v, (float, np.floating)) else str(v) for v in row]
        fp.write(",".join(cells) + "\r\n")


def _isfinite_state(x):
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    try:
        return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class ControlSystem:
    """Deterministic transition with scalar state/input gauges."""

    transition: Callable
    state_measure: Callable
    input_measure: Callable

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
    """A rollout: n+1 states and the n inputs that produced them."""

    states: tuple
    inputs: tuple

    def __post_init__(self):
        if len(self.states) != len(self.inputs) + 1:
            raise ParameterError(
                f"a trajectory needs one more state than inputs, got {len(self.states)} states and {len(self.inputs)} inputs"
            )

    def __len__(self):
        return len(self.inputs)


def rollout(sys: ControlSystem, x0, controls: Sequence, n: Optional[int] = None) -> Trajectory:
    """Apply ``n`` controls starting from ``x0``.

    Raises SimulationError (carrying the offending step) as soon as the
    state leaves the finite range, rather than propagating NaNs.
    """
    if n is None:
        n = len(controls)
    if n > len(controls):
        raise ParameterError(f"asked for {n} steps but only {len(controls)} controls are available")
    if not _isfinite_state(x0):
        raise SimulationError("initial state is not finite", step=0)
    states = [x0]
    x = x0
    for k in range(n):
        x = sys.transition(x, controls[k])
        if not _isfinite_state(x):
            raise SimulationError(f"state became non-finite after applying input {k}", step=k)
        states.append(x)
    return Trajectory(states=tuple(states), inputs=tuple(controls[:n]))


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


def stage_costs(sys: ControlSystem, cost: StageCost, traj: Trajectory) -> np.ndarray:
    """Cost of each stage, from the measures of the state an input acts on and of the input."""
    sigma = np.array([sys.sigma(x) for x in traj.states[:-1]], dtype=float)
    rho = np.array([sys.rho(u) for u in traj.inputs], dtype=float)
    return cost.of_measures(sigma, rho)


def total_cost(sys: ControlSystem, cost: StageCost, traj: Trajectory) -> float:
    return float(np.sum(stage_costs(sys, cost, traj)))
