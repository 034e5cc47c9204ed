"""Discrete-time control systems, rollouts, and stage costs.

A system is a deterministic transition map together with two scalar
gauges: a state measure ``x -> sigma >= 0`` and an input measure
``u -> rho >= 0``.  Everything downstream (certificates, synthesis,
cost accounting) sees states and inputs only through these gauges, so
state and input types are opaque: scalars, tuples, numpy vectors all
work as long as the transition map accepts them.

Costs are accumulated per stage.  ``total_cost_limit`` estimates the
infinite-horizon sum by rolling out a long finite horizon and declaring
convergence when the last quarter of the horizon contributes less than
a tolerance; the estimate reports whether that happened.
"""

from __future__ import annotations

import csv
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
    "CostLimit",
    "rollout",
    "stage_costs",
    "total_cost",
    "total_cost_limit",
    "write_trajectory_csv",
]

INFINITY_HORIZON = 2048
TAIL_TOL = 1e-10


def _fmt(v):
    """17 significant digits, enough to round-trip a double."""
    return f"{float(v):.17g}"


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
    state_info: str = ""
    input_info: str = ""

    def sigma(self, x):
        v = float(self.state_measure(x))
        if not (v >= 0.0 and np.isfinite(v)):
            raise SimulationError(f"state measure returned {v!r}, expected a finite nonnegative value")
        return v

    def rho(self, u):
        v = float(self.input_measure(u))
        if not (v >= 0.0 and np.isfinite(v)):
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

    def replay(self, sys: ControlSystem) -> bool:
        """Re-run the transition map and compare states exactly."""
        x = self.states[0]
        for k, u in enumerate(self.inputs):
            x = sys.transition(x, u)
            if not np.array_equal(np.asarray(x, dtype=float), np.asarray(self.states[k + 1], dtype=float)):
                return False
        return True


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

    def evaluate(self, sys: ControlSystem, x, u) -> float:
        return self.of_measures(sys.sigma(x), sys.rho(u))

    def to_json(self) -> dict:
        return {
            "kind": "stage_cost",
            "state_cost": None if self.state_cost is None else self.state_cost.to_json(),
            "input_cost": None if self.input_cost is None else self.input_cost.to_json(),
            "has_cross": self.cross_cost is not None,
        }


def _measures(sys: ControlSystem, traj: Trajectory):
    """State measures of the states that inputs act on, and the input measures."""
    sigma = np.array([sys.sigma(x) for x in traj.states[:-1]], dtype=float)
    rho = np.array([sys.rho(u) for u in traj.inputs], dtype=float)
    return sigma, rho


def stage_costs(sys: ControlSystem, cost: StageCost, traj: Trajectory) -> np.ndarray:
    return cost.of_measures(*_measures(sys, traj))


def total_cost(sys: ControlSystem, cost: StageCost, traj: Trajectory) -> float:
    return float(np.sum(stage_costs(sys, cost, traj)))


@dataclass(frozen=True)
class CostLimit:
    """Infinite-horizon cost estimate from a truncated rollout."""

    value: float
    converged: bool
    steps: int


def total_cost_limit(
    sys: ControlSystem,
    cost: StageCost,
    x0,
    controls: Sequence,
    n_max: int = INFINITY_HORIZON,
    tail_tol: float = TAIL_TOL,
) -> CostLimit:
    """Sum stage costs until the tail stops contributing.

    Convergence is checked at doubling horizons: the sum is accepted at
    horizon k once steps 3k/4..k add at most ``tail_tol`` relative to
    max(1, total).  If no horizon up to ``n_max`` passes, the full sum
    is returned flagged as unconverged.
    """
    n = min(int(n_max), len(controls))
    if n <= 0:
        raise ParameterError("need at least one control to estimate a cost limit")
    traj = rollout(sys, x0, controls, n)
    cum = np.concatenate(([0.0], np.cumsum(stage_costs(sys, cost, traj))))
    k = 4
    while k <= n:
        tail = cum[k] - cum[3 * k // 4]
        if tail <= tail_tol * max(1.0, cum[k]):
            return CostLimit(value=float(cum[k]), converged=True, steps=k)
        k *= 2
    return CostLimit(value=float(cum[n]), converged=False, steps=n)


def write_trajectory_csv(sys: ControlSystem, cost: Optional[StageCost], traj: Trajectory, fp) -> None:
    """One row per stage: n, sigma, rho, stage_cost, cumulative_cost.

    Numbers are written with 17 significant digits so the file
    round-trips doubles exactly; rows end with CRLF.
    """
    sigma, rho = _measures(sys, traj)
    costs = np.zeros(len(traj)) if cost is None else cost.of_measures(sigma, rho)
    rows = zip(sigma.tolist(), rho.tolist(), costs.tolist(), np.cumsum(costs).tolist())
    writer = csv.writer(fp)
    writer.writerow(["n", "sigma", "rho", "stage_cost", "cumulative_cost"])
    for k, row in enumerate(rows):
        writer.writerow([str(k), *map(_fmt, row)])
