"""ODE integration of the learned velocity field from noise (t=0) to data (t=1).

The network's target-space output is converted to a velocity with the same
clamped denominator used in training; with k = 0.5 the conversion collapses
to doubling the output, so sampling coincides with plain velocity
prediction.  Trajectories are independent across the batch dimension.

``integrate`` steps any net over the batch.  A linear net's field is linear
in the state, so integrating the D x D identity gives the transposed
propagator G^T of the whole run, and ``z0 @ G^T`` maps any number of noise
rows for the cost of ``steps`` D x D steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .kdiff import KParam, u_to_v


@dataclass(frozen=True)
class SampleRun:
    """Integration grid and solver choice: ``steps`` uniform steps on [0, 1].

    ``clamp_floor`` bounds the target-to-velocity conversion's denominator
    away from 0, as in training, and must lie in (0, 1).
    """

    steps: int = 50
    solver: str = "heun"
    clamp_floor: float = 0.05

    def __post_init__(self):
        if self.solver not in ("euler", "heun"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.clamp_floor < 1.0:
            raise ValueError("clamp_floor must lie in (0, 1)")

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.steps + 1)


def _k_at(kparam, t: float) -> float:
    return kparam.value(t) if isinstance(kparam, KParam) else float(kparam)


def _velocity(z, t: float, net, kparam, clamp_floor: float):
    u_hat = net.forward(z, np.full(len(z), t))
    if kparam is None:
        return u_hat
    return u_to_v(u_hat, z, t, _k_at(kparam, t), clamp_floor)


def _check_finite(z, t_next: float):
    if not np.all(np.isfinite(z)):
        raise NonFiniteState(f"state became non-finite at t = {t_next:g}")


def euler_step(z, t: float, t_next: float, net, kparam, clamp_floor: float = 0.05):
    """One explicit Euler step of the velocity field."""
    if not t < t_next:
        raise ValueError(f"need t < t_next, got {t} >= {t_next}")
    z = np.asarray(z, dtype=np.float64)
    z_next = z + (t_next - t) * _velocity(z, t, net, kparam, clamp_floor)
    _check_finite(z_next, t_next)
    return z_next


def heun_step(z, t: float, t_next: float, net, kparam, clamp_floor: float = 0.05):
    """One Heun (trapezoidal predictor-corrector) step of the velocity field."""
    if not t < t_next:
        raise ValueError(f"need t < t_next, got {t} >= {t_next}")
    z = np.asarray(z, dtype=np.float64)
    dt = t_next - t
    slope = _velocity(z, t, net, kparam, clamp_floor)
    z_pred = z + dt * slope
    slope_next = _velocity(z_pred, t_next, net, kparam, clamp_floor)
    z_next = z + 0.5 * dt * (slope + slope_next)
    _check_finite(z_next, t_next)
    return z_next


def integrate(run: SampleRun, net, kparam, z0) -> np.ndarray:
    """Integrate initial states through the full time grid."""
    z = np.asarray(z0, dtype=np.float64)
    step = euler_step if run.solver == "euler" else heun_step
    grid = run.time_grid()
    for t, t_next in zip(grid[:-1], grid[1:]):
        z = step(z, float(t), float(t_next), net, kparam, run.clamp_floor)
    return z
