"""Trainer with a learnable prediction-target parameter.

The network regresses ``u = k x - (1 - k) e`` from ``z = t x + (1 - t) e``
under flow matching, where ``k = sigmoid(w_k)`` is either a trainable scalar
or a piecewise-linear function of t over N bins.  The loss is either the
plain target MSE ("u") or the velocity MSE ("v_alg1").  Converting target and
prediction to velocities with ``u_to_v`` adds the same (1 - 2k) z to both and
divides both by den = max(k (1 - t) + (1 - k) t, clamp_floor), so the
velocity residual is the target residual divided by den: "v_alg1" is the
target MSE weighted by kappa^2 = 1 / den^2.  Gradients are hand-derived, and
k's gradient flows through the target and the denominator, with the clamp
contributing zero subgradient where active.

A training run is single-threaded and deterministic given its seed; seed
sweeps can run as independent processes.  ``train`` allocates the step's
(batch, D) scratch arrays once per run and every step writes its elementwise
temporaries into them; a step never writes into the data batch, the noise
draw, the network's output or a gradient it has returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteLoss
from .geometry import sample_data
from .schedule import UNIFORM_MEASURE, TimeMeasure, sample_t
from .seeding import derive_rng

CLAMP_FLOOR = 0.05  # the default floor of the velocity conversion's denominator


def _sigmoid(x: float) -> float:
    """Logistic sigmoid of one float, bit for bit ``scipy.special.expit``.

    Both compute 1 / (1 + exp(-x)) with the C library's exp; numpy's
    vectorised exp differs in the last bit on some inputs.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < k_init < 1, got {p}")
    return math.log(p / (1.0 - p))


class KParam:
    """Learnable prediction-target parameter, k = sigmoid(raw).

    Constant mode holds a single pre-sigmoid scalar; binned mode holds one
    value per knot t_i = i/N and evaluates k(t) by linear interpolation of
    the sigmoid-transformed knots, so k is continuous and piecewise linear
    and stays strictly inside (0, 1) for finite raw values.
    """

    def __init__(self, raw):
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim > 1:
            raise ValueError("raw must be a scalar or a 1-d knot vector")
        if raw.ndim == 1 and raw.size < 2:
            raise ValueError("binned mode needs at least 2 knots")
        self.raw = raw

    @classmethod
    def constant(cls, k_init: float) -> "KParam":
        return cls(np.asarray(_logit(k_init)))

    @classmethod
    def binned(cls, n_bins: int, k_init: float) -> "KParam":
        return cls(np.full(n_bins + 1, _logit(k_init)))

    @property
    def is_binned(self) -> bool:
        return self.raw.ndim == 1

    @property
    def n_bins(self) -> int:
        return self.raw.size - 1 if self.is_binned else 1

    def knots(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.raw.size if self.is_binned else 2)

    def _knot_k(self) -> np.ndarray:
        """k at each knot: the sigmoid of each raw value."""
        return np.array([_sigmoid(r) for r in self.raw.tolist()])

    def value(self, t):
        """k(t); scalar in, scalar out."""
        tt = np.asarray(t, dtype=np.float64)
        if not self.is_binned:
            out = np.full(tt.shape, _sigmoid(float(self.raw)))
        else:
            out = np.interp(tt, self.knots(), self._knot_k())
        if np.ndim(t) == 0:
            return float(out)
        return out

    def grad_raw(self, t, dloss_dk) -> np.ndarray:
        """Chain per-sample dloss/dk back to the pre-sigmoid parameters.

        Binned mode distributes each sample's contribution to its two
        bracketing knots by the interpolation weights.
        """
        dloss_dk = np.asarray(dloss_dk, dtype=np.float64)
        if not self.is_binned:
            s = _sigmoid(float(self.raw))
            return np.asarray(float(np.sum(dloss_dk)) * s * (1.0 - s))
        tt = np.asarray(t, dtype=np.float64)
        n = self.n_bins
        pos = np.clip(tt, 0.0, 1.0) * n
        left = np.minimum(pos.astype(np.int64), n - 1)
        frac = pos - left
        knot_k = self._knot_k()
        dsig = knot_k * (1.0 - knot_k)
        grad = np.zeros_like(self.raw)
        np.add.at(grad, left, dloss_dk * (1.0 - frac) * dsig[left])
        np.add.at(grad, left + 1, dloss_dk * frac * dsig[left + 1])
        return grad


def u_to_v(u, z, t, k, clamp_floor: float = CLAMP_FLOOR):
    """Convert a target-space value to a velocity.

    v = ((1 - 2k) z + u) / max(k (1 - t) + (1 - k) t, clamp_floor).
    The clamp removes the division singularity at the ends of the time range.
    """
    u = np.asarray(u, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if u.ndim == 2:
        if t.ndim == 1:
            t = t[:, None]
        if k.ndim == 1:
            k = k[:, None]
    den = np.maximum(k * (1.0 - t) + (1.0 - k) * t, clamp_floor)
    return ((1.0 - 2.0 * k) * z + u) / den


class PureLinear:
    """Single linear layer, u_hat = z @ W.T; no time dependence.

    Matches the setting of the analytic theory exactly.
    """

    def __init__(self, weight):
        self.weight = np.array(weight, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[0] != self.weight.shape[1]:
            raise ValueError(f"weight must be square, got shape {self.weight.shape}")

    @classmethod
    def zeros(cls, dim: int) -> "PureLinear":
        return cls(np.zeros((dim, dim)))

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight}

    def forward(self, z, t):
        return np.asarray(z, dtype=np.float64) @ self.weight.T

    def forward_cache(self, z, t):
        z = np.asarray(z, dtype=np.float64)
        return z @ self.weight.T, z

    def backward(self, cache, grad_out) -> dict[str, np.ndarray]:
        return {"weight": grad_out.T @ cache}


@dataclass(frozen=True)
class TrainConfig:
    """Settings for a training run from W = 0 and k = k_init, constant or on k_bins time bins.

    loss_mode "u" is the plain target MSE (the mode whose trainable-k fixed
    point is compared against the closed-form optimum); "v_alg1" is the
    velocity MSE, the target MSE weighted by 1 / max(k (1 - t) + (1 - k) t,
    clamp_floor)^2.
    """

    loss_mode: str = "u"
    optimizer: str = "adam"
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    batch: int = 256
    steps: int = 20_000
    seed: int = 0
    clamp_floor: float = CLAMP_FLOOR
    k_trainable: bool = True
    k_init: float = 0.5
    k_bins: int | None = None
    measure: TimeMeasure = UNIFORM_MEASURE

    def __post_init__(self):
        if self.loss_mode not in ("u", "v_alg1"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if not 0.0 < self.clamp_floor < 1.0:
            raise ValueError("clamp_floor must lie in (0, 1)")
        if self.batch < 1 or self.steps < 1:
            raise ValueError("batch and steps must be >= 1")
        if not 0.0 < self.k_init < 1.0:
            raise ValueError(f"need 0 < k_init < 1, got {self.k_init}")
        if self.k_bins is not None and self.k_bins < 1:
            raise ValueError("k_bins must be >= 1")


class _StepBuffers:
    """Scratch (batch, D) arrays for the elementwise temporaries of ``training_step``.

    ``train`` allocates one set per run, so a step writes into memory that is
    already mapped instead of asking for fresh arrays.  ``z`` holds the
    network input (a net may cache it until its backward pass), ``r`` the
    target and then the residual, ``work`` the remaining per-mode
    temporaries, and ``grad`` the squared residual and then the output
    gradient.
    """

    def __init__(self, batch: int, dim: int):
        self.z, self.r, self.work, self.grad = (np.empty((batch, dim)) for _ in range(4))


def training_step(
    net,
    kparam: KParam,
    x: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    *,
    buffers: _StepBuffers | None = None,
):
    """One step: draw (t, e), form input and target, return loss and gradients.

    Gradient keys are "net.<param>" plus "k" when ``config.k_trainable``.
    The returned loss is the batch mean of per-sample halved squared errors
    of the residual r = u_hat - u, which "v_alg1" divides by
    den = max(k (1 - t) + (1 - k) t, clamp_floor) (the velocity residual
    v_pred - v up to rounding).

    The (batch, D) temporaries go into ``buffers`` (fresh ones when omitted),
    each computed by the same IEEE operations in the same order as the plain
    array expressions, so the results do not depend on whether buffers are
    reused.  The step never writes into ``x``, the noise draw, an array the
    net returned, or a gradient it returns.  The buffers are overwritten by
    the next step, so a net must not return a view of its ``grad_out`` or of
    its input as a gradient; ``PureLinear`` returns new arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, dim = x.shape
    if buffers is None:
        buffers = _StepBuffers(batch, dim)
    z, r, work, grad = buffers.z, buffers.r, buffers.work, buffers.grad
    t = sample_t(config.measure, rng, size=batch)
    e = rng.standard_normal((batch, dim))
    k = np.asarray(kparam.value(t), dtype=np.float64)
    tc, kc = t[:, None], k[:, None]
    # z = t x + (1 - t) e and the target u = k x - (1 - k) e, held in r
    np.multiply(tc, x, out=z)
    np.multiply(1.0 - tc, e, out=work)
    z += work
    np.multiply(kc, x, out=r)
    np.multiply(1.0 - kc, e, out=work)
    r -= work
    u_hat, cache = net.forward_cache(z, t)

    np.subtract(u_hat, r, out=r)
    velocity = config.loss_mode == "v_alg1"
    if velocity:
        raw_den = k * (1.0 - t) + (1.0 - k) * t
        den = np.maximum(raw_den, config.clamp_floor)
        r /= den[:, None]
    loss = 0.5 * float(np.sum(np.multiply(r, r, out=grad))) / batch
    if velocity:
        np.divide(r, den[:, None], out=grad)
        grad /= batch
    else:
        np.divide(r, batch, out=grad)
    if config.k_trainable:
        # du/dk = x + e; under v_alg1, d(den)/dk = 1 - 2t where the clamp is not active
        dldk = -np.einsum("ij,ij->i", r, np.add(x, e, out=work))
        if velocity:
            dden = np.where(raw_den > config.clamp_floor, 1.0 - 2.0 * t, 0.0)
            dldk = dldk / den - np.einsum("ij,ij->i", r, r) * dden / den
        dldk = dldk / batch

    if not np.isfinite(loss):
        raise NonFiniteLoss(f"training loss is {loss!r}")
    grads = {f"net.{name}": g for name, g in net.backward(cache, grad).items()}
    if config.k_trainable:
        grads["k"] = kparam.grad_raw(t, dldk)
    return loss, grads


@dataclass
class OptimizerState:
    """First/second moment accumulators keyed like the parameter dict."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: TrainConfig,
) -> OptimizerState:
    """Apply one SGD or bias-corrected Adam update in place."""
    state.step += 1
    if config.optimizer == "sgd":
        for name, p in params.items():
            p -= config.lr * grads[name]
        return state
    c1 = 1.0 - config.beta1**state.step
    c2 = 1.0 - config.beta2**state.step
    for name, p in params.items():
        g = grads[name]
        for moments in (state.m, state.v):
            if name not in moments:
                moments[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        p -= config.lr * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
    return state


K_PROBES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@dataclass(frozen=True)
class TrainHistory:
    """Per-step losses and k snapshots (taken after each update), and the trained net and k."""

    steps: np.ndarray
    losses: np.ndarray
    k_values: np.ndarray
    net: PureLinear
    kparam: KParam

    @property
    def probe_points(self) -> np.ndarray | None:
        """The times at which a binned k is recorded; None for a constant k, recorded at 1/2."""
        return K_PROBES.copy() if self.kparam.is_binned else None

    @property
    def final_k(self) -> float:
        """The last k; for binned k, its value at the central probe point."""
        last = self.k_values[-1]
        return float(last if np.ndim(last) == 0 else last[K_PROBES.size // 2])


def train(data_source, config: TrainConfig) -> TrainHistory:
    """Train a zero ``PureLinear`` net and the k that ``config`` describes on fresh batches.

    data_source is a ``geometry.GaussianSource``; batches come from
    ``geometry.sample_data``.  Deterministic given config.seed.
    """
    net, bins = PureLinear.zeros(data_source.ambient_dim), config.k_bins
    kparam = KParam.constant(config.k_init) if bins is None else KParam.binned(bins, config.k_init)
    rng = derive_rng(config.seed, "kdiff", "train")
    params = {f"net.{name}": p for name, p in net.params().items()}
    if config.k_trainable:
        params["k"] = kparam.raw
    state = OptimizerState()
    steps = np.arange(1, config.steps + 1)
    losses = np.empty(config.steps)
    probes = K_PROBES if kparam.is_binned else 0.5
    k_values = np.empty((config.steps, *np.shape(probes)))
    buffers = _StepBuffers(config.batch, net.dim)
    for i in range(config.steps):
        x = sample_data(data_source, config.batch, rng)
        loss, grads = training_step(net, kparam, x, config, rng, buffers=buffers)
        optimizer_step(params, grads, state, config)
        losses[i] = loss
        k_values[i] = kparam.value(probes)
    return TrainHistory(steps, losses, k_values, net, kparam)
