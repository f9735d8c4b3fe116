"""Shared test utilities: a replayable generator, finite-difference checks, reference paths
and a fresh-interpreter runner."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kdiff_lab


class ReplayRNG:
    """Generator facade that replays the same draw sequence after rewind().

    Lets a stochastic code path be re-evaluated with identical randomness,
    which turns a sampled loss into a deterministic function of the
    parameters for finite-difference checks.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._tape: list[tuple[str, tuple, np.ndarray | float]] = []
        self._pos = 0

    def rewind(self) -> None:
        self._pos = 0

    def _next(self, kind: str, args: tuple):
        if self._pos < len(self._tape):
            rec_kind, rec_args, value = self._tape[self._pos]
            assert (rec_kind, rec_args) == (kind, args), "replayed draw out of order"
        else:
            value = getattr(self._rng, kind)(*args)
            self._tape.append((kind, args, value))
        self._pos += 1
        return value

    def random(self, size=None):
        return self._next("random", (size,))

    def standard_normal(self, size=None):
        return self._next("standard_normal", (size,))


class ZeroNormalRNG:
    """Stub generator whose standard normal draws are all zero."""

    def standard_normal(self, size=None):
        if size is None:
            return 0.0
        return np.zeros(size)

    def random(self, size=None):
        if size is None:
            return 0.5
        return np.full(size, 0.5)


def central_difference(f, params: np.ndarray, index: int, step: float = 1e-4) -> float:
    """Central finite difference of f along one coordinate of a live array."""
    flat = params.reshape(-1)
    original = flat[index]
    flat[index] = original + step
    f_plus = f()
    flat[index] = original - step
    f_minus = f()
    flat[index] = original
    return (f_plus - f_minus) / (2.0 * step)


def relative_error(a: float, b: float, floor: float = 1e-4) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def gradient_check(net, kparam, x, config, seed: int, step: float = 1e-4) -> float:
    """Worst relative error between analytic gradients and central differences.

    Replays the same (t, e) draws for every loss evaluation, so the loss is a
    deterministic function of the parameters.
    """
    from kdiff_lab import training_step

    rng = ReplayRNG(seed)
    _, grads = training_step(net, kparam, x, config, rng)

    def eval_loss() -> float:
        rng.rewind()
        value, _ = training_step(net, kparam, x, config, rng)
        return value

    params = {f"net.{name}": p for name, p in net.params().items()}
    if config.k_trainable:
        params["k"] = kparam.raw
    worst = 0.0
    for name, p in params.items():
        analytic = np.asarray(grads[name]).reshape(-1)
        for idx in range(analytic.size):
            numeric = central_difference(eval_loss, p, idx, step)
            worst = max(worst, relative_error(float(analytic[idx]), numeric))
    return worst


def random_gradient_instance(rng: np.random.Generator, loss_mode: str):
    """Small random net/kparam/batch for a finite-difference check.

    Keeps the drawn configuration away from the clamp kink (where the
    subgradient convention makes finite differences meaningless) and away
    from sigmoid saturation.
    """
    from kdiff_lab import KParam, PureLinear, TrainConfig, sample_t

    dim = int(rng.integers(2, 9))
    batch = int(rng.integers(1, 5))
    net = PureLinear(0.5 * rng.standard_normal((dim, dim)))
    if rng.random() < 0.5:
        kparam = KParam(np.asarray(rng.uniform(-2.0, 2.0)))
    else:
        kparam = KParam(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 6))))
    x = rng.standard_normal((batch, dim))
    config = TrainConfig(loss_mode=loss_mode, steps=1, batch=batch)
    seed = int(rng.integers(0, 2**31))
    # preview the time draws this seed will produce and keep a safe distance
    # from the clamp boundary
    preview = ReplayRNG(seed)
    t = sample_t(config.measure, preview, size=batch)
    k = np.asarray(kparam.value(t))
    margin = np.min(np.abs(k * (1.0 - t) + (1.0 - k) * t - config.clamp_floor))
    return net, kparam, x, config, seed, float(margin)


def quadratic_loss_reference(weight, source, moments) -> float:
    """``lindyn.quadratic_loss`` from the D x D covariance Sigma = F F^T."""
    weight = np.asarray(weight, dtype=np.float64)
    ws = weight @ (source.factor @ source.factor.T)
    return 0.5 * (
        moments.alpha_sq * float(np.sum(ws * weight))
        + moments.sigma_sq * float(np.sum(weight * weight))
        - 2.0 * (moments.phi_alpha * float(np.trace(ws)) + moments.psi_sigma * float(np.trace(weight)))
        + moments.phi_sq * float(np.sum(source.eigenvalues))
        + moments.psi_sq * source.ambient_dim
    )


def decompose_reference(weight, source):
    """``lindyn.decompose`` from the D x D projector onto the support: (W P, W - W P)."""
    from kdiff_lab import ModeDecomposition

    weight = np.asarray(weight, dtype=np.float64)
    par = weight @ source.projector()
    return ModeDecomposition(par, weight - par, weight)


def equilibrium_weight_reference(source, moments):
    """``lindyn.equilibrium_weight`` as a sum of projectors: c(lam) times the projector onto
    each distinct eigenvalue's eigenspace, plus c(0) times the projector onto the null space."""
    from kdiff_lab import colored_mode_coefficients

    lam = source.eigenvalues
    values = np.unique(lam[lam > 0.0])
    *coefficients, null = colored_mode_coefficients([*values, 0.0], moments)
    weight, support = np.zeros((source.ambient_dim,) * 2), np.zeros((source.ambient_dim,) * 2)
    for value, coefficient in zip(values, coefficients):
        vectors = source.eigenvectors[:, lam == value]
        proj = vectors @ vectors.T
        weight += coefficient * proj
        support += proj
    return weight + null * (np.eye(source.ambient_dim) - support)


def exact_gradient_reference(weight, source, moments):
    """The expected descent direction at a weight, minus the gradient of ``quadratic_loss``:
    -(alpha_sq W Sigma + sigma_sq W - phi_alpha Sigma - psi_sigma I), from the D x D
    covariance and identity.  It vanishes at the equilibrium weight."""
    weight = np.asarray(weight, dtype=np.float64)
    sigma = source.factor @ source.factor.T
    eye = np.eye(source.ambient_dim)
    return -(
        moments.alpha_sq * weight @ sigma
        + moments.sigma_sq * weight
        - moments.phi_alpha * sigma
        - moments.psi_sigma * eye
    )


def euler_flow_reference(weight0, source, moments, step_size: float, steps: int):
    """Exact-mode gradient flow by the step-by-step explicit Euler recursion.

    The whole weight follows w <- w + step_size * exact_gradient(w), with the
    gradient and the loss from the D x D covariance, and its distances are
    measured from the equilibrium weight solved from the normal equations
    W* (alpha_sq Sigma + sigma_sq I) = phi_alpha Sigma + psi_sigma I.
    Returns one (loss, dist_par, dist_perp, weight_par, weight_perp) tuple per
    step, from 0 to ``steps``: the reference for the closed-form flow.
    """
    sigma = source.factor @ source.factor.T
    eye = np.eye(source.ambient_dim)
    # both sides are symmetric, so W* solves the transposed system as well
    w_star = np.linalg.solve(
        moments.alpha_sq * sigma + moments.sigma_sq * eye, moments.phi_alpha * sigma + moments.psi_sigma * eye
    )
    proj = source.projector()
    weight = np.asarray(weight0, dtype=np.float64)
    rows = []
    for i in range(steps + 1):
        if i:
            weight = weight + step_size * exact_gradient_reference(weight, source, moments)
        w_par = weight @ proj
        offset = weight - w_star
        rows.append(
            (
                quadratic_loss_reference(weight, source, moments),
                float(np.linalg.norm(offset @ proj)),
                float(np.linalg.norm(offset - offset @ proj)),
                w_par,
                weight - w_par,
            )
        )
    return rows


def training_step_reference(net, kparam, x, config, rng):
    """``kdiff.training_step`` with every (batch, D) temporary a fresh array.

    The step as plain array expressions, without scratch buffers: the
    reference that the buffered step must match bit for bit.
    """
    from kdiff_lab import NonFiniteLoss, sample_t

    x = np.asarray(x, dtype=np.float64)
    batch, dim = x.shape
    t = sample_t(config.measure, rng, size=batch)
    e = rng.standard_normal((batch, dim))
    k = np.asarray(kparam.value(t), dtype=np.float64)
    tc, kc = t[:, None], k[:, None]
    z = tc * x + (1.0 - tc) * e
    u = kc * x - (1.0 - kc) * e
    u_hat, cache = net.forward_cache(z, t)

    r = u_hat - u
    velocity = config.loss_mode == "v_alg1"
    if velocity:
        raw_den = k * (1.0 - t) + (1.0 - k) * t
        den = np.maximum(raw_den, config.clamp_floor)
        r = r / den[:, None]
    loss = 0.5 * float(np.sum(r * r)) / batch
    g_uhat = r / den[:, None] / batch if velocity else r / batch
    if config.k_trainable:
        dldk = -np.einsum("ij,ij->i", r, x + e)
        if velocity:
            dden = np.where(raw_den > config.clamp_floor, 1.0 - 2.0 * t, 0.0)
            dldk = dldk / den - np.einsum("ij,ij->i", r, r) * dden / den
        dldk = dldk / batch

    if not np.isfinite(loss):
        raise NonFiniteLoss(f"training loss is {loss!r}")
    grads = {f"net.{name}": g for name, g in net.backward(cache, g_uhat).items()}
    if config.k_trainable:
        grads["k"] = kparam.grad_raw(t, dldk)
    return loss, grads


def write_csv_reference(path, header, columns) -> None:
    """``cli.write_csv`` as a per-value formatter that builds the whole text.

    Each value of an integer array is written with ``str(int(v))`` and each
    value of a float array with ``f"{float(v):.17g}"``: the reference the
    block writer must match byte for byte.  A 1-d array is one column and a
    2-d array one column per array column.
    """
    texts = []
    for array in map(np.asarray, columns):
        fmt = (lambda v: str(int(v))) if array.dtype.kind in "iu" else (lambda v: f"{float(v):.17g}")
        for column in (array.reshape(len(array), 1) if array.ndim == 1 else array).T:
            texts.append([fmt(v) for v in column.tolist()])
    rows = len(columns[0]) if len(columns) else 0
    lines = [",".join(header)] + [",".join(column[i] for column in texts) for i in range(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def kparam_value_reference(kparam, t):
    """``KParam.value`` with the sigmoid taken by ``scipy.special.expit``: the
    reference the scalar libm sigmoid must match bit for bit."""
    from scipy.special import expit

    tt = np.asarray(t, dtype=np.float64)
    if not kparam.is_binned:
        out = np.full(tt.shape, float(expit(kparam.raw)))
    else:
        out = np.interp(tt, kparam.knots(), expit(kparam.raw))
    if np.ndim(t) == 0:
        return float(out)
    return out


def kparam_grad_raw_reference(kparam, t, dloss_dk):
    """``KParam.grad_raw`` with the sigmoid taken by ``scipy.special.expit``."""
    from scipy.special import expit

    dloss_dk = np.asarray(dloss_dk, dtype=np.float64)
    if not kparam.is_binned:
        s = float(expit(kparam.raw))
        return np.asarray(float(np.sum(dloss_dk)) * s * (1.0 - s))
    tt = np.asarray(t, dtype=np.float64)
    n = kparam.n_bins
    pos = np.clip(tt, 0.0, 1.0) * n
    left = np.minimum(pos.astype(np.int64), n - 1)
    frac = pos - left
    knot_k = expit(kparam.raw)
    dsig = knot_k * (1.0 - knot_k)
    grad = np.zeros_like(kparam.raw)
    np.add.at(grad, left, dloss_dk * (1.0 - frac) * dsig[left])
    np.add.at(grad, left + 1, dloss_dk * frac * dsig[left + 1])
    return grad


def run_python(args, cwd, preexec_fn=None) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package on its path and one BLAS thread."""
    src = str(Path(kdiff_lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, preexec_fn=preexec_fn,
        capture_output=True, text=True, timeout=120,
    )


def monte_carlo_observations_reference(weight, basis, target, n_pairs, rng, loss, measure, clamp_floor):
    """``lindyn._loss_observations`` as a plain loop over 1024-pair blocks.

    Each block draws its t, data and noise, in that order, and forms its two
    residual parts from whole expressions under flow matching, alpha = t and
    sigma = 1 - t: the reference that the oracle must match bit for bit.
    """
    from kdiff_lab import kappa, sample_data, sample_t

    values = []
    for start in range(0, n_pairs, 1024):
        m = min(1024, n_pairs - start)
        t = sample_t(measure, rng, size=m)
        x = sample_data(basis, m, rng)
        noise = rng.standard_normal((m, basis.ambient_dim))
        a, s = t[:, None], (1.0 - t)[:, None]
        kap2 = np.asarray(kappa(target, loss, t, clamp_floor), dtype=np.float64) ** 2
        data_part = (x @ weight.T) * a - target.phi * x
        noise_part = (noise @ weight.T) * s - target.psi * noise
        sq_norm = np.einsum("ij,ij->i", data_part, data_part) + np.einsum(
            "ij,ij->i", noise_part, noise_part
        )
        values.append(0.5 * kap2 * sq_norm)
    return np.concatenate(values)


def monte_carlo_loss_reference(
    weight, basis, target, n_samples, rng, loss=kdiff_lab.U_LOSS, measure=kdiff_lab.UNIFORM_MEASURE, clamp_floor=None
):
    """``lindyn.monte_carlo_loss`` reduced from the reference observations."""
    if isinstance(target, (int, float)):
        target = kdiff_lab.k_target(float(target))
    n_pairs = n_samples // 2
    values = monte_carlo_observations_reference(
        np.asarray(weight, dtype=np.float64), basis, target, n_pairs, rng, loss, measure, clamp_floor
    )
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n_pairs))


def stochastic_flow_reference(weight0, source, config, target, rng):
    """Stochastic gradient flow under uniform time that keeps every step's weight.

    Each step draws data, noise and t from ``rng``, in that order, and steps
    the weight.  Returns the weight of every step from 0 to ``config.steps``:
    the reference that a stochastic ``run_gradient_flow`` row must rebuild
    bit for bit.
    """
    from kdiff_lab import UNIFORM_MEASURE, sample_data, sample_t, stochastic_gradient

    weights = [np.array(weight0, dtype=np.float64)]
    for _ in range(config.steps):
        x = sample_data(source, config.batch, rng)
        noise = rng.standard_normal((config.batch, source.ambient_dim))
        t = sample_t(UNIFORM_MEASURE, rng, size=config.batch)
        weight = weights[-1]
        weights.append(weight + config.step_size * stochastic_gradient(weight, x, noise, t, target=target))
    return weights
