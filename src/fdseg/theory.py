"""Executable checks of the mathematical claims behind the discrepancy loss:
the Dice lower bound on the normalized discrepancy, the damped gradient of the
log loss and its weight-norm consequence, and the linear mediation example."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .tensor import ContractError, central_differences, max_relative_error

EPS = 1e-12
LEMMA2_STEP = 1e-6          # central-difference step of lemma2_gradient
DX_SCALE = 0.38             # std of the weight-norm experiment's fg/bg inputs
WEIGHT_NORM_D, WEIGHT_NORM_STEPS = 4, 500   # the experiment that lemma-checks runs
SPECTRAL_CEILING = 1e6      # a weight entry above this counts as divergence
MEDIATION_MIN_SAMPLES = 10_000


# -- Dice lower bound on normalized discrepancy ---------------------------------

@dataclass
class Lemma1Report:
    fd_normalized: float
    lhs: float
    rhs: float
    gap: float
    holds: bool
    k: float
    dice: float


def lemma1_check(features: np.ndarray, y_true: np.ndarray,
                 y_pred: np.ndarray) -> Lemma1Report:
    """Evaluate -log(Dice*(k+1)) <= -log(FD_norm) on one instance.

    FD_norm is the proof-style normalized discrepancy |2*sum(F*y) - sum(F)| /
    |sum(F)|; k = sum(y_pred)/sum(y_true). Features must be nonnegative
    (post-ReLU regime). The result is reported, not asserted: the bound can
    fail on adversarial instances.
    """
    if np.any(features < 0):
        raise ContractError("lemma1_check expects nonnegative (post-ReLU) features")
    if y_true.sum() < 1:
        raise ContractError("ground truth must have nonempty foreground")
    f = features.astype(np.float64)
    yt = y_true.astype(np.float64)
    yp = y_pred.astype(np.float64)
    total = f.sum()
    fg = (f * yt).sum()
    fd_norm = abs(2.0 * fg - total) / max(abs(total), EPS)
    inter = (yt * yp).sum()
    dice = (2.0 * inter + 1e-6) / (yt.sum() + yp.sum() + 1e-6)
    k = yp.sum() / yt.sum()
    lhs = -math.log(max(dice * (k + 1.0), EPS))
    rhs = -math.log(max(fd_norm, EPS))
    gap = rhs - lhs
    return Lemma1Report(fd_normalized=fd_norm, lhs=lhs, rhs=rhs, gap=gap,
                        holds=gap >= -1e-6, k=k, dice=dice)


def lemma1_violation_rate(n_instances: int = 100, size: int = 8,
                          seed: int = 0) -> dict:
    """Monte-Carlo sweep over random post-ReLU instances; reports the empirical
    rate at which the bound fails to hold."""
    if n_instances < 1:
        raise ContractError(f"lemma1 needs n_instances >= 1, got {n_instances}")
    rng = np.random.default_rng(seed)
    holds = 0
    gaps = []
    for _ in range(n_instances):
        f = np.abs(rng.normal(0.0, 1.0, size=(size, size)))
        yt = (rng.random((size, size)) < rng.uniform(0.2, 0.8)).astype(np.float64)
        if yt.sum() < 1:
            yt.flat[0] = 1.0
        yp = (rng.random((size, size)) < rng.uniform(0.2, 0.8)).astype(np.float64)
        rep = lemma1_check(f, yt, yp)
        holds += int(rep.holds)
        gaps.append(rep.gap)
    return {"check": "lemma1", "n_instances": n_instances,
            "holds_fraction": holds / n_instances,
            "violation_rate": 1.0 - holds / n_instances,
            "median_gap": float(np.median(gaps))}


# -- damped gradient of the log-separation loss ---------------------------------

@dataclass
class Lemma2Report:
    loss: float
    grad_analytic: np.ndarray
    grad_numeric: np.ndarray
    max_rel_error: float
    scale_dx_invariance_error: float = 0.0
    scale_w_ratio_error: float = 0.0


def _log_sep_loss(w: np.ndarray, dx: np.ndarray) -> float:
    return -math.log((w * dx).ravel() @ (w * dx).ravel())


def _log_sep_grad(w: np.ndarray, dx: np.ndarray) -> np.ndarray:
    prod = w * dx
    return -2.0 * prod * dx / float((prod.ravel() @ prod.ravel()))


def lemma2_gradient(w: np.ndarray, dx: np.ndarray) -> Lemma2Report:
    """Analytic gradient of -log(||W o dx||^2) (Hadamard reading) versus central
    differences, plus the two exact scale laws."""
    w = w.astype(np.float64)
    dx = dx.astype(np.float64)
    sep = float(((w * dx).ravel() ** 2).sum())
    if sep <= 1e-9:
        raise ContractError("degenerate separation: ||W o dx||^2 <= 1e-9")
    analytic = _log_sep_grad(w, dx)
    numeric = central_differences(lambda a: _log_sep_loss(a, dx), w,
                                  LEMMA2_STEP)

    c = 3.7
    g_dx_scaled = _log_sep_grad(w, c * dx)
    dx_err = float(np.max(np.abs(g_dx_scaled - analytic)))
    g_w_scaled = _log_sep_grad(c * w, dx)
    w_err = float(np.max(np.abs(c * g_w_scaled - analytic)))

    return Lemma2Report(loss=-math.log(sep), grad_analytic=analytic,
                        grad_numeric=numeric,
                        max_rel_error=max_relative_error(analytic, numeric),
                        scale_dx_invariance_error=dx_err,
                        scale_w_ratio_error=w_err)


def spectral_norm(w: np.ndarray) -> float:
    """Largest singular value (the matrix 2-norm)."""
    return float(np.linalg.norm(w, 2))


@dataclass
class WeightNormResult:
    norm_log: list[float] = field(default_factory=list)
    norm_linear: list[float] = field(default_factory=list)
    diverged: list[bool] = field(default_factory=list)


def weight_norm_experiment(d: int = WEIGHT_NORM_D,
                           steps: int = WEIGHT_NORM_STEPS, lr: float = 0.01,
                           seeds: Sequence[int] = (0, 1, 2, 3, 4)
                           ) -> WeightNormResult:
    """Train a single Hadamard layer on a fixed foreground/background pair under
    (a) -log||W o dx||^2 and (b) -||W o dx||^2; return final spectral norms.

    The damping of the log form keeps its weights small, while the linear form
    grows the weights multiplicatively.
    """
    if len(seeds) < 5:
        raise ContractError("weight_norm_experiment needs >= 5 seeds")
    result = WeightNormResult()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        xg = rng.normal(0.0, DX_SCALE, size=(d, d))
        xb = rng.normal(0.0, DX_SCALE, size=(d, d))
        dx = xg - xb
        w0 = rng.uniform(-0.5, 0.5, size=(d, d))

        w_log = w0.copy()
        w_lin = w0.copy()
        diverged = False
        for _ in range(steps):
            w_log = w_log - lr * _log_sep_grad(w_log, dx)
            w_lin = w_lin - lr * (-2.0 * (w_lin * dx) * dx)
            if (np.max(np.abs(w_lin)) > SPECTRAL_CEILING
                    or np.max(np.abs(w_log)) > SPECTRAL_CEILING):
                diverged = True
                break
        result.norm_log.append(spectral_norm(w_log))
        result.norm_linear.append(spectral_norm(w_lin))
        result.diverged.append(diverged)
    return result


# -- mediation Monte Carlo -------------------------------------------------------

def mediation_mc(a: float, b: float, n_samples: int = 100_000,
                 seed: int = 0) -> tuple[float, float]:
    """Simulate X~N(0,1), Z=aX+e1, Y=bZ+e2 and regress Y on X.

    Returns (slope_hat, residual variance); closed form is slope ab and
    variance 1 + b^2.
    """
    if n_samples < MEDIATION_MIN_SAMPLES:
        raise ContractError(
            f"mediation_mc needs n_samples >= {MEDIATION_MIN_SAMPLES}")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_samples)
    z = a * x + rng.normal(size=n_samples)
    y = b * z + rng.normal(size=n_samples)
    xc = x - x.mean()
    yc = y - y.mean()
    slope = float((xc @ yc) / (xc @ xc))
    resid = yc - slope * xc
    var_hat = float((resid @ resid) / (n_samples - 2))
    return slope, var_hat


def dice_fd_correlation(dice: Sequence[float],
                        fd: Sequence[float]) -> Optional[float]:
    """Pearson r between per-sample Dice and discrepancy values; None when an
    input is constant (degenerate). A non-finite value, such as the -inf fd
    of a runaway last decoder, is an error, not a NaN r."""
    d = np.asarray(dice, dtype=np.float64)
    f = np.asarray(fd, dtype=np.float64)
    if len(d) != len(f):
        raise ContractError(f"{len(d)} Dice values but {len(f)} fd values")
    if len(d) < 10:
        raise ContractError("need >= 10 records for the correlation")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(f))):
        raise ContractError("the correlation needs finite Dice and fd values")
    if d.std() == 0 or f.std() == 0:
        return None
    dm, fm = d - d.mean(), f - f.mean()
    return float((dm @ fm) / math.sqrt((dm @ dm) * (fm @ fm)))
