"""Tests for the executable math checks: the Dice bound report, the damped
gradient and its scale laws, the weight-norm comparison, and the mediation
Monte Carlo."""
import math

import numpy as np
import pytest

from fdseg.tensor import ContractError
from fdseg.theory import (dice_fd_correlation, lemma1_check,
                          lemma1_violation_rate, lemma2_gradient, mediation_mc,
                          SPECTRAL_CEILING, spectral_norm,
                          weight_norm_experiment)


# -- normalized discrepancy bound -----------------------------------------------

def test_bound_direct_substitution_identity_case():
    """F = y_true = y_pred: Dice=1, k=1, normalized discrepancy 1."""
    y = np.zeros((8, 8))
    y[2:5, 2:5] = 1.0
    rep = lemma1_check(y.copy(), y, y)
    assert rep.dice == pytest.approx(1.0, abs=1e-6)
    assert rep.k == pytest.approx(1.0)
    assert rep.fd_normalized == pytest.approx(1.0, abs=1e-9)
    assert rep.lhs == pytest.approx(-math.log(2.0), abs=1e-5)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)
    assert rep.holds


def test_bound_constant_features_degenerate():
    y = np.zeros((8, 8))
    y[:2, :] = 1.0
    f = np.full((8, 8), 0.5)
    rep = lemma1_check(f, y, y)
    # |2*sum(F*y) - sum(F)| / sum(F) with constant F reduces to |2m/hw - 1|
    expected = abs(2 * y.sum() / 64.0 - 1.0)
    assert rep.fd_normalized == pytest.approx(expected, rel=1e-9)
    assert isinstance(rep.holds, bool)


def test_bound_rejects_negative_features():
    y = np.ones((4, 4))
    with pytest.raises(ContractError):
        lemma1_check(np.full((4, 4), -1.0), y, y)


def test_bound_rejects_empty_foreground():
    with pytest.raises(ContractError):
        lemma1_check(np.ones((4, 4)), np.zeros((4, 4)), np.ones((4, 4)))


def test_violation_rate_report_schema():
    rep = lemma1_violation_rate(n_instances=100, seed=0)
    assert rep["n_instances"] == 100
    assert 0.0 <= rep["violation_rate"] <= 1.0
    assert rep["holds_fraction"] + rep["violation_rate"] == pytest.approx(1.0)
    assert "median_gap" in rep


# -- damped gradient ---------------------------------------------------------------

def test_gradient_scalar_oracle():
    """d=1, W=2, dx=3: loss = -log 36, gradient = -2*6*3/36 = -1."""
    rep = lemma2_gradient(np.array([[2.0]]), np.array([[3.0]]))
    assert rep.loss == pytest.approx(-math.log(36.0), rel=1e-12)
    assert rep.grad_analytic[0, 0] == pytest.approx(-1.0, rel=1e-12)
    assert rep.max_rel_error < 1e-5


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rep = lemma2_gradient(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        assert rep.max_rel_error < 1e-5


def test_scale_laws_twenty_triples():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.normal(size=(3, 3))
        dx = rng.normal(size=(3, 3))
        rep = lemma2_gradient(w, dx)
        assert rep.scale_dx_invariance_error < 1e-10
        assert rep.scale_w_ratio_error < 1e-10


def test_gradient_rejects_degenerate_separation():
    with pytest.raises(ContractError):
        lemma2_gradient(np.zeros((2, 2)), np.ones((2, 2)))


# -- spectral norm ------------------------------------------------------------------

def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.normal(size=(5, 5))
        assert spectral_norm(w) == pytest.approx(
            np.linalg.svd(w, compute_uv=False)[0], rel=1e-5)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0, -7.0])) == pytest.approx(7.0, rel=1e-6)


def test_spectral_norm_exact_with_close_top_singular_values():
    """Close top singular values slow a power iteration's convergence; the
    reported norm must still be the largest singular value."""
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
    for top in ([1.0, 0.99, 0.5], [2.0, 1.999, 0.1]):
        d = np.diag(top)
        for w in (d, q @ d @ q.T):
            assert spectral_norm(w) == pytest.approx(
                np.linalg.svd(w, compute_uv=False)[0], rel=1e-12)


# -- weight norm experiment ------------------------------------------------------------

def test_weight_norm_needs_five_seeds():
    with pytest.raises(ContractError):
        weight_norm_experiment(seeds=(0, 1))


def test_weight_norm_log_arm_stays_smaller():
    res = weight_norm_experiment(d=4, steps=500, lr=0.01, seeds=(0, 1, 2, 3, 4))
    assert len(res.norm_log) == 5
    assert not any(res.diverged)
    for nl, nlin in zip(res.norm_log, res.norm_linear):
        assert nl < nlin


def test_weight_norm_one_dim_recurrence_oracle():
    """In one dimension the two updates have closed-form recurrences:
    log arm w += lr/w (sublinear growth), linear arm w *= 1 + 2*lr*dx^2
    (exponential growth). Replay both and compare."""
    lr, dx, w0, steps = 0.01, 1.3, 0.4, 200
    w_log, w_lin = w0, w0
    for _ in range(steps):
        w_log = w_log - lr * (-2.0 * (w_log * dx) * dx / ((w_log * dx) ** 2))
        w_lin = w_lin - lr * (-2.0 * (w_lin * dx) * dx)
    expected_lin = w0 * (1.0 + 2.0 * lr * dx * dx) ** steps
    assert w_lin == pytest.approx(expected_lin, rel=1e-9)
    # log arm: w += 2*lr/w, so w^2 grows about linearly at rate 4*lr
    assert w_log ** 2 == pytest.approx(w0 ** 2 + 4.0 * lr * steps, rel=0.05)
    assert abs(w_log) < abs(w_lin)


def test_weight_norm_zero_lr_keeps_init():
    res = weight_norm_experiment(d=4, steps=50, lr=0.0, seeds=(0, 1, 2, 3, 4))
    for nl, nlin in zip(res.norm_log, res.norm_linear):
        assert nl == pytest.approx(nlin, rel=1e-9)


# -- mediation ----------------------------------------------------------------------

def test_mediation_closed_form():
    slope, var = mediation_mc(1.0, 1.0, n_samples=100_000, seed=0)
    assert 0.97 <= slope <= 1.03
    assert 1.95 <= var <= 2.05


def test_mediation_zero_path():
    slope, var = mediation_mc(0.0, 1.0, n_samples=100_000, seed=1)
    assert abs(slope) < 0.03
    assert var == pytest.approx(2.0, abs=0.05)


def test_mediation_no_outcome_effect():
    _, var = mediation_mc(1.0, 0.0, n_samples=100_000, seed=2)
    assert var == pytest.approx(1.0, abs=0.03)


def test_mediation_converges_with_n():
    errs_small, errs_big = [], []
    for seed in range(20):
        s_small, _ = mediation_mc(1.0, 1.0, n_samples=10_000, seed=seed)
        s_big, _ = mediation_mc(1.0, 1.0, n_samples=40_000, seed=seed)
        errs_small.append(abs(s_small - 1.0))
        errs_big.append(abs(s_big - 1.0))
    assert np.median(errs_big) < np.median(errs_small)


def test_mediation_rejects_tiny_n():
    with pytest.raises(ContractError):
        mediation_mc(1.0, 1.0, n_samples=100)


# -- correlation --------------------------------------------------------------------

def test_correlation_perfect_negative():
    dice = np.linspace(0.1, 0.9, 20)
    assert dice_fd_correlation(dice, -dice) == pytest.approx(-1.0, abs=1e-9)


def test_correlation_constant_input_degenerate():
    assert dice_fd_correlation([0.5] * 10, list(range(10))) is None


def test_correlation_independent_noise_is_weak():
    rng = np.random.default_rng(3)
    r = dice_fd_correlation(rng.random(100), rng.random(100))
    assert abs(r) < 0.3


@pytest.mark.parametrize("n_instances", [0, -3])
def test_lemma1_violation_rate_needs_an_instance(n_instances):
    with pytest.raises(ContractError, match="n_instances >= 1"):
        lemma1_violation_rate(n_instances=n_instances)


def test_dice_fd_correlation_needs_ten_records():
    with pytest.raises(ContractError,
                       match="need >= 10 records for the correlation"):
        dice_fd_correlation([0.1 * i for i in range(9)], list(range(9)))


def test_dice_fd_correlation_rejects_unequal_lengths():
    with pytest.raises(ContractError, match="12 Dice values but 11 fd values"):
        dice_fd_correlation(np.linspace(0.1, 0.9, 12), np.linspace(0, 1, 11))


@pytest.mark.parametrize("side", ["dice", "fd"])
@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
def test_dice_fd_correlation_rejects_a_non_finite_value(side, bad):
    # a runaway last decoder's fd is -inf; the r of such records is not a number
    values = {"dice": np.linspace(0.1, 0.9, 12), "fd": np.linspace(5, -5, 12)}
    values[side][3] = bad
    with pytest.raises(ContractError, match="needs finite Dice and fd values"):
        dice_fd_correlation(values["dice"], values["fd"])


def test_weight_norm_divergence_stops_each_seed_at_the_ceiling():
    # at lr 1 the linear arm grows by 1 + 2 dx^2 per step and passes the
    # ceiling within the 500 steps; run to the end, its norms pass 1e100
    res = weight_norm_experiment(lr=1.0)
    assert res.diverged == [True] * 5
    for norm in res.norm_linear:
        assert SPECTRAL_CEILING < norm < 100 * SPECTRAL_CEILING
