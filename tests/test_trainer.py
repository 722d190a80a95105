"""Tests for the training loop, evaluation metrics, worst-off partitioning,
the significance test, and CSV emission."""
import csv
import math
import weakref

import numpy as np
import pytest
import scipy.stats

import fdseg.trainer
from fdseg.data import SiteConfig, generate_site, split_dataset
from fdseg.losses import fd_loss, feature_summary
from fdseg.tensor import ContractError, Tensor
from fdseg.trainer import (LOSS_MODES, MetricsRecord, TrainConfig, evaluate,
                           one_sample_t_test, partition_worst_off, train,
                           write_eval_csv, write_history_csv)
from fdseg.unet import UNetConfig, init_params

SITE = SiteConfig(name="base", fg_intensity_mean=0.75, bg_intensity_mean=0.35,
                  texture_sigma=0.05, blur_radius=0, n_shapes=(1, 3),
                  image_size=(16, 16))


def tiny_datasets(n=12, seed=99):
    samples = generate_site(SITE, n, seed=seed)
    tr, te, va = split_dataset(samples, seed=seed)
    return {"train": tr, "test": te, "val": va}


def tiny_model(seed=0):
    return init_params(UNetConfig(depth=2, base_channels=4,
                                  image_size=(16, 16)), seed=seed)


def quick_config(**kw):
    base = dict(phase1_epochs=2, phase2_epochs=2, batch_size=4, lr=0.01,
                seed=0, loss_mode="seg+fd", augment_train=False)
    base.update(kw)
    return TrainConfig(**base)


# -- config contracts ---------------------------------------------------------------

def test_config_requires_warm_start():
    with pytest.raises(ContractError):
        TrainConfig(phase1_epochs=0)


def test_config_rejects_unknown_mode():
    with pytest.raises(ContractError):
        TrainConfig(loss_mode="adversarial")


def test_all_loss_modes_run_one_step():
    data = tiny_datasets()
    for mode in LOSS_MODES:
        cfg = quick_config(phase1_epochs=1, phase2_epochs=1, loss_mode=mode)
        best, hist = train(cfg, tiny_model(), data)
        assert len(hist) == 2
        assert all(math.isfinite(h.total) for h in hist)


def test_step_graph_freed_before_next_step(monkeypatch):
    """A step's loss tensor, and with it the step's graph, must be gone by the
    time the next step builds its objective."""
    real = fdseg.trainer.total_loss
    refs, alive = [], []

    def spy(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        bd = real(*args, **kwargs)
        refs.append(weakref.ref(bd.total_tensor))
        return bd

    monkeypatch.setattr(fdseg.trainer, "total_loss", spy)
    data = tiny_datasets()
    for mode in LOSS_MODES:
        refs.clear()
        alive.clear()
        train(quick_config(phase1_epochs=1, phase2_epochs=1, loss_mode=mode),
              tiny_model(), data)
        assert len(alive) > 2, mode
        assert alive == [0] * len(alive), mode


# -- determinism and warm-start equivalence --------------------------------------------

def test_training_deterministic():
    data = tiny_datasets()
    _, h1 = train(quick_config(), tiny_model(seed=3), data)
    _, h2 = train(quick_config(), tiny_model(seed=3), data)
    for a, b in zip(h1, h2):
        assert a.total == pytest.approx(b.total, abs=1e-6)
        assert a.val_dice == pytest.approx(b.val_dice, abs=1e-6)


def test_phase1_total_equals_seg():
    data = tiny_datasets()
    _, hist = train(quick_config(phase1_epochs=3, phase2_epochs=1), tiny_model(),
                    data)
    for h in hist:
        if h.phase == 1:
            assert h.total == pytest.approx(h.seg, abs=1e-7)
            assert all(a == 0.0 for a in h.alpha)


def test_warm_start_trajectory_matches_seg_only():
    """During phase 1 a discrepancy-enabled run must follow the exact same
    parameter trajectory as a pure segmentation run."""
    data = tiny_datasets()
    m_fd = tiny_model(seed=5)
    m_seg = tiny_model(seed=5)
    train(quick_config(phase1_epochs=3, phase2_epochs=0, loss_mode="seg+fd"),
          m_fd, data)
    train(quick_config(phase1_epochs=3, phase2_epochs=0, loss_mode="seg_only"),
          m_seg, data)
    for name in m_fd.params:
        assert m_fd.params[name].values.tobytes() \
            == m_seg.params[name].values.tobytes(), name


def test_warm_start_bit_identical_losses():
    data = tiny_datasets()
    _, h_fd = train(quick_config(phase1_epochs=4, phase2_epochs=1,
                                 loss_mode="seg+fd", seed=7), tiny_model(seed=7),
                    data)
    _, h_seg = train(quick_config(phase1_epochs=4, phase2_epochs=1,
                                  loss_mode="seg_only", seed=7),
                     tiny_model(seed=7), data)
    for a, b in zip(h_fd, h_seg):
        if a.phase == 1:
            assert a.seg == b.seg
            assert a.val_dice == b.val_dice


def test_alpha_nondecreasing_while_fd_positive():
    data = tiny_datasets()
    _, hist = train(quick_config(phase1_epochs=1, phase2_epochs=4), tiny_model(),
                    data)
    prev = None
    for h in hist:
        if h.phase != 2:
            continue
        if prev is not None and all(f > 0 for f in h.fd_per_tap):
            assert all(a2 >= a1 - 1e-12 or a2 == 1.0
                       for a1, a2 in zip(prev, h.alpha))
        prev = h.alpha


def test_best_checkpoint_matches_history_max():
    data = tiny_datasets()
    best, hist = train(quick_config(phase1_epochs=3, phase2_epochs=2), tiny_model(),
                       data)
    best_val = max(h.val_dice for h in hist)
    got = float(np.mean([r.dice for r in evaluate(best, data["val"])]))
    assert got == pytest.approx(best_val, abs=1e-6)


def test_divergent_run_aborts_with_diagnostic():
    from fdseg.trainer import TrainingAborted

    data = tiny_datasets()
    with pytest.raises(TrainingAborted) as exc:
        train(quick_config(lr=1e12, phase1_epochs=3, phase2_epochs=0),
              tiny_model(), data)
    assert "non-finite" in str(exc.value)
    assert exc.value.last_good is not None


# -- evaluate -----------------------------------------------------------------------

def test_evaluate_perfect_model():
    data = tiny_datasets()
    sample = data["test"][0]

    class Oracle:
        config = UNetConfig(depth=2, base_channels=4, image_size=(16, 16))

        def forward(self, images):
            from fdseg.unet import FeatureTap
            pred = Tensor(np.where(images.values > 0.55, 0.99, 0.01)
                          .astype(np.float32))
            tap = FeatureTap(name="dec_2", activation=Tensor(images.values),
                             downsample_factor=1)
            return pred, [tap]

    recs = evaluate(Oracle(), [sample])
    # thresholding the clean two-level image recovers the exact mask
    assert recs[0].dice == pytest.approx(1.0, abs=0.05)


def test_evaluate_constant_half_prediction_is_empty():
    class Flat:
        config = UNetConfig(depth=2, base_channels=4, image_size=(16, 16))

        def forward(self, images):
            from fdseg.unet import FeatureTap
            pred = Tensor(np.full(images.shape, 0.5, dtype=np.float32))
            tap = FeatureTap(name="dec_2", activation=pred,
                             downsample_factor=1)
            return pred, [tap]

    data = tiny_datasets()
    recs = evaluate(Flat(), data["test"])
    assert all(r.dice == 0.0 for r in recs)


def test_evaluate_matches_confusion_matrix_oracle():
    data = tiny_datasets()
    model = tiny_model(seed=11)
    recs = evaluate(model, data["test"][:5])
    pred, _ = model.forward(Tensor(np.stack(
        [s.image for s in data["test"][:5]]).astype(np.float32)))
    hard = pred.values > 0.5
    for i, (r, s) in enumerate(zip(recs, data["test"][:5])):
        tp = float((hard[i] & (s.mask > 0)).sum())
        fp = float((hard[i] & (s.mask == 0)).sum())
        fn = float((~hard[i] & (s.mask > 0)).sum())
        dice = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
        iou = tp / (tp + fp + fn) if tp + fp + fn else 1.0
        assert r.dice == pytest.approx(dice, abs=1e-9)
        assert r.iou == pytest.approx(iou, abs=1e-9)
        assert r.iou <= r.dice + 1e-12


def test_evaluate_fd_matches_per_sample_reference():
    """Batched fd_last_decoder equals fd_loss on each sample's own summary."""
    samples = generate_site(SITE, 20, seed=41)
    for seed in (0, 1, 2):
        model = tiny_model(seed=seed)
        recs = evaluate(model, samples)
        ref = []
        for start in range(0, len(samples), 16):
            chunk = samples[start:start + 16]
            _, taps = model.forward(Tensor(np.stack([s.image for s in chunk])))
            x = taps[-1].activation.values
            m = np.stack([s.mask for s in chunk])
            ref += [fd_loss(feature_summary(Tensor(x[i:i + 1]),
                                            Tensor(m[i:i + 1]))).item()
                    for i in range(len(chunk))]
        assert [r.fd_last_decoder for r in recs] == ref


def test_evaluate_rejects_empty_dataset():
    with pytest.raises(ContractError):
        evaluate(tiny_model(), [])


# -- worst-off partition --------------------------------------------------------------

def rec(sid, dice):
    return MetricsRecord(sample_id=sid, dice=dice, iou=dice / (2 - dice),
                         fd_last_decoder=0.0)


def test_partition_all_above_threshold_warns():
    part = partition_worst_off([rec(0, 0.9), rec(1, 0.95)], threshold=0.5)
    assert part.worst == [] and part.best == []
    assert part.warning is not None


def test_partition_forced_example():
    records = [rec(0, 0.2), rec(1, 0.5), rec(2, 0.9), rec(3, 0.95)]
    part = partition_worst_off(records, threshold=0.4)
    assert part.worst == [0]
    assert part.best == [3]


def test_partition_sizes_match_and_disjoint():
    records = [rec(i, d) for i, d in
               enumerate([0.1, 0.3, 0.55, 0.6, 0.8, 0.9, 0.95])]
    part = partition_worst_off(records, threshold=0.5)
    assert len(part.worst) == len(part.best) == 2
    assert not set(part.worst) & set(part.best)


def test_partition_threshold_bounds():
    with pytest.raises(ContractError):
        partition_worst_off([rec(0, 0.5)], threshold=1.5)


# -- t-test -------------------------------------------------------------------------

def test_t_test_known_value():
    t, p, degenerate = one_sample_t_test(0.0, [1, 2, 3, 4, 5])
    assert not degenerate
    assert t == pytest.approx(4.2426, abs=1e-3)
    assert p == pytest.approx(0.0132, abs=1e-3)


def test_t_test_matches_scipy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        runs = rng.normal(0.5, 0.2, size=rng.integers(3, 9))
        baseline = float(rng.normal())
        t, p, _ = one_sample_t_test(baseline, runs)
        t_ref, p_ref = scipy.stats.ttest_1samp(runs, baseline)
        assert t == pytest.approx(float(t_ref), rel=1e-9)
        assert p == pytest.approx(float(p_ref), rel=1e-6)


def test_t_test_degenerate_variance():
    t, p, degenerate = one_sample_t_test(0.7, [0.7, 0.7, 0.7])
    assert degenerate and p == 1.0
    t, p, degenerate = one_sample_t_test(0.0, [0.7, 0.7, 0.7])
    assert degenerate and p == 0.0


def test_t_test_needs_two_runs():
    with pytest.raises(ContractError):
        one_sample_t_test(0.0, [1.0])


# -- CSV emission -------------------------------------------------------------------

def run_and_write(tmp_path, mode):
    data = tiny_datasets()
    model = tiny_model()
    cfg = quick_config(loss_mode=mode)
    best, hist = train(cfg, model, data)
    hist_path = str(tmp_path / f"history_{mode.replace('+', '_')}.csv")
    write_history_csv(hist_path, hist, model.config.tap_names())
    eval_path = str(tmp_path / "eval.csv")
    write_eval_csv(eval_path, evaluate(best, data["test"]))
    return hist_path, eval_path


def test_history_csv_seg_only_has_no_fd_columns(tmp_path):
    hist_path, _ = run_and_write(tmp_path, "seg_only")
    with open(hist_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["epoch", "phase", "total", "seg", "dice_loss", "bce",
                      "val_dice"]


def test_history_csv_fd_columns_present(tmp_path):
    hist_path, _ = run_and_write(tmp_path, "seg+fd")
    with open(hist_path) as fh:
        rows = list(csv.DictReader(fh))
    taps = ["enc_1", "enc_2", "bottleneck", "dec_1", "dec_2"]
    for t in taps:
        assert f"fd_{t}" in rows[0]
        assert f"alpha_{t}" in rows[0]
    # warmup rows keep alpha at zero
    for row in rows:
        if row["phase"] == "1":
            assert all(float(row[f"alpha_{t}"]) == 0.0 for t in taps)


def test_eval_csv_schema(tmp_path):
    _, eval_path = run_and_write(tmp_path, "seg_only")
    with open(eval_path) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"sample_id", "dice", "iou", "fd_last_decoder"}
    for row in rows:
        assert 0.0 <= float(row["dice"]) <= 1.0
        assert float(row["iou"]) <= float(row["dice"]) + 1e-9


def test_history_csv_reproducible_bytes(tmp_path):
    p1, _ = run_and_write(tmp_path, "seg+fd")
    sub = tmp_path / "again"
    sub.mkdir()
    p2, _ = run_and_write(sub, "seg+fd")
    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()
