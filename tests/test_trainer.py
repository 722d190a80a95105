"""Tests for the training loop, evaluation metrics, worst-off partitioning,
the significance test, and CSV emission."""
import csv
import math
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fdseg.trainer
from fdseg.data import (BASE_SITE, SiteConfig, SiteSample, generate_site,
                        split_dataset)
from fdseg.losses import fd_loss, feature_summary, neg_log_sq_norm
from fdseg.tensor import ContractError, Tensor
from fdseg.trainer import (LOSS_MODES, LOSS_TABLE, MetricsRecord, TrainConfig,
                           _openblas, blas_threads, evaluate, one_sample_t_test,
                           partition_worst_off, set_blas_threads, train,
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


@pytest.mark.parametrize("name,value", [("phase2_epochs", -1),
                                        ("noise_sigma", -0.5), ("seed", -1)])
def test_config_rejects_negative_setting(name, value):
    with pytest.raises(ContractError, match=f"{name} must be >= 0, got {value}"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name,value", [("lr", math.nan), ("lr", math.inf),
                                        ("noise_sigma", math.nan),
                                        ("noise_sigma", math.inf)])
def test_config_rejects_non_finite_setting(name, value):
    with pytest.raises(ContractError, match=f"{name} must be finite, got {value}"):
        TrainConfig(**{name: value})


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


def test_augmented_epoch_runs_each_sample_five_times(monkeypatch):
    """With augmentation every training sample enters each epoch once per
    transform (five times), and the epoch's step count follows the 5x set."""
    real = fdseg.trainer._sgd_step
    batches = []

    def spy(model, opt, batch, *args):
        batches.append([s.id for s in batch])
        return real(model, opt, batch, *args)

    monkeypatch.setattr(fdseg.trainer, "_sgd_step", spy)
    data = tiny_datasets()
    cfg = quick_config(phase1_epochs=1, phase2_epochs=1, augment_train=True)
    train(cfg, tiny_model(), data)
    n, b = len(data["train"]), cfg.batch_size
    steps = math.ceil(5 * n / b)
    assert len(batches) == 2 * steps
    for epoch in (batches[:steps], batches[steps:]):
        assert Counter(i for batch in epoch for i in batch) \
            == {s.id: 5 for s in data["train"]}


# -- determinism and warm-start equivalence --------------------------------------------

def test_training_deterministic():
    data = tiny_datasets()
    _, h1 = train(quick_config(), tiny_model(seed=3), data)
    _, h2 = train(quick_config(), tiny_model(seed=3), data)
    for a, b in zip(h1, h2):
        assert a.total == pytest.approx(b.total, abs=1e-6)
        assert a.val_dice == pytest.approx(b.val_dice, abs=1e-6)


def test_train_never_reads_a_test_split():
    """Selection sees only train and val: a test split passed beside them
    changes neither the history nor the bytes of the selected model."""
    data = tiny_datasets()
    config = quick_config(loss_mode="seg+fd+exch")
    best, history = train(config, tiny_model(seed=3), data)
    best_tv, history_tv = train(config, tiny_model(seed=3),
                                {"train": data["train"], "val": data["val"]})
    assert history_tv == history
    for name in best.params:
        assert best_tv.params[name].values.tobytes() \
            == best.params[name].values.tobytes(), name


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


class ScaledTaps:
    """A model stub with a finite prediction and two finite taps: "enc1" is
    the image, "dec_2" the image times `scale`. At 1e20 its float32
    ||F-B||^2 overflows, so its fd is -inf; at 1e38 its masked sums overflow,
    so F - B is inf - inf and its fd is NaN. `pred_value` fills the
    prediction."""
    config = UNetConfig(depth=2, base_channels=4, image_size=(16, 16))

    def __init__(self, pred_value=0.5, scale=1e20):
        self.pred_value = pred_value
        self.scale = scale
        self.params = {}

    def forward(self, images):
        from fdseg.unet import FeatureTap
        pred = Tensor(np.full(images.shape, self.pred_value, np.float32))
        huge = Tensor(np.float32(self.scale) * images.values)
        return pred, [FeatureTap("enc1", Tensor(images.values), 1),
                      FeatureTap("dec_2", huge, 1)]


@pytest.mark.parametrize("pred_value,fd,alpha,named", [
    (0.5, True, [0.5, 0.5], "dec_2"),          # the overflowing fd term
    (0.5, True, [0.5, 0.0], None),             # its alpha is 0: no abort
    (np.nan, False, [0.0, 0.0], "prediction"),
    (np.nan, True, [0.5, 0.5], "dec_2"),
    (3e38, False, [0.0, 0.0], "segmentation loss")])   # Dice's sums overflow
def test_abort_names_what_made_the_total_nonfinite(pred_value, fd, alpha, named):
    from fdseg.losses import AlphaState
    from fdseg.trainer import TrainingAborted, _SGD, _sgd_step

    model = ScaledTaps(pred_value)
    batch = tiny_datasets()["train"][:4]
    state = AlphaState(np.array(alpha), "active")

    def step():
        return _sgd_step(model, _SGD(model.params, 0.01), batch, state,
                         fd=fd, exch=False, exch_seed=0)

    if named is None:
        assert math.isfinite(step().total)
        return
    with pytest.raises(TrainingAborted, match=f"first bad tap: {named}$"):
        step()


def test_nan_fd_under_zero_alpha_keeps_alpha_zero():
    from fdseg.losses import AlphaState, alpha_update
    from fdseg.trainer import _SGD, _sgd_step

    model = ScaledTaps(scale=1e38)
    batch = tiny_datasets()["train"][:4]
    state = AlphaState(np.array([0.5, 0.0]), "active")
    for step in range(2):
        bd = _sgd_step(model, _SGD(model.params, 0.01), batch, state,
                       fd=True, exch=False, exch_seed=0)
        assert math.isfinite(bd.total) and np.isnan(bd.fd_per_tap[1])
        state = alpha_update(state, np.asarray(bd.fd_per_tap), step=step,
                             warmup_steps=0)
        assert state.alpha[0] > 0 and state.alpha[1] == 0


def test_fd_step_pools_the_mask_once_per_factor(monkeypatch):
    """A depth-2 seg+fd step has taps at factors 1, 2, 4, 2, 1; it pools the
    batch's mask once for each distinct factor, through trainer.pool_mask."""
    from fdseg.losses import AlphaState
    from fdseg.trainer import _SGD, _sgd_step

    real, calls = fdseg.trainer.pool_mask, Counter()

    def spy(mask, factor):
        calls[factor] += 1
        return real(mask, factor)

    monkeypatch.setattr(fdseg.trainer, "pool_mask", spy)
    model = tiny_model()
    state = AlphaState.fresh(len(model.config.tap_names()))
    _sgd_step(model, _SGD(model.params, 0.01), tiny_datasets()["train"][:4],
              state, fd=True, exch=False, exch_seed=0)
    assert calls == {1: 1, 2: 1, 4: 1}


@pytest.mark.parametrize("loss_mode", ["seg_only", "seg+fd"])
def test_mode_without_exch_records_an_empty_exch_list(loss_mode):
    from fdseg.losses import AlphaState
    from fdseg.trainer import _SGD, _sgd_step

    fd, exch = LOSS_TABLE[loss_mode]
    model = tiny_model()
    state = AlphaState.fresh(len(model.config.tap_names()))
    bd = _sgd_step(model, _SGD(model.params, 0.01), tiny_datasets()["train"][:4],
                   state, fd=fd, exch=exch, exch_seed=0)
    assert bd.fd_exch_per_tap == []
    _, history = train(quick_config(loss_mode=loss_mode, phase1_epochs=1,
                                    phase2_epochs=1), tiny_model(),
                       tiny_datasets())
    assert [r.fd_exch_per_tap for r in history] == [[], []]


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


class Echo:
    """A model stub whose prediction and last tap are its input images."""

    def forward(self, images):
        from fdseg.unet import FeatureTap
        return Tensor(images.values), [FeatureTap("dec_2", images, 1)]


def float64_sum_scores(hard, mask):
    """Dice and IoU of one sample from float64 sums of its 0/1 prediction
    and mask."""
    hard, mask = hard.astype(np.float64), mask.astype(np.float64)
    inter = float((hard * mask).sum())
    a, b = float(hard.sum()), float(mask.sum())
    dice = 2.0 * inter / (a + b) if a + b > 0 else 1.0
    iou = inter / (a + b - inter) if a + b - inter > 0 else 1.0
    return dice, iou


# (predictions, masks): n 4x4 0/1 images each
binary_stacks = st.integers(1, 20).flatmap(lambda n: st.tuples(*[
    hnp.arrays(np.float32, (n, 4, 4, 1), elements=st.sampled_from([0.0, 1.0]))
    for _ in range(2)]))
EMPTY, FULL = np.zeros((3, 4, 4, 1), np.float32), np.ones((3, 4, 4, 1), np.float32)


@settings(max_examples=100, deadline=None)
@given(binary_stacks)
@example((EMPTY, FULL))
@example((FULL, EMPTY))
@example((np.zeros((17, 4, 4, 1), np.float32),) * 2)    # both empty, two chunks
def test_evaluate_scores_equal_float64_sums(stacks):
    """Dice and IoU are the floats that float64 sums of each sample's 0/1
    prediction and mask give, empty predictions and empty masks included."""
    preds, masks = stacks
    samples = [SiteSample(image=p, mask=m, source="base", id=i)
               for i, (p, m) in enumerate(zip(preds, masks))]
    recs = evaluate(Echo(), samples)
    assert [r.sample_id for r in recs] == list(range(len(samples)))
    for r, p, m in zip(recs, preds, masks):
        assert type(r.dice) is float and type(r.iou) is float
        assert (r.dice, r.iou) == float64_sum_scores(p > 0.5, m)


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


def graph_evaluate_reference(model, samples, chunk_size=16):
    """evaluate() as it ran with a full graph forward over 16-sample chunks:
    (sample id, dice, iou, fd_last_decoder) per sample."""
    rows = []
    for start in range(0, len(samples), chunk_size):
        chunk = samples[start:start + chunk_size]
        masks = Tensor(np.stack([s.mask for s in chunk]))
        pred, taps = model.forward(Tensor(np.stack([s.image for s in chunk])))
        assert pred.requires_grad
        s = feature_summary(taps[-1].activation, masks)
        fds = neg_log_sq_norm(s.per_sample_fg - s.per_sample_bg, axis=3).values
        hard = (pred.values > 0.5).astype(np.float64)
        mv = masks.values.astype(np.float64)
        for i, sample in enumerate(chunk):
            inter = float((hard[i] * mv[i]).sum())
            a, b = float(hard[i].sum()), float(mv[i].sum())
            dice = 2.0 * inter / (a + b) if a + b > 0 else 1.0
            iou = inter / (a + b - inter) if a + b - inter > 0 else 1.0
            rows.append((sample.id, dice, iou, float(fds[i, 0, 0, 0])))
    return rows


def test_evaluate_default_unet_matches_graph_forward_reference():
    """The no-graph forward in 4-sample chunks at 64x64 gives the same
    floats as the graph forward in 16-sample chunks."""
    samples = generate_site(BASE_SITE, 18, seed=43)
    for seed in (0, 5):
        model = init_params(UNetConfig(), seed=seed)
        recs = evaluate(model, samples)
        assert [(r.sample_id, r.dice, r.iou, r.fd_last_decoder)
                for r in recs] == graph_evaluate_reference(model, samples)


@pytest.mark.parametrize("size,chunk", [(16, 16), (32, 16), (48, 7), (64, 4),
                                        (128, 1), (256, 1)])
def test_evaluate_chunk_is_capped_by_pixels_and_builds_no_graph(size, chunk):
    seen = []
    weight = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)

    class Spy:
        config = UNetConfig(image_size=(size, size))

        def forward(self, images):
            from fdseg.unet import FeatureTap
            seen.append(images.shape[0])
            assert not (images * weight).requires_grad
            pred = Tensor(np.full(images.shape, 0.25, dtype=np.float32))
            return pred, [FeatureTap("dec_2", images, 1)]

    site = SiteConfig("s", 0.7, 0.3, image_size=(size, size))
    evaluate(Spy(), generate_site(site, 17, seed=1))
    assert seen[0] == chunk and sum(seen) == 17
    assert all(n == chunk for n in seen[:-1])


def test_evaluate_rejects_empty_dataset():
    with pytest.raises(ContractError):
        evaluate(tiny_model(), [])


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test, so that evaluate() takes its
    thread pool on any machine; the caller's count is restored after."""
    if _openblas("set_num_threads") is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    before = blas_threads()
    set_blas_threads(2)
    try:
        yield
    finally:
        set_blas_threads(before)


class ThreadSpy:
    """A model that records (thread, batch size) per forward and raises on
    the forward numbered `fail_at`."""

    def __init__(self, model, fail_at=None):
        self.model, self.config, self.fail_at = model, model.config, fail_at
        self.calls = []

    def forward(self, images):
        self.calls.append((threading.get_ident(), images.shape[0]))
        if len(self.calls) == self.fail_at:
            raise ZeroDivisionError("forward failed")
        return self.model.forward(images)


def test_pooled_and_serial_evaluate_give_identical_records(two_blas_threads):
    """Four full 4-sample chunks at 64x64 (two per thread) and a 2-sample tail:
    the pool runs the full chunks off the calling thread, the tail last on it,
    and the records equal a serial evaluate() with one OpenBLAS thread."""
    samples = generate_site(BASE_SITE, 18, seed=44)
    spy = ThreadSpy(init_params(UNetConfig(), seed=2))
    pooled = evaluate(spy, samples)
    me = threading.get_ident()
    assert sorted(n for _, n in spy.calls) == [2, 4, 4, 4, 4]
    assert spy.calls[-1] == (me, 2)
    assert all(t != me for t, _ in spy.calls[:-1])
    assert blas_threads() == 2

    set_blas_threads(1)
    spy.calls.clear()
    serial = evaluate(spy, samples)
    assert spy.calls == [(me, 4)] * 4 + [(me, 2)]
    assert serial == pooled


def test_evaluate_restores_blas_threads_and_grad_mode_when_a_chunk_raises(
        two_blas_threads):
    samples = generate_site(BASE_SITE, 16, seed=45)
    spy = ThreadSpy(init_params(UNetConfig(base_channels=2), seed=0), fail_at=3)
    with pytest.raises(ZeroDivisionError, match="forward failed"):
        evaluate(spy, samples)
    assert any(t != threading.get_ident() for t, _ in spy.calls)
    assert blas_threads() == 2
    weight = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    assert (weight * 2.0).requires_grad


def test_no_evaluate_pool_thread_outlives_the_call(two_blas_threads):
    """A sweep forks its workers after evaluate() has run in the calling
    process; no thread of evaluate()'s pool may be left for the fork."""
    samples = generate_site(BASE_SITE, 16, seed=46)
    spy = ThreadSpy(init_params(UNetConfig(base_channels=2), seed=0))
    before = threading.active_count()
    evaluate(spy, samples)
    assert any(t != threading.get_ident() for t, _ in spy.calls)
    assert threading.active_count() == before


def test_overflowing_last_decoder_gives_minus_inf_fd_without_a_warning(
        two_blas_threads):
    """A runaway last decoder overflows fd's squared norm; the fd reads -inf
    on the pool's threads (four full 16-sample chunks) and serially, and no
    RuntimeWarning escapes, which this suite would turn into an error."""
    model = init_params(UNetConfig(base_channels=2, image_size=(16, 16)), seed=0)
    model.params["dec2_conv2_w"].values *= np.float32(1e25)
    samples = generate_site(SITE, 64, seed=47)
    pooled = evaluate(model, samples)
    set_blas_threads(1)
    serial = evaluate(model, samples)
    assert len(pooled) == len(serial) == 64
    assert all(r.fd_last_decoder == -math.inf for r in pooled + serial)


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


@pytest.mark.parametrize("mode,exch", [("seg+fd", False), ("seg+fd+exch", True)])
def test_history_csv_columns_follow_loss_mode(tmp_path, mode, exch):
    hist_path, _ = run_and_write(tmp_path, mode)
    with open(hist_path) as fh:
        header = fh.readline().strip().split(",")
    taps = ["enc_1", "enc_2", "bottleneck", "dec_1", "dec_2"]
    per_tap = ["fd_", "fd_exch_", "alpha_"] if exch else ["fd_", "alpha_"]
    assert header == (["epoch", "phase", "total", "seg", "dice_loss", "bce"]
                      + [p + t for p in per_tap for t in taps] + ["val_dice"])


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


@pytest.mark.parametrize("setting", [{"lr": 0.0}, {"lr": -0.01},
                                     {"batch_size": 0}],
                         ids=["lr_zero", "lr_negative", "batch_size"])
def test_config_rejects_a_non_positive_lr_or_batch_size(setting):
    with pytest.raises(ContractError,
                       match="lr must be > 0 and batch_size >= 1"):
        quick_config(**setting)


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_an_empty_split(split):
    datasets = {**tiny_datasets(), split: []}
    with pytest.raises(ContractError,
                       match=f"train\\(\\) needs a non-empty {split} split"):
        train(quick_config(), tiny_model(), datasets)


@pytest.mark.parametrize("baseline,runs", [
    (0.5, [0.9, math.nan, 0.8]),
    (0.5, [0.9, 0.8, math.inf]),
    (math.nan, [0.9, 0.8, 0.7]),
], ids=["nan_run", "inf_run", "nan_baseline"])
def test_t_test_rejects_a_non_finite_value(baseline, runs):
    # a failed sweep cell scores NaN; it is not a run of a valid test
    with pytest.raises(ContractError, match="needs finite values"):
        one_sample_t_test(baseline, runs)
