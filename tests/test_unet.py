"""Tests for the segmentation network: tap structure, initialization,
determinism, and the checkpoint format."""
import json
import os
import re
import struct

import numpy as np
import pytest

from fdseg.tensor import ContractError, DimensionError, Tensor
from fdseg.unet import (UNet, UNetConfig, init_params, load_checkpoint,
                        save_checkpoint)


def make_input(n=2, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, size, size, 1), dtype=np.float32))


def test_tap_count_and_order():
    for depth in (1, 2, 3):
        cfg = UNetConfig(depth=depth, base_channels=4, image_size=(32, 32))
        names = cfg.tap_names()
        assert len(names) == 2 * depth + 1
        expected = ([f"enc_{l}" for l in range(1, depth + 1)] + ["bottleneck"]
                    + [f"dec_{l}" for l in range(1, depth + 1)])
        assert names == expected


def test_tap_resolutions_depth2():
    cfg = UNetConfig(depth=2, base_channels=8, image_size=(64, 64))
    model = init_params(cfg, seed=0)
    _, taps = model.forward(make_input())
    assert [t.activation.shape[1] for t in taps] == [64, 32, 16, 32, 64]
    assert [t.downsample_factor for t in taps] == [1, 2, 4, 2, 1]


def test_skip_pairs_share_resolution():
    cfg = UNetConfig(depth=3, base_channels=4, image_size=(32, 32))
    model = init_params(cfg, seed=1)
    _, taps = model.forward(make_input(size=32, n=1))
    by_name = {t.name: t.activation.shape for t in taps}
    for l in range(1, 4):
        assert by_name[f"enc_{l}"][1:3] == by_name[f"dec_{4 - l}"][1:3]


def test_indivisible_size_rejected_at_construction():
    with pytest.raises(DimensionError):
        UNetConfig(depth=3, base_channels=4, image_size=(20, 20))


def test_prediction_in_open_unit_interval():
    model = init_params(UNetConfig(depth=2, base_channels=8,
                                   image_size=(64, 64)), seed=2)
    pred, _ = model.forward(make_input())
    assert pred.shape == (2, 64, 64, 1)
    assert np.all(pred.values > 0) and np.all(pred.values < 1)


def test_zero_head_predicts_half():
    model = init_params(UNetConfig(depth=2, base_channels=8,
                                   image_size=(64, 64)), seed=3)
    model.params["head_w"].values[:] = 0
    model.params["head_b"].values[:] = 0
    pred, _ = model.forward(make_input())
    np.testing.assert_array_equal(pred.values, np.full_like(pred.values, 0.5))


def test_init_deterministic_and_biases_zero():
    cfg = UNetConfig(depth=2, base_channels=8, image_size=(64, 64))
    m1 = init_params(cfg, seed=7)
    m2 = init_params(cfg, seed=7)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].values,
                                      m2.params[name].values)
        if name.endswith("_b"):
            assert np.all(m1.params[name].values == 0)


def test_init_kernel_bounds():
    cfg = UNetConfig(depth=2, base_channels=8, image_size=(64, 64))
    model = init_params(cfg, seed=8)
    for name, p in model.params.items():
        if not name.endswith("_w"):
            continue
        kh, kw, cin, cout = p.shape
        s = np.sqrt(6.0 / (kh * kw * cin + kh * kw * cout))
        assert np.all(np.abs(p.values) <= s)


def count_params_closed_form(depth, base, in_ch=1):
    """Independent parameter count from the layer dimensions alone."""
    total = 0

    def conv(kh, kw, cin, cout):
        return kh * kw * cin * cout + cout

    cin = in_ch
    ch = base
    enc_out = []
    for _ in range(depth):
        total += conv(3, 3, cin, ch) + conv(3, 3, ch, ch)
        enc_out.append(ch)
        cin, ch = ch, ch * 2
    total += conv(3, 3, cin, ch) + conv(3, 3, ch, ch)
    cur = ch
    for l in range(depth):
        skip = enc_out[depth - 1 - l]
        total += conv(1, 1, cur, skip)            # post-upsample projection
        total += conv(3, 3, skip * 2, skip) + conv(3, 3, skip, skip)
        cur = skip
    total += conv(1, 1, cur, 1)                    # sigmoid head
    return total


@pytest.mark.parametrize("depth,base", [(1, 4), (2, 8), (3, 4)])
def test_parameter_count_matches_closed_form(depth, base):
    size = 8 * 2 ** depth
    model = init_params(UNetConfig(depth=depth, base_channels=base,
                                   image_size=(size, size)), seed=9)
    assert model.param_count == count_params_closed_form(depth, base)


def test_forward_deterministic():
    cfg = UNetConfig(depth=2, base_channels=8, image_size=(64, 64))
    p1, _ = init_params(cfg, seed=4).forward(make_input(seed=5))
    p2, _ = init_params(cfg, seed=4).forward(make_input(seed=5))
    assert p1.values.tobytes() == p2.values.tobytes()


def test_batch_permutation_equivariance():
    cfg = UNetConfig(depth=2, base_channels=8, image_size=(32, 32))
    model = init_params(cfg, seed=6)
    x = make_input(n=4, size=32, seed=10)
    perm = np.array([2, 0, 3, 1])
    pred, _ = model.forward(x)
    pred_p, _ = model.forward(Tensor(x.values[perm]))
    np.testing.assert_allclose(pred_p.values, pred.values[perm],
                               rtol=1e-5, atol=1e-6)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = UNetConfig(depth=2, base_channels=8, image_size=(64, 64))
    model = init_params(cfg, seed=11)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        assert loaded.params[name].values.tobytes() \
            == model.params[name].values.tobytes()
    with open(path, "rb") as fh:
        assert fh.read(8) == b"FDSEGCKP"


def test_checkpoint_config_header_bytes(tmp_path):
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(init_params(UNetConfig(), seed=0), path)
    blob = (b'{"base_channels": 8, "depth": 2, "image_size": [64, 64], '
            b'"in_channels": 1}')
    with open(path, "rb") as fh:
        fh.read(8)
        assert fh.read(4 + len(blob)) == struct.pack("<I", len(blob)) + blob


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(Exception):
        load_checkpoint(path)


def _renamed(params):
    return {("enc1_conv1_v" if k == "enc1_conv1_w" else k): v
            for k, v in params.items()}


def _reshaped(params):
    # same element count as the (3,3,1,8) kernel, so the payload length matches
    return {k: (Tensor(np.zeros((3, 3, 8, 1), np.float32))
                if k == "enc1_conv1_w" else v) for k, v in params.items()}


@pytest.mark.parametrize("edit_params,edit_bytes,match", [
    (_renamed, None, "enc1_conv1_v"),
    (_reshaped, None, r"enc1_conv1_w \[3, 3, 8, 1\]"),
    (None, lambda b: b[:-4], "truncated in payload of head_b"),
    (None, lambda b: b + b"\x00", "trailing bytes"),
], ids=["renamed", "reshaped", "truncated", "trailing"])
def test_checkpoint_rejects_corrupt_file(tmp_path, edit_params, edit_bytes,
                                         match):
    model = init_params(UNetConfig(depth=1, base_channels=8,
                                   image_size=(16, 16)), seed=3)
    if edit_params:
        model = UNet(model.config, edit_params(model.params))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    if edit_bytes:
        with open(path, "rb") as fh:
            blob = edit_bytes(fh.read())
        with open(path, "wb") as fh:
            fh.write(blob)
    with pytest.raises(ContractError, match=match):
        load_checkpoint(path)


def _without_depth(cfg):
    return {k: v for k, v in cfg.items() if k != "depth"}


@pytest.mark.parametrize("edit_config", [
    _without_depth,
    lambda cfg: {**cfg, "image_size": 16},
    lambda cfg: list(cfg.values()),
    lambda cfg: {**cfg, "depth": 0},
], ids=["missing_depth", "int_image_size", "list_header", "zero_depth"])
def test_checkpoint_rejects_malformed_config_header(tmp_path, edit_config):
    model = init_params(UNetConfig(depth=1, base_channels=8,
                                   image_size=(16, 16)), seed=3)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    (n,) = struct.unpack("<I", blob[8:12])
    config = json.dumps(edit_config(json.loads(blob[12:12 + n]))).encode()
    with open(path, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<I", len(config)) + config
                 + blob[12 + n:])
    with pytest.raises(ContractError, match=re.escape(path)):
        load_checkpoint(path)


def test_checkpoint_rejects_config_header_that_is_not_json(tmp_path):
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(init_params(UNetConfig(depth=1, base_channels=8,
                                           image_size=(16, 16)), seed=3), path)
    with open(path, "rb") as fh:
        blob = fh.read()
    (n,) = struct.unpack("<I", blob[8:12])
    with open(path, "wb") as fh:
        fh.write(blob[:12] + b"{" * n + blob[12 + n:])
    with pytest.raises(ContractError, match=re.escape(path) + ": corrupt "
                       "checkpoint config"):
        load_checkpoint(path)


class _PayloadFails:
    shape = (1, 1, 1, 8)

    @property
    def values(self):
        raise OSError("disk full")


def test_failed_checkpoint_write_keeps_earlier_file(tmp_path):
    model = init_params(UNetConfig(depth=1, base_channels=8,
                                   image_size=(16, 16)), seed=3)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        before = fh.read()
    broken = init_params(model.config, seed=4)
    broken.params["head_b"] = _PayloadFails()   # the last tensor written
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(broken, path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_clone_is_independent():
    cfg = UNetConfig(depth=1, base_channels=4, image_size=(16, 16))
    model = init_params(cfg, seed=12)
    twin = model.clone()
    twin.params["head_w"].values[:] += 1.0
    assert not np.array_equal(twin.params["head_w"].values,
                              model.params["head_w"].values)


def test_config_rejects_fewer_than_one_base_channel():
    with pytest.raises(DimensionError, match="base_channels must be >= 1, got 0"):
        UNetConfig(base_channels=0)


@pytest.mark.parametrize("shape,message,axis", [
    ((1, 8, 8, 1), r"input 8x8 does not match configured size \(16, 16\)",
     "spatial"),
    ((1, 16, 16, 2), "input has 2 channels, config expects 1", "channels"),
], ids=["size", "channels"])
def test_forward_rejects_an_input_of_the_wrong_size_or_channels(shape, message,
                                                               axis):
    model = init_params(UNetConfig(base_channels=2, image_size=(16, 16)), seed=0)
    with pytest.raises(DimensionError, match=message) as err:
        model.forward(Tensor(np.zeros(shape, np.float32)))
    assert err.value.axis == axis


@pytest.mark.parametrize("size", [(0, 0), (-4, -4), (-8, 16)])
def test_config_rejects_an_image_size_that_is_not_positive(size):
    # -4 and -8 are divisible by 2^depth, so only the sign rejects them
    with pytest.raises(DimensionError, match=re.escape(f"image size {size}")):
        UNetConfig(depth=2, image_size=size)


@pytest.mark.parametrize("size", [[-4, -4], [0, 16], [16, 0]])
def test_checkpoint_rejects_an_image_size_that_is_not_positive(tmp_path, size):
    model = init_params(UNetConfig(depth=1, base_channels=8,
                                   image_size=(16, 16)), seed=3)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    (n,) = struct.unpack("<I", blob[8:12])
    config = json.dumps({**json.loads(blob[12:12 + n]),
                         "image_size": size}).encode()
    with open(path, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<I", len(config)) + config
                 + blob[12 + n:])
    with pytest.raises(ContractError, match=re.escape(
            f"{path}: bad checkpoint config: image size {tuple(size)}")):
        load_checkpoint(path)


def test_checkpoint_bad_magic_names_the_file(tmp_path):
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ContractError, match=re.escape(
            f"{path}: bad checkpoint magic b'NOTACKPT'")):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [[1, 2], "enc1_conv1_w", 3, None],
                         ids=["list", "string", "number", "null"])
def test_checkpoint_tensor_header_that_is_not_an_object(tmp_path, header):
    model = init_params(UNetConfig(depth=1, base_channels=8,
                                   image_size=(16, 16)), seed=3)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    (n,) = struct.unpack("<I", blob[8:12])
    at = 12 + n                          # the first tensor's header
    (m,) = struct.unpack("<I", blob[at:at + 4])
    bad = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(blob[:at] + struct.pack("<I", len(bad)) + bad
                 + blob[at + 4 + m:])
    with pytest.raises(ContractError, match=re.escape(
            f"{path}: checkpoint header of enc1_conv1_w is not a JSON object: "
            f"{header!r}")):
        load_checkpoint(path)


def test_checkpoint_config_header_that_is_not_an_object(tmp_path):
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(init_params(UNetConfig(depth=1, base_channels=8,
                                           image_size=(16, 16)), seed=3), path)
    with open(path, "rb") as fh:
        blob = fh.read()
    (n,) = struct.unpack("<I", blob[8:12])
    with open(path, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<I", 6) + b"[1, 2]" + blob[12 + n:])
    with pytest.raises(ContractError, match=re.escape(
            f"{path}: checkpoint config is not a JSON object: [1, 2]")):
        load_checkpoint(path)
