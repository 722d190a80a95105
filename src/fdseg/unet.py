"""Minimal configurable U-Net exposing every level's activation as a tap."""
from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import IMAGE_SIZE, check_image_size
from .tensor import (Tensor, ContractError, DimensionError, concat_channels,
                     conv2d, maxpool2d, relu, sigmoid, upsample_nearest)

CHECKPOINT_MAGIC = b"FDSEGCKP"


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 2
    base_channels: int = 8
    in_channels: int = 1
    image_size: tuple[int, int] = IMAGE_SIZE

    def __post_init__(self):
        if self.depth < 1:
            raise DimensionError(f"depth must be >= 1, got {self.depth}", axis="depth")
        if self.base_channels < 1:
            raise DimensionError(f"base_channels must be >= 1, got {self.base_channels}")
        check_image_size(self.image_size)
        h, w = self.image_size
        f = 2 ** self.depth
        if h % f != 0 or w % f != 0:
            raise DimensionError(
                f"image size {h}x{w} not divisible by 2^depth={f}", axis="spatial")

    def tap_names(self) -> list[str]:
        return ([f"enc_{l}" for l in range(1, self.depth + 1)] + ["bottleneck"]
                + [f"dec_{l}" for l in range(1, self.depth + 1)])


@dataclass
class FeatureTap:
    """One intermediate activation plus its spatial downsampling factor."""
    name: str
    activation: Tensor
    downsample_factor: int


class UNet:
    """Encoder-decoder with two 3x3 conv+ReLU per level, channel doubling,
    concatenation skips, nearest-upsample + 1x1 conv in the decoder, and a
    sigmoid 1x1 output head."""

    def __init__(self, config: UNetConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @property
    def param_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def clone(self) -> "UNet":
        return UNet(self.config, {k: Tensor(v.values.copy(), requires_grad=True)
                                  for k, v in self.params.items()})

    def forward(self, images: Tensor) -> tuple[Tensor, list[FeatureTap]]:
        cfg = self.config
        n, h, w, c = images.shape
        if (h, w) != cfg.image_size:
            raise DimensionError(
                f"input {h}x{w} does not match configured size {cfg.image_size}",
                axis="spatial")
        if c != cfg.in_channels:
            raise DimensionError(
                f"input has {c} channels, config expects {cfg.in_channels}",
                axis="channels")
        p = self.params
        taps: list[FeatureTap] = []

        x = images
        skips = []
        for l in range(1, cfg.depth + 1):
            x = relu(conv2d(x, p[f"enc{l}_conv1_w"], p[f"enc{l}_conv1_b"]))
            x = relu(conv2d(x, p[f"enc{l}_conv2_w"], p[f"enc{l}_conv2_b"]))
            taps.append(FeatureTap(f"enc_{l}", x, 2 ** (l - 1)))
            skips.append(x)
            x = maxpool2d(x, 2)

        x = relu(conv2d(x, p["bot_conv1_w"], p["bot_conv1_b"]))
        x = relu(conv2d(x, p["bot_conv2_w"], p["bot_conv2_b"]))
        taps.append(FeatureTap("bottleneck", x, 2 ** cfg.depth))

        for l in range(1, cfg.depth + 1):
            x = upsample_nearest(x, 2)
            x = conv2d(x, p[f"dec{l}_up_w"], p[f"dec{l}_up_b"])
            x = concat_channels(x, skips[cfg.depth - l])
            x = relu(conv2d(x, p[f"dec{l}_conv1_w"], p[f"dec{l}_conv1_b"]))
            x = relu(conv2d(x, p[f"dec{l}_conv2_w"], p[f"dec{l}_conv2_b"]))
            taps.append(FeatureTap(f"dec_{l}", x, 2 ** (cfg.depth - l)))

        logits = conv2d(x, p["head_w"], p["head_b"])
        return sigmoid(logits), taps


def _glorot(rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int) -> np.ndarray:
    fan_in = kh * kw * cin
    fan_out = kh * kw * cout
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(kh, kw, cin, cout)).astype(np.float32)


def _conv_layers(config: UNetConfig) -> list[tuple[str, int, int, int, int]]:
    """(name, kh, kw, cin, cout) of every conv, in declaration order."""
    layers = []
    cin = config.in_channels
    for l in range(1, config.depth + 1):
        cout = config.base_channels * 2 ** (l - 1)
        layers += [(f"enc{l}_conv1", 3, 3, cin, cout),
                   (f"enc{l}_conv2", 3, 3, cout, cout)]
        cin = cout
    cbot = config.base_channels * 2 ** config.depth
    layers += [("bot_conv1", 3, 3, cin, cbot), ("bot_conv2", 3, 3, cbot, cbot)]
    cin = cbot
    for l in range(1, config.depth + 1):
        cskip = config.base_channels * 2 ** (config.depth - l)
        layers += [(f"dec{l}_up", 1, 1, cin, cskip),
                   (f"dec{l}_conv1", 3, 3, 2 * cskip, cskip),
                   (f"dec{l}_conv2", 3, 3, cskip, cskip)]
        cin = cskip
    layers.append(("head", 1, 1, cin, 1))
    return layers


def init_params(config: UNetConfig, seed: int) -> UNet:
    """Uniform fan-based kernels, zero biases, drawn in declaration order."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, kh, kw, cin, cout in _conv_layers(config):
        params[f"{name}_w"] = Tensor(_glorot(rng, kh, kw, cin, cout), requires_grad=True)
        params[f"{name}_b"] = Tensor(np.zeros((1, 1, 1, cout), np.float32),
                                     requires_grad=True)
    return UNet(config, params)


# -- checkpoint format --------------------------------------------------------
# magic "FDSEGCKP" | u32 len + config JSON | per tensor: u32 len + {name,shape}
# JSON header, then little-endian float32 payload, in declaration order.

def save_checkpoint(model: UNet, path: str) -> None:
    """Write to a temporary file beside `path`, then rename it over `path`, so
    a write that fails or is cut short leaves any earlier checkpoint whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name, t in model.params.items():
                header = json.dumps({"name": name, "shape": list(t.shape)},
                                    sort_keys=True).encode("utf-8")
                fh.write(struct.pack("<I", len(header)))
                fh.write(header)
                fh.write(t.values.astype("<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read(fh, n: int, path: str, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ContractError(f"{path}: checkpoint truncated in {what} "
                            f"({len(data)} of {n} bytes)")
    return data


def _read_json(fh, path: str, what: str) -> dict:
    """The JSON object of a header; any other JSON value is an error."""
    (n,) = struct.unpack("<I", _read(fh, 4, path, what))
    try:
        value = json.loads(_read(fh, n, path, what).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON
        raise ContractError(f"{path}: corrupt checkpoint {what}: {exc}") from None
    if not isinstance(value, dict):
        raise ContractError(f"{path}: checkpoint {what} is not a JSON object: "
                            f"{value!r}")
    return value


def _config_from_header(cfg: dict, path: str) -> UNetConfig:
    """The UNetConfig of a config header, which must hold exactly the integers
    save_checkpoint writes: depth, base_channels, in_channels and the two of
    image_size."""
    ints = ("depth", "base_channels", "in_channels")
    size = cfg.get("image_size")
    well_formed = (set(cfg) == {*ints, "image_size"}
                   and all(type(cfg[k]) is int for k in ints)
                   and isinstance(size, list) and len(size) == 2
                   and all(type(v) is int for v in size))
    if not well_formed:
        raise ContractError(f"{path}: malformed checkpoint config {cfg!r}")
    try:
        return UNetConfig(**{k: cfg[k] for k in ints}, image_size=tuple(size))
    except DimensionError as exc:
        raise ContractError(f"{path}: bad checkpoint config: {exc}") from None


def load_checkpoint(path: str) -> UNet:
    """Read a checkpoint written by save_checkpoint. Every tensor must have the
    name and shape its config implies, in declaration order, and nothing may
    follow the last one."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"{path}: bad checkpoint magic {magic!r}")
        config = _config_from_header(_read_json(fh, path, "config"), path)
        params: dict[str, Tensor] = {}
        for layer, kh, kw, cin, cout in _conv_layers(config):
            for name, shape in ((f"{layer}_w", (kh, kw, cin, cout)),
                                (f"{layer}_b", (1, 1, 1, cout))):
                header = _read_json(fh, path, f"header of {name}")
                found = [header.get("name"), header.get("shape")]
                if found != [name, list(shape)]:
                    raise ContractError(f"{path}: expected {name} {list(shape)}, "
                                        f"found {found[0]} {found[1]}")
                data = _read(fh, 4 * int(np.prod(shape)), path, f"payload of {name}")
                values = np.frombuffer(data, dtype="<f4").reshape(shape)
                params[name] = Tensor(values.astype(np.float32), requires_grad=True)
        if fh.read(1):
            raise ContractError(f"{path}: trailing bytes after the last tensor")
    return UNet(config, params)
