"""Minimal configurable U-Net exposing every level's activation as a tap."""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, ContractError, DimensionError, concat_channels,
                     conv2d, maxpool2d, relu, sigmoid, upsample_nearest)

CHECKPOINT_MAGIC = b"FDSEGCKP"


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 2
    base_channels: int = 8
    in_channels: int = 1
    image_size: tuple[int, int] = (64, 64)

    def __post_init__(self):
        if self.depth < 1:
            raise DimensionError(f"depth must be >= 1, got {self.depth}", axis="depth")
        if self.base_channels < 1:
            raise DimensionError(f"base_channels must be >= 1, got {self.base_channels}")
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


def init_params(config: UNetConfig, seed: int) -> UNet:
    """Uniform fan-based kernels, zero biases, drawn in declaration order."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def conv(name: str, kh: int, kw: int, cin: int, cout: int) -> None:
        params[f"{name}_w"] = Tensor(_glorot(rng, kh, kw, cin, cout), requires_grad=True)
        params[f"{name}_b"] = Tensor(np.zeros((1, 1, 1, cout), np.float32),
                                     requires_grad=True)

    cin = config.in_channels
    for l in range(1, config.depth + 1):
        cout = config.base_channels * 2 ** (l - 1)
        conv(f"enc{l}_conv1", 3, 3, cin, cout)
        conv(f"enc{l}_conv2", 3, 3, cout, cout)
        cin = cout
    cbot = config.base_channels * 2 ** config.depth
    conv("bot_conv1", 3, 3, cin, cbot)
    conv("bot_conv2", 3, 3, cbot, cbot)
    cin = cbot
    for l in range(1, config.depth + 1):
        cskip = config.base_channels * 2 ** (config.depth - l)
        conv(f"dec{l}_up", 1, 1, cin, cskip)
        conv(f"dec{l}_conv1", 3, 3, 2 * cskip, cskip)
        conv(f"dec{l}_conv2", 3, 3, cskip, cskip)
        cin = cskip
    conv("head", 1, 1, cin, 1)
    return UNet(config, params)


# -- checkpoint format --------------------------------------------------------
# magic "FDSEGCKP" | u32 len + config JSON | per tensor: u32 len + {name,shape}
# JSON header, then little-endian float32 payload, in declaration order.

def save_checkpoint(model: UNet, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        cfg = {"depth": model.config.depth,
               "base_channels": model.config.base_channels,
               "in_channels": model.config.in_channels,
               "image_size": list(model.config.image_size)}
        blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, t in model.params.items():
            header = json.dumps({"name": name, "shape": list(t.shape)},
                                sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(t.values.astype("<f4").tobytes())


def load_checkpoint(path: str) -> UNet:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"bad checkpoint magic {magic!r}")
        (clen,) = struct.unpack("<I", fh.read(4))
        cfg = json.loads(fh.read(clen).decode("utf-8"))
        config = UNetConfig(depth=cfg["depth"], base_channels=cfg["base_channels"],
                            in_channels=cfg["in_channels"],
                            image_size=tuple(cfg["image_size"]))
        model = init_params(config, seed=0)
        for name in model.params:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            if header["name"] != name:
                raise ValueError(f"checkpoint order mismatch: {header['name']} != {name}")
            shape = tuple(header["shape"])
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(count * 4), dtype="<f4").reshape(shape)
            model.params[name] = Tensor(data.astype(np.float32), requires_grad=True)
        return model
