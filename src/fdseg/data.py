"""Synthetic multi-site segmentation data, augmentation, noise, and PGM I/O."""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .tensor import ContractError, DimensionError


class PgmParseError(ValueError):
    def __init__(self, path: str, message: str, offset: int):
        super().__init__(f"{path}: {message} (byte offset {offset})")
        self.offset = offset


# Image size of single runs: the default of SiteConfig and UNetConfig, and of
# the `gen-data` and `train` commands.
IMAGE_SIZE = (64, 64)


def check_image_size(size) -> None:
    """Raise a DimensionError unless size is (h, w), two positive integers."""
    if not (len(size) == 2 and all(isinstance(v, (int, np.integer)) and v > 0
                                   for v in size)):
        raise DimensionError(f"image size {tuple(size)} is not two positive "
                             "integers", axis="spatial")


@dataclass(frozen=True)
class SiteConfig:
    name: str
    fg_intensity_mean: float
    bg_intensity_mean: float
    texture_sigma: float = 0.0
    blur_radius: int = 0
    n_shapes: tuple[int, int] = (1, 3)
    image_size: tuple[int, int] = IMAGE_SIZE

    def __post_init__(self):
        for key in ("fg_intensity_mean", "bg_intensity_mean", "texture_sigma"):
            if not math.isfinite(value := getattr(self, key)):
                raise ContractError(
                    f"site {self.name}: {key} must be finite, got {value}")
        if abs(self.fg_intensity_mean - self.bg_intensity_mean) <= 0:
            raise ContractError(
                f"site {self.name}: fg and bg intensities must differ")
        if self.texture_sigma < 0 or self.blur_radius < 0:
            raise ContractError(f"site {self.name}: negative noise/blur")
        n = self.n_shapes
        if not (len(n) == 2 and all(isinstance(v, (int, np.integer)) for v in n)
                and 0 <= n[0] <= n[1] >= 1):
            raise ContractError(f"site {self.name}: n_shapes {tuple(n)} is not "
                                "two integers 0 <= lo <= hi with hi >= 1")
        check_image_size(self.image_size)


# Default pair: base is clean-ish, novel is intensity-shifted, noisier and
# blurred so naive pooling measurably hurts base-test Dice.
BASE_SITE = SiteConfig("base", fg_intensity_mean=0.75, bg_intensity_mean=0.35,
                       texture_sigma=0.05)
NOVEL_SITE = SiteConfig("novel", fg_intensity_mean=0.55, bg_intensity_mean=0.30,
                        texture_sigma=0.12, blur_radius=1)
# The kit's sources by name; a sample's source tag is one of these names.
SITES = {site.name: site for site in (BASE_SITE, NOVEL_SITE)}

# Seed of the generated sites that single runs and sweeps train and test on.
DATA_SEED = 1234


@dataclass
class SiteSample:
    image: np.ndarray   # (h,w,1) float32 in [0,1]
    mask: np.ndarray    # (h,w,1) float32 binary
    source: str         # a key of SITES
    id: int

    def validate(self) -> "SiteSample":
        fg = self.mask.sum()
        if fg < 1 or fg > self.mask.size - 1:
            raise ContractError(f"sample {self.id}: mask must contain both classes")
        return self


def _ellipse_mask(rng: np.random.Generator, h: int, w: int, n_range) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    mask = np.zeros((h, w), dtype=bool)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    for _ in range(n):
        cy = rng.uniform(0.2 * h, 0.8 * h)
        cx = rng.uniform(0.2 * w, 0.8 * w)
        ry = rng.uniform(0.08 * h, 0.25 * h)
        rx = rng.uniform(0.08 * w, 0.25 * w)
        theta = rng.uniform(0, np.pi)
        dy, dx = yy - cy, xx - cx
        u = dx * np.cos(theta) + dy * np.sin(theta)
        v = -dx * np.sin(theta) + dy * np.cos(theta)
        mask |= (u / rx) ** 2 + (v / ry) ** 2 <= 1.0
    return mask


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    k = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    out = np.zeros_like(img)
    for i in range(k):
        for j in range(k):
            out += padded[i:i + img.shape[0], j:j + img.shape[1]]
    return out / (k * k)


def generate_site(config: SiteConfig, n: int, seed: int) -> list[SiteSample]:
    """Deterministic per (config, n, seed); per-sample streams keyed by (seed, id)."""
    if n < 1:
        raise ContractError("n must be >= 1")
    h, w = config.image_size
    samples = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        for _ in range(101):    # degenerate all-fg / all-bg masks are redrawn
            mask = _ellipse_mask(rng, h, w, config.n_shapes)
            if 1 <= mask.sum() <= mask.size - 1:
                break
        else:
            raise ContractError(f"site {config.name}: could not draw a two-class mask")
        img = (config.bg_intensity_mean
               + (config.fg_intensity_mean - config.bg_intensity_mean)
               * mask.astype(np.float64))
        if config.texture_sigma > 0:
            img = img + rng.normal(0.0, config.texture_sigma, size=img.shape)
        if config.blur_radius > 0:
            img = _box_blur(img, config.blur_radius)
        img = np.clip(img, 0.0, 1.0)
        samples.append(SiteSample(
            image=img.astype(np.float32)[..., None],
            mask=mask.astype(np.float32)[..., None],
            source=config.name if config.name in SITES else BASE_SITE.name,
            id=i).validate())
    return samples


def add_gaussian_noise(image: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """I~ = clip(I + eps, 0, 1) with eps ~ N(0, sigma^2) i.i.d. per pixel."""
    if sigma == 0:
        return image.copy()
    rng = np.random.default_rng(seed)
    noisy = image.astype(np.float64) + rng.normal(0.0, sigma, size=image.shape)
    return np.clip(noisy, 0.0, 1.0).astype(image.dtype)


def augment(sample: SiteSample) -> list[SiteSample]:
    """[original, hflip, vflip, rot+90, rot-90], same transform on image and mask."""
    h, w = sample.image.shape[:2]
    if h != w:
        raise ContractError("rotation augmentation requires square images")

    def tf(f) -> SiteSample:
        return SiteSample(image=np.ascontiguousarray(f(sample.image)),
                          mask=np.ascontiguousarray(f(sample.mask)),
                          source=sample.source, id=sample.id)

    return [tf(lambda a: a),
            tf(lambda a: np.flip(a, axis=1)),
            tf(lambda a: np.flip(a, axis=0)),
            tf(lambda a: np.rot90(a, 1, axes=(0, 1))),
            tf(lambda a: np.rot90(a, -1, axes=(0, 1)))]


def split_dataset(samples: Sequence[SiteSample],
                  ratios: tuple[float, float, float] = (0.7, 0.2, 0.1),
                  seed: int = 0) -> tuple[list[SiteSample], list[SiteSample],
                                          list[SiteSample]]:
    """Seeded shuffle, then contiguous train/test/val partition.

    Sizes use floor allocation with the remainder going to train; partitions are
    returned unaugmented (the training pipeline augments the train split only).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ContractError(f"ratios must sum to 1, got {ratios}")
    n = len(samples)
    n_test = int(n * ratios[1])
    n_val = int(n * ratios[2])
    n_train = n - n_test - n_val
    if min(n_train, n_test, n_val) < 1:
        raise ContractError(f"empty partition for n={n}, ratios={ratios}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [samples[i] for i in order]
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_test],
            shuffled[n_train + n_test:])


# -- PGM I/O -------------------------------------------------------------------

# A P5 header field: the whitespace and `#` comments before it, then its bytes.
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")
# The name save_pgm gives a sample's image and mask: its id, then ".pgm".
_SAMPLE_FILE = re.compile(r"(0|-?[1-9][0-9]*)\.pgm")


def _write_pgm(path: str, arr_u8: np.ndarray) -> None:
    h, w = arr_u8.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr_u8.tobytes())


def _read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise PgmParseError(path, f"bad magic {data[:2]!r}, expected P5", 1)
    pos, fields = 2, []
    for _ in range(3):
        field = _PGM_FIELD.match(data, pos)
        if not field[1].isdigit():
            raise PgmParseError(path, "expected integer header field, got "
                                f"{field[1]!r}", field.start(1))
        fields.append(int(field[1]))
        pos = field.end()
    w, h, maxval = fields
    if maxval != 255:
        raise PgmParseError(path, f"maxval must be 255, got {maxval}", pos)
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos:]
    if len(pixels) != w * h:
        raise PgmParseError(path, f"expected {w * h} pixel bytes, got "
                            f"{len(pixels)}", pos)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def save_pgm(sample: SiteSample, out_dir: str) -> tuple[str, str]:
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)
    img_path = os.path.join(out_dir, "images", f"{sample.id}.pgm")
    mask_path = os.path.join(out_dir, "masks", f"{sample.id}.pgm")
    img_u8 = np.rint(sample.image[..., 0] * 255.0).astype(np.uint8)
    mask_u8 = (sample.mask[..., 0] >= 0.5).astype(np.uint8) * 255
    _write_pgm(img_path, img_u8)
    _write_pgm(mask_path, mask_u8)
    return img_path, mask_path


def load_pgm_pair(image_path: str, mask_path: str, source: str = BASE_SITE.name,
                  sample_id: int = 0) -> SiteSample:
    img = _read_pgm(image_path)
    mask = _read_pgm(mask_path)
    if img.shape != mask.shape:
        raise PgmParseError(image_path, f"image {img.shape} and mask "
                            f"{mask_path} {mask.shape} dimensions differ", 0)
    sample = SiteSample(image=(img.astype(np.float32) / 255.0)[..., None],
                        mask=(mask >= 128).astype(np.float32)[..., None],
                        source=source, id=sample_id)
    return sample.validate()


def save_site(samples: Sequence[SiteSample], config: SiteConfig, root: str) -> str:
    """Write `<root>/<site>/{images,masks}/<id>.pgm` plus site.json."""
    site_dir = os.path.join(root, config.name)
    os.makedirs(site_dir, exist_ok=True)
    for s in samples:
        save_pgm(s, site_dir)
    with open(os.path.join(site_dir, "site.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
    return site_dir


def load_site(site_dir: str, source: str = BASE_SITE.name) -> list[SiteSample]:
    """The samples of `<site_dir>/images/*.pgm` in id order. Each such file
    must be named `<sample id>.pgm`, as save_pgm names it."""
    ids = []
    for name in os.listdir(os.path.join(site_dir, "images")):
        if name.endswith(".pgm"):
            match = _SAMPLE_FILE.fullmatch(name)
            if match is None:
                raise ContractError(f"{site_dir}: images/{name} is not named "
                                    "<sample id>.pgm")
            ids.append(int(match[1]))
    return [load_pgm_pair(os.path.join(site_dir, "images", f"{i}.pgm"),
                          os.path.join(site_dir, "masks", f"{i}.pgm"),
                          source=source, sample_id=i) for i in sorted(ids)]
