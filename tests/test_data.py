"""Tests for synthetic site generation, augmentation, splits, and PGM I/O."""
import dataclasses
import re

import numpy as np
import pytest

import fdseg.data
from fdseg.data import (BASE_SITE, NOVEL_SITE, PgmParseError, SiteConfig,
                        SiteSample, add_gaussian_noise, augment, generate_site,
                        load_pgm_pair, load_site, save_pgm, save_site,
                        split_dataset)
from fdseg.tensor import ContractError, DimensionError

SMALL = SiteConfig(name="base", fg_intensity_mean=0.75, bg_intensity_mean=0.35,
                   texture_sigma=0.05, blur_radius=0, n_shapes=(1, 3),
                   image_size=(32, 32))


def flat_config(**kw):
    base = dict(name="base", fg_intensity_mean=0.8, bg_intensity_mean=0.2,
                texture_sigma=0.0, blur_radius=0, n_shapes=(1, 2),
                image_size=(16, 16))
    base.update(kw)
    return SiteConfig(**base)


@pytest.mark.parametrize("key", ["fg_intensity_mean", "bg_intensity_mean",
                                 "texture_sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_site_rejects_non_finite_value(key, value):
    with pytest.raises(ContractError, match=f"{key} must be finite"):
        flat_config(**{key: value})


def test_degenerate_site_rejected():
    with pytest.raises(Exception):
        flat_config(fg_intensity_mean=0.5, bg_intensity_mean=0.5)


def test_clean_site_is_two_level():
    samples = generate_site(flat_config(), 5, seed=0)
    for s in samples:
        vals = set(np.unique(s.image))
        assert vals <= {np.float32(0.2), np.float32(0.8)}


def test_generation_deterministic():
    a = generate_site(SMALL, 4, seed=42)
    b = generate_site(SMALL, 4, seed=42)
    for x, y in zip(a, b):
        assert x.image.tobytes() == y.image.tobytes()
        assert x.mask.tobytes() == y.mask.tobytes()


def test_generation_seed_sensitivity():
    a = generate_site(SMALL, 2, seed=1)
    b = generate_site(SMALL, 2, seed=2)
    assert a[0].image.tobytes() != b[0].image.tobytes()


def test_masks_have_both_classes():
    for s in generate_site(SMALL, 20, seed=3):
        assert 0 < s.mask.sum() < s.mask.size


def test_foreground_intensity_monte_carlo():
    samples = generate_site(SMALL, 100, seed=4)
    fg_vals = np.concatenate([s.image[s.mask > 0] for s in samples])
    assert abs(fg_vals.mean() - SMALL.fg_intensity_mean) < 0.02


def test_shift_monotone_in_intensity_gap():
    """A wider fg/bg gap makes a fixed-threshold segmenter strictly better."""
    dices = []
    for gap in (0.1, 0.25, 0.45):
        cfg = flat_config(fg_intensity_mean=0.5 + gap / 2,
                          bg_intensity_mean=0.5 - gap / 2,
                          texture_sigma=0.15)
        total = 0.0
        for s in generate_site(cfg, 50, seed=5):
            pred = (s.image > 0.5).astype(np.float64)
            inter = (pred * s.mask).sum()
            total += 2 * inter / (pred.sum() + s.mask.sum() + 1e-9)
        dices.append(total / 50)
    assert dices[0] < dices[1] < dices[2]


# -- noise -------------------------------------------------------------------------

def test_noise_sigma_zero_is_identity():
    img = generate_site(SMALL, 1, seed=6)[0].image
    out = add_gaussian_noise(img, 0.0, seed=7)
    np.testing.assert_array_equal(out, img)


def test_noise_empirical_std():
    img = np.full((64, 64, 1), 0.5, dtype=np.float32)
    for sigma in (0.05, 0.10, 0.15):
        noisy = add_gaussian_noise(img, sigma, seed=8)
        interior = (noisy > 0) & (noisy < 1)
        measured = (noisy - img)[interior].std()
        assert abs(measured - sigma) < 0.1 * sigma


def test_noise_clipped_to_unit_interval():
    img = np.full((32, 32, 1), 0.95, dtype=np.float32)
    noisy = add_gaussian_noise(img, 0.2, seed=9)
    assert noisy.max() <= 1.0 and noisy.min() >= 0.0


# -- augmentation --------------------------------------------------------------------

def test_augment_returns_five():
    s = generate_site(SMALL, 1, seed=10)[0]
    outs = augment(s)
    assert len(outs) == 5
    np.testing.assert_array_equal(outs[0].image, s.image)


def test_hflip_involution():
    s = generate_site(SMALL, 1, seed=11)[0]
    flipped = augment(augment(s)[1])[1]
    np.testing.assert_array_equal(flipped.image, s.image)
    np.testing.assert_array_equal(flipped.mask, s.mask)


def test_rotation_four_times_is_identity():
    s = generate_site(SMALL, 1, seed=12)[0]
    cur = s
    for _ in range(4):
        cur = augment(cur)[3]
    np.testing.assert_array_equal(cur.image, s.image)


def test_augment_preserves_mask_area():
    s = generate_site(SMALL, 1, seed=13)[0]
    for out in augment(s):
        assert out.mask.sum() == s.mask.sum()


def test_augment_applies_same_transform_to_both():
    s = generate_site(flat_config(), 1, seed=14)[0]
    for out in augment(s):
        # foreground pixels must still carry the foreground intensity
        assert np.all(out.image[out.mask > 0] == np.float32(0.8))


def test_augment_rejects_non_square():
    s = SiteSample(image=np.zeros((4, 8, 1), dtype=np.float32),
                   mask=np.pad(np.ones((2, 2, 1), dtype=np.float32),
                               ((0, 2), (0, 6), (0, 0))),
                   source="base", id=0)
    with pytest.raises(ContractError):
        augment(s)


# -- splits -------------------------------------------------------------------------

def test_split_sizes_ten_samples():
    samples = generate_site(SMALL, 10, seed=15)
    tr, te, va = split_dataset(samples, seed=0)
    assert (len(tr), len(te), len(va)) == (7, 2, 1)


def test_split_remainder_goes_to_train():
    samples = generate_site(SMALL, 13, seed=16)
    tr, te, va = split_dataset(samples, seed=0)
    assert (len(tr), len(te), len(va)) == (10, 2, 1)  # floor(13*.2)=2, floor(13*.1)=1


def test_split_deterministic_and_disjoint():
    samples = generate_site(SMALL, 10, seed=17)
    a = split_dataset(samples, seed=5)
    b = split_dataset(samples, seed=5)
    for pa, pb in zip(a, b):
        assert [s.id for s in pa] == [s.id for s in pb]
    all_ids = sorted(s.id for part in a for s in part)
    assert all_ids == sorted(s.id for s in samples)


def test_split_rejects_empty_partition():
    samples = generate_site(SMALL, 3, seed=18)
    with pytest.raises(ContractError):
        split_dataset(samples, seed=0)


def test_split_rejects_bad_ratios():
    samples = generate_site(SMALL, 10, seed=19)
    with pytest.raises(ContractError):
        split_dataset(samples, ratios=(0.5, 0.2, 0.2), seed=0)


# -- PGM I/O ------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    s = generate_site(SMALL, 1, seed=20)[0]
    img_path, mask_path = save_pgm(s, str(tmp_path))
    loaded = load_pgm_pair(img_path, mask_path, source="base", sample_id=s.id)
    assert np.max(np.abs(loaded.image - s.image)) <= 1.0 / 255.0 + 1e-6
    np.testing.assert_array_equal(loaded.mask, s.mask)


def test_pgm_binary_mask_bytes(tmp_path):
    path = tmp_path / "m.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
    with open(tmp_path / "i.pgm", "wb") as fh:
        fh.write(b"P5\n2 2\n255\n" + bytes([10, 200, 10, 200]))
    s = load_pgm_pair(str(tmp_path / "i.pgm"), str(path))
    np.testing.assert_array_equal(s.mask[:, :, 0], [[0, 1], [0, 1]])


def test_pgm_bad_magic_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmParseError) as exc:
        load_pgm_pair(str(path), str(path))
    assert exc.value.offset == 1


def test_pgm_truncated_pixels(tmp_path):
    path = tmp_path / "short.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PgmParseError):
        load_pgm_pair(str(path), str(path))


def test_pgm_wrong_maxval(tmp_path):
    path = tmp_path / "max.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n128\n" + bytes(4))
    with pytest.raises(PgmParseError):
        load_pgm_pair(str(path), str(path))


def test_pgm_header_comment_is_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# written by hand\n2 1\n255\n" + bytes([0, 255]))
    s = load_pgm_pair(str(path), str(path))
    np.testing.assert_array_equal(s.mask[:, :, 0], [[0, 1]])


def test_pgm_non_integer_header_field_offset(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 x2\n255\n" + bytes(4))
    with pytest.raises(PgmParseError, match="x2") as exc:
        load_pgm_pair(str(path), str(path))
    assert exc.value.offset == 5


def test_pgm_image_and_mask_sizes_differ(tmp_path):
    img, mask = tmp_path / "i.pgm", tmp_path / "m.pgm"
    img.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    mask.write_bytes(b"P5\n2 1\n255\n" + bytes(2))
    with pytest.raises(PgmParseError, match="differ"):
        load_pgm_pair(str(img), str(mask))


def test_site_directory_roundtrip(tmp_path):
    samples = generate_site(SMALL, 3, seed=21)
    site_dir = save_site(samples, SMALL, str(tmp_path))
    loaded = load_site(site_dir)
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        assert back.id == orig.id
        np.testing.assert_array_equal(back.mask, orig.mask)


def test_default_sites_are_shifted():
    assert BASE_SITE.fg_intensity_mean != NOVEL_SITE.fg_intensity_mean
    assert NOVEL_SITE.texture_sigma > BASE_SITE.texture_sigma
    assert NOVEL_SITE.blur_radius > BASE_SITE.blur_radius


@pytest.mark.parametrize("field", ["texture_sigma", "blur_radius"])
def test_site_rejects_negative_noise_or_blur(field):
    with pytest.raises(ContractError, match="site base: negative noise/blur"):
        dataclasses.replace(BASE_SITE, **{field: -1})


@pytest.mark.parametrize("fill", [0.0, 1.0], ids=["background", "foreground"])
def test_pgm_pair_whose_mask_has_one_class_is_rejected(tmp_path, fill):
    sample = SiteSample(image=np.full((8, 8, 1), 0.5, np.float32),
                        mask=np.full((8, 8, 1), fill, np.float32),
                        source="base", id=7)
    img_path, mask_path = save_pgm(sample, str(tmp_path))
    with pytest.raises(ContractError,
                       match="sample 7: mask must contain both classes"):
        load_pgm_pair(img_path, mask_path, sample_id=7)


@pytest.mark.parametrize("size", [(0, 0), (-4, -4), (16, 0), (16,), (16.0, 16)],
                         ids=["zero", "negative", "zero_width", "one_value",
                              "float"])
def test_site_rejects_an_image_size_that_cannot_be_drawn(size):
    with pytest.raises(DimensionError, match=re.escape(f"image size {size}")):
        flat_config(image_size=size)


@pytest.mark.parametrize("header", [
    b"P5 2 1 255\n", b"P5\t2\r\n1\x0b255\x0c", b"P5# no space before\n2 1\n255\n",
    b"P5\n#a\n#b\n2 # w\n1\n# h\n255\n", b"P5\n02 001\n255\n",
], ids=["spaces", "other_whitespace", "comment_after_magic", "comments",
        "leading_zeros"])
def test_pgm_header_fields_between_whitespace_and_comments(tmp_path, header):
    path = tmp_path / "h.pgm"
    path.write_bytes(header + bytes([0, 255]))
    s = load_pgm_pair(str(path), str(path))
    np.testing.assert_array_equal(s.mask[:, :, 0], [[0, 1]])


@pytest.mark.parametrize("data,message,offset", [
    (b"P2\n2 1\n255\n\x00\xff", "bad magic b'P2', expected P5", 1),
    (b"P5\n2 1\n255#\n\x00\xff", "expected integer header field, got b'255#'",
     7),
    (b"P5\n2 1\n# to the end", "expected integer header field, got b''", 19),
    (b"P5\n2 1\n128\n\x00\xff", "maxval must be 255, got 128", 10),
    (b"P5\n2 1\n255\n\x00", "expected 2 pixel bytes, got 1", 11),
], ids=["magic", "hash_inside_field", "comment_to_end", "maxval", "pixels"])
def test_pgm_error_names_the_file_and_keeps_its_offset(tmp_path, data, message,
                                                       offset):
    path = tmp_path / "e.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmParseError, match=re.escape(
            f"{path}: {message} (byte offset {offset})")) as exc:
        load_pgm_pair(str(path), str(path))
    assert exc.value.offset == offset


def test_pgm_sizes_that_differ_name_both_files(tmp_path):
    img, mask = tmp_path / "i.pgm", tmp_path / "m.pgm"
    img.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    mask.write_bytes(b"P5\n2 1\n255\n" + bytes(2))
    with pytest.raises(PgmParseError, match=re.escape(
            f"{img}: image (2, 2) and mask {mask} (1, 2) dimensions differ")):
        load_pgm_pair(str(img), str(mask))


def test_pgm_with_bytes_after_its_pixels_is_rejected(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]) + bytes(28))
    with pytest.raises(PgmParseError, match=re.escape(
            f"{path}: expected 2 pixel bytes, got 30 (byte offset 11)")):
        load_pgm_pair(str(path), str(path))


@pytest.mark.parametrize("name", ["copy of 1.pgm", "01.pgm", "1.pgm.pgm"])
def test_site_with_a_stray_image_file_names_it(tmp_path, name):
    site_dir = save_site(generate_site(flat_config(), 3, seed=0), flat_config(),
                         str(tmp_path))
    images = tmp_path / "base" / "images"
    (images / name).write_bytes((images / "1.pgm").read_bytes())
    with pytest.raises(ContractError, match=re.escape(
            f"{site_dir}: images/{name} is not named <sample id>.pgm")):
        load_site(site_dir)


@pytest.mark.parametrize("n_shapes", [(3, 1), (0, 0), (-1, 2), (1,), (1, 2, 3),
                                      (1.0, 2)],
                         ids=["reversed", "none", "negative", "one_value",
                              "three_values", "float"])
def test_site_rejects_shape_counts_that_cannot_be_drawn(n_shapes):
    with pytest.raises(ContractError, match=re.escape(
            f"site base: n_shapes {n_shapes} is not two integers")):
        flat_config(n_shapes=n_shapes)


def test_site_with_possibly_empty_draws_redraws_to_two_classes(monkeypatch):
    draws = []
    ellipse_mask = fdseg.data._ellipse_mask
    monkeypatch.setattr(fdseg.data, "_ellipse_mask",
                        lambda *a: draws.append(1) or ellipse_mask(*a))
    samples = generate_site(flat_config(n_shapes=(0, 2)), 12, seed=1234)
    assert len(draws) > len(samples) == 12
    for s in samples:
        assert 1 <= s.mask.sum() <= s.mask.size - 1


def test_site_gives_up_after_101_one_class_draws(monkeypatch):
    draws = []

    def empty(rng, h, w, n_range):
        draws.append(1)
        return np.zeros((h, w), dtype=bool)
    monkeypatch.setattr(fdseg.data, "_ellipse_mask", empty)
    with pytest.raises(ContractError,
                       match="site base: could not draw a two-class mask"):
        generate_site(flat_config(), 3, seed=0)
    assert len(draws) == 101


def test_renamed_site_tags_its_samples_with_its_name():
    shifted = dataclasses.replace(NOVEL_SITE, name="shifted", image_size=(16, 16))
    assert [s.source for s in generate_site(shifted, 4, seed=0)] == ["shifted"] * 4


@pytest.mark.parametrize("trailing", ["", "/"], ids=["plain", "trailing_slash"])
def test_loaded_site_tags_its_samples_with_its_directory_name(tmp_path, trailing):
    novel = dataclasses.replace(NOVEL_SITE, image_size=(16, 16))
    site_dir = save_site(generate_site(novel, 3, seed=0), novel, str(tmp_path))
    assert site_dir == str(tmp_path / "novel")
    assert [s.source for s in load_site(site_dir + trailing)] == ["novel"] * 3
