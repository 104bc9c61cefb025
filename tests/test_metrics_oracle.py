"""Differential test: the chunked one-pass metrics against the direct
int64 formulas (one difference array per metric), kept here as the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_autopsy.ecchc import ecchc_encrypt, expand_key
from cipher_autopsy.imagekit import (
    BadDimensionsError,
    GrayImage,
    gen_checkerboard,
    gen_constant,
    gen_drawing,
)
from cipher_autopsy.metrics import _CHUNK, MetricsReport, evaluate_pair

# --- oracle ---------------------------------------------------------------------


def _oracle_check_pair(a, b):
    if a.pixels.shape != b.pixels.shape:
        raise BadDimensionsError("shape")


def _oracle_entropy(img):
    counts = np.bincount(img.pixels.ravel(), minlength=256)
    p = counts[counts > 0] / img.size
    return float(-np.sum(p * np.log2(p)))


def _oracle_mse(a, b):
    _oracle_check_pair(a, b)
    d = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    return int(np.sum(d * d)) / a.size


def _oracle_psnr(a, b):
    m = _oracle_mse(a, b)
    if m == 0:
        return math.inf
    return 20 * math.log10(255) - 10 * math.log10(m)


def _oracle_uaci(a, b):
    _oracle_check_pair(a, b)
    d = np.abs(a.pixels.astype(np.int64) - b.pixels.astype(np.int64))
    return int(np.sum(d)) / (a.size * 255) * 100.0


def _oracle_report(plain, transformed):
    return MetricsReport(
        entropy_bits=_oracle_entropy(transformed),
        psnr_db=_oracle_psnr(plain, transformed),
        uaci_percent=_oracle_uaci(plain, transformed),
        mse=_oracle_mse(plain, transformed),
    )


# --- image pairs ------------------------------------------------------------------

shapes = st.tuples(st.integers(1, 64), st.integers(1, 64))


@st.composite
def pairs(draw):
    h, w = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identical", "constant_vs_noise", "two_level", "noise"]))
    noise = rng.integers(0, 256, (h, w), dtype=np.uint8)
    if kind == "identical":
        return GrayImage(noise), GrayImage(noise.copy())
    if kind == "constant_vs_noise":
        const = np.full((h, w), draw(st.integers(0, 255)), dtype=np.uint8)
        return (GrayImage(const), GrayImage(noise))[:: draw(st.sampled_from([1, -1]))]
    if kind == "two_level":
        a, b = (rng.integers(0, 2, (h, w), dtype=np.uint8) * np.uint8(255) for _ in "ab")
        return GrayImage(a), GrayImage(b)
    return GrayImage(noise), GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))


def _same(x, y):
    return x == y and type(x) is type(y)


def _assert_matches_oracle(a, b):
    got, want = evaluate_pair(a, b), _oracle_report(a, b)
    for field in ("entropy_bits", "psnr_db", "uaci_percent", "mse"):
        assert _same(getattr(got, field), getattr(want, field)), field
    assert got.to_json_dict() == want.to_json_dict()


@settings(max_examples=300, deadline=None)
@given(pair=pairs())
def test_every_field_matches_the_oracle_bit_for_bit(pair):
    _assert_matches_oracle(*pair)


def test_identical_pair_gives_infinite_psnr():
    img = GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8))
    report = evaluate_pair(img, img)
    assert report.psnr_db == math.inf == _oracle_psnr(img, img)
    assert report.mse == 0.0 and report.uaci_percent == 0.0


def test_extreme_pair_matches_oracle():
    black = GrayImage(np.zeros((64, 64), dtype=np.uint8))
    white = GrayImage(np.full((64, 64), 255, dtype=np.uint8))
    assert evaluate_pair(black, white) == _oracle_report(black, white)
    assert evaluate_pair(white, black).uaci_percent == 100.0


def _raised(fn, *args):
    try:
        fn(*args)
    except BadDimensionsError as exc:
        return type(exc)
    return None


SMALL = GrayImage(np.zeros((2, 2), dtype=np.uint8))
WIDE = GrayImage(np.zeros((2, 4), dtype=np.uint8))
TALL = GrayImage(np.zeros((4, 2), dtype=np.uint8))


@pytest.mark.parametrize(
    "plain,transformed",
    [
        (TALL, WIDE),  # same pixel count, transposed shape
        (WIDE, TALL),
        (SMALL, TALL),
        (TALL, SMALL),
        (SMALL, WIDE),
        (WIDE, SMALL),
    ],
)
def test_errors_come_in_the_oracle_order(plain, transformed):
    assert _raised(evaluate_pair, plain, transformed) == _raised(
        _oracle_report, plain, transformed
    )


def test_image_spanning_several_histogram_chunks_matches_oracle():
    # 600 x 601 pixels: more than one bincount chunk, the last one partial
    rng = np.random.default_rng(50)
    a = GrayImage(rng.integers(0, 256, (600, 601), dtype=np.uint8))
    b = GrayImage(rng.integers(0, 256, (600, 601), dtype=np.uint8))
    assert evaluate_pair(a, b) == _oracle_report(a, b)


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_pixel_counts_at_the_chunk_edge_match_oracle(n):
    rng = np.random.default_rng(n)
    a = GrayImage(rng.integers(0, 256, (1, n), dtype=np.uint8))
    b = GrayImage(rng.integers(0, 256, (1, n), dtype=np.uint8))
    assert evaluate_pair(a, b) == _oracle_report(a, b)


def test_extreme_multi_chunk_pair_matches_oracle_in_both_orders():
    # 300 x 301 pixels, three chunks: every difference is -255 one way
    # round and +255 the other, the largest |a - b| and (a - b)^2
    black = GrayImage(np.zeros((300, 301), dtype=np.uint8))
    white = GrayImage(np.full((300, 301), 255, dtype=np.uint8))
    for a, b in ((black, white), (white, black)):
        assert evaluate_pair(a, b) == _oracle_report(a, b)
        assert evaluate_pair(a, b).uaci_percent == 100.0


def test_largest_chunk_sums_at_2048_square_match_oracle_in_both_orders():
    # every chunk's sums at their bound: 2^15 * 255 and 2^15 * 255^2
    black, white = gen_constant(0, 2048, 2048), gen_constant(255, 2048, 2048)
    for a, b in ((black, white), (white, black)):
        _assert_matches_oracle(a, b)


HILL = expand_key(((3, 200), (77, 14)))


def _board_512():
    return GrayImage(np.tile(gen_checkerboard().pixels, (2, 2)))  # 32-pixel cells, as at 256^2


LOW_ENTROPY = {
    "constant": lambda: (gen_constant(0, 512, 512), gen_constant(93, 512, 512)),
    "ecchc checkerboard": lambda: (_board_512(), ecchc_encrypt(_board_512(), HILL)),
    "ecchc drawing": lambda: (
        gen_drawing(1, 2048, 2048),
        ecchc_encrypt(gen_drawing(1, 2048, 2048), HILL),
    ),
}


@pytest.mark.parametrize("make", LOW_ENTROPY.values(), ids=LOW_ENTROPY.keys())
def test_low_entropy_transformed_images_match_oracle(make):
    # runs of equal pixels, which the four histogram lanes split up
    plain, transformed = make()
    assert len(np.unique(transformed.pixels)) <= 64
    _assert_matches_oracle(plain, transformed)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (1, 7), (5, 5)])
def test_pixel_counts_off_the_four_lanes_match_oracle(shape):
    rng = np.random.default_rng(shape[0] * 8 + shape[1])
    a, b = (GrayImage(rng.integers(0, 256, shape, dtype=np.uint8)) for _ in "ab")
    _assert_matches_oracle(a, b)
    _assert_matches_oracle(a, GrayImage(np.full(shape, 7, dtype=np.uint8)))
