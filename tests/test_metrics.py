import math
import tracemalloc

import numpy as np
import pytest
from oracles import reference_expectations

from cipher_autopsy.imagekit import BadDimensionsError, GrayImage, gen_constant, gen_noise
from cipher_autopsy.metrics import evaluate_pair


def test_entropy_constant_image():
    for value in (0, 200):
        img = gen_constant(value)
        assert evaluate_pair(img, img).entropy_bits == 0.0


def test_entropy_two_level_half_half():
    half = np.zeros((256, 256), dtype=np.uint8)
    half[128:, :] = 255
    img = GrayImage(half)
    assert evaluate_pair(img, img).entropy_bits == 1.0


def test_entropy_uniform_histogram_is_exactly_8():
    # each value exactly 256 times in a 256x256 image
    flat = np.repeat(np.arange(256, dtype=np.uint8), 256)
    img = GrayImage(flat.reshape(256, 256))
    assert evaluate_pair(img, img).entropy_bits == 8.0


def test_an_empty_raster_never_reaches_a_metric():
    # the entropy of no pixels is undefined: GrayImage refuses the raster
    for shape in ((0, 4), (4, 0), (0, 0)):
        with pytest.raises(ValueError, match="non-empty"):
            GrayImage(np.zeros(shape, dtype=np.uint8))


def test_entropy_is_permutation_invariant():
    img = gen_noise(30)
    shuffled = img.pixels.ravel().copy()
    np.random.default_rng(31).shuffle(shuffled)
    other = GrayImage(shuffled.reshape(256, 256))
    assert evaluate_pair(img, img).entropy_bits == evaluate_pair(other, other).entropy_bits


def test_mse_identical_and_extremes():
    img = gen_noise(32)
    assert evaluate_pair(img, img).mse == 0.0
    assert evaluate_pair(gen_constant(0), gen_constant(255)).mse == 255.0**2


def test_mse_black_vs_noise_converges():
    value = evaluate_pair(gen_constant(0), gen_noise(33)).mse
    assert abs(value - 21717.5) < 300


def test_psnr_identical_is_infinite():
    img = gen_noise(34)
    assert math.isinf(evaluate_pair(img, img).psnr_db)


def test_psnr_black_vs_noise():
    assert abs(evaluate_pair(gen_constant(0), gen_noise(35)).psnr_db - 4.7627) <= 0.05


def test_psnr_noise_vs_noise():
    assert abs(evaluate_pair(gen_noise(36), gen_noise(37)).psnr_db - 7.7476) <= 0.05


def test_uaci_identical_and_references():
    img = gen_noise(38)
    assert evaluate_pair(img, img).uaci_percent == 0.0
    assert abs(evaluate_pair(gen_constant(0), gen_noise(39)).uaci_percent - 50.0) <= 0.5
    assert abs(evaluate_pair(gen_noise(40), gen_noise(41)).uaci_percent - 33.4641) <= 0.5


def test_symmetry():
    a, b = gen_noise(42), gen_noise(43)
    assert evaluate_pair(a, b).mse == evaluate_pair(b, a).mse
    assert evaluate_pair(a, b).uaci_percent == evaluate_pair(b, a).uaci_percent


def test_dimension_mismatch():
    a = gen_noise(44)
    b = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    for pair, message in (((a, b), "^256x256 vs 8x8$"), ((b, a), "^8x8 vs 256x256$")):
        with pytest.raises(BadDimensionsError, match=message):
            evaluate_pair(*pair)


def test_reference_expectations_match_headline_constants():
    refs = reference_expectations()
    assert refs["mse_black_random"] == 21717.5
    assert round(refs["psnr_black_random"], 4) == 4.7627
    assert round(refs["psnr_random_random"], 4) == 7.7476
    assert refs["uaci_black_random"] == 50.0
    assert round(refs["uaci_random_random"], 4) == 33.4641


def test_psnr_random_random_monte_carlo_cross_check():
    # 10^7 independent byte pairs
    rng = np.random.default_rng(45)
    a = rng.integers(0, 256, 10_000_000, dtype=np.int32)
    b = rng.integers(0, 256, 10_000_000, dtype=np.int32)
    mc_mse = float(np.mean((a - b) ** 2))
    mc_psnr = 20 * math.log10(255) - 10 * math.log10(mc_mse)
    assert abs(mc_psnr - reference_expectations()["psnr_random_random"]) < 0.01


def test_evaluate_pair_and_serialization():
    img = gen_noise(46)
    report = evaluate_pair(img, img)
    assert report.mse == 0.0 and math.isinf(report.psnr_db)
    d = report.to_json_dict()
    assert d["psnr"] == "inf"
    assert d["uaci_percent"] == 0.0

    other = gen_noise(47)
    report2 = evaluate_pair(img, other)
    d2 = report2.to_json_dict()
    assert d2["psnr"] == round(report2.psnr_db, 4)
    assert 0 <= report2.entropy_bits <= 8


@pytest.mark.parametrize("side", [256, 2048])
def test_pair_temporaries_are_bounded_by_the_chunk_not_the_image(side):
    rng = np.random.default_rng(side)
    a = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
    b = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
    evaluate_pair(a, b)  # warm: any lazy set-up is not a per-call temporary
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        evaluate_pair(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 512 * 1024
