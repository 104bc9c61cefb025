"""Entropy, PSNR/MSE and UACI for 8-bit grayscale images, plus the
closed-form expectations for the two calibration cases (black vs noise,
noise vs noise).

Every metric comes from one pass over the pixels, one chunk at a time:
the transformed image's 256-bin histogram gives the entropy, and the
exact integer sums of |x - y| and (x - y)^2 give the UACI and MSE
numerators.  No temporary outgrows a chunk, and floating point enters
only at the final division or logarithm, so the numbers are bit-stable
across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imagekit import GrayImage


class EmptyImageError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class MetricsReport:
    """Entropy of the transformed image plus PSNR/UACI/MSE of the pair."""

    entropy_bits: float
    psnr_db: float  # math.inf when the images are identical
    uaci_percent: float
    mse: float

    def to_json_dict(self) -> dict:
        return {
            "entropy": round(self.entropy_bits, 4),
            "psnr": "inf" if math.isinf(self.psnr_db) else round(self.psnr_db, 4),
            "uaci_percent": round(self.uaci_percent, 4),
            "mse": round(self.mse, 4),
        }


# Pixels per chunk: its 256 KiB intp bincount copy, not the image, bounds a call's temporaries.
_CHUNK = 1 << 15


def _tally(b: GrayImage, a: GrayImage | None = None) -> tuple[np.ndarray, int, int]:
    """The 256-bin histogram of b and, given a, the exact sums of |a - b|
    and (a - b)^2 (both 0 without a)."""
    y, x = b.pixels.ravel(), None if a is None else a.pixels.ravel()
    hist, abs_sum, sq_sum = np.zeros(256, dtype=np.int64), 0, 0
    for s in range(0, y.size, _CHUNK):
        hist += np.bincount(y[s : s + _CHUNK], minlength=256)
        if x is not None:
            d = x[s : s + _CHUNK].astype(np.int16) - y[s : s + _CHUNK]
            d = np.abs(d, out=d).view(np.uint16)  # at most 255, so d * d fits in uint16
            abs_sum += int(d.sum(dtype=np.uint64))
            sq_sum += int(np.multiply(d, d, out=d).sum(dtype=np.uint64))
    return hist, abs_sum, sq_sum


def _entropy_bits(counts: np.ndarray, size: int) -> float:
    p = counts[counts > 0] / size
    return float(-np.sum(p * np.log2(p)))


def _pair_report(a: GrayImage, b: GrayImage) -> MetricsReport:
    """Every metric of the pair from the histogram of b and the sums of a - b."""
    if a.pixels.shape != b.pixels.shape:
        raise DimensionMismatchError(f"{a.width}x{a.height} vs {b.width}x{b.height}")
    hist, abs_sum, sq_sum = _tally(b, a)
    m = sq_sum / a.size
    return MetricsReport(
        entropy_bits=_entropy_bits(hist, b.size),
        psnr_db=math.inf if m == 0 else 20 * math.log10(255) - 10 * math.log10(m),
        uaci_percent=abs_sum / (a.size * 255) * 100.0,
        mse=m,
    )


def entropy(img: GrayImage) -> float:
    """Shannon entropy of the 256-bin pixel histogram, in bits."""
    if img.size == 0:
        raise EmptyImageError("entropy of an empty image is undefined")
    return _entropy_bits(_tally(img)[0], img.size)


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean square error; the sum of squared differences is exact."""
    return _pair_report(a, b).mse


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; infinite for identical images."""
    return _pair_report(a, b).psnr_db


def uaci(a: GrayImage, b: GrayImage) -> float:
    """Mean absolute pixel difference, normalized by 255, as a percentage."""
    return _pair_report(a, b).uaci_percent


def evaluate_pair(plain: GrayImage, transformed: GrayImage) -> MetricsReport:
    """The comparison-table row for one (plaintext, ciphertext) pair:
    entropy of the transformed image, PSNR/UACI/MSE of the pair, all from
    one chunked pass over the two images."""
    if transformed.size == 0:
        raise EmptyImageError("entropy of an empty image is undefined")
    return _pair_report(plain, transformed)


def reference_expectations() -> dict[str, float]:
    """Closed-form expectations for the calibration pairs, derived rather
    than hard-coded.

    black/random: MSE is the mean of i^2 over all byte values; UACI is the
    mean byte value over 255.  random/random: MSE is twice the variance of
    a uniform byte; the UACI expectation uses the continuous-uniform
    approximation E|X-Y| = 256/3, which is the form the headline constant
    33.4641 comes from (the exact discrete value is 33.4635, a hair lower).
    """
    mse_black = sum(i * i for i in range(256)) / 256
    mse_rand = (256 * 256 - 1) / 6
    return {
        "mse_black_random": mse_black,
        "psnr_black_random": 20 * math.log10(255) - 10 * math.log10(mse_black),
        "psnr_random_random": 20 * math.log10(255) - 10 * math.log10(mse_rand),
        "uaci_black_random": 100 * (sum(range(256)) / 256) / 255,
        "uaci_random_random": 100 * 256 / (3 * 255),
    }
