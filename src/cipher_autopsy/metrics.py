"""Entropy, PSNR/MSE and UACI for 8-bit grayscale images: one
evaluate_pair row per (plaintext, ciphertext) pair.

Every metric comes from one pass over the pixels, 2^15 at a time (of
images in memory or of PGM files streamed from disk, read at that size):
the transformed image's 256-bin histogram gives the entropy, and the
exact integer sums of |x - y| and (x - y)^2 give the UACI and MSE
numerators.  The histogram is counted in four interleaved lanes, pixel i
into bin y + 256 * (i mod 4), and folded to 256 bins at the end, so a run
of equal pixels (a low-entropy ciphertext) spreads over four counters
instead of stalling on one.  No temporary outgrows a chunk, and floating
point enters only at the final division or logarithm, so the numbers are
bit-stable across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


# Pixels per step: its 256 KiB intp bincount copy, not the image, bounds a call's temporaries.
_CHUNK = 1 << 15
assert _CHUNK * 255**2 < 2**32  # so each chunk's uint32 sums of |x - y| and (x - y)^2 are exact
# Each pixel's lane offset 256 * (i mod 4) within a chunk, as uint16 (64 KiB).
_LANES = np.tile(np.arange(0, 1024, 256, dtype=np.uint16), _CHUNK // 4)


def _tally(plain, transformed) -> tuple[np.ndarray, int, int]:
    """The 256-bin histogram of the transformed pixels y and the exact sums
    of |x - y| and (x - y)^2 with the plain pixels x, read _CHUNK at a time."""
    hist, abs_sum, sq_sum = np.zeros(1024, dtype=np.int64), 0, 0
    for x, y in zip(plain.chunks(_CHUNK), transformed.chunks(_CHUNK)):
        hist += np.bincount(np.add(y, _LANES[: y.size], dtype=np.uint16), minlength=1024)
        d = x.astype(np.int16) - y
        d = np.abs(d, out=d).view(np.uint16)  # at most 255, so d * d fits in uint16
        abs_sum += int(np.add.reduce(d, dtype=np.uint32))
        sq_sum += int(np.add.reduce(np.multiply(d, d, out=d), dtype=np.uint32))
    return hist.reshape(4, 256).sum(axis=0), abs_sum, sq_sum


def evaluate_pair(plain, transformed) -> MetricsReport:
    """The comparison-table row for one (plaintext, ciphertext) pair of
    GrayImages or PgmSources: entropy of the transformed image, PSNR/UACI/MSE
    of the pair, all from one pass over the two images' chunks.  Neither is
    empty: GrayImage and the PGM header refuse that."""
    if (plain.width, plain.height) != (transformed.width, transformed.height):
        raise DimensionMismatchError(
            f"{plain.width}x{plain.height} vs {transformed.width}x{transformed.height}"
        )
    hist, abs_sum, sq_sum = _tally(plain, transformed)
    p = hist[hist > 0] / plain.size
    m = sq_sum / plain.size
    return MetricsReport(
        entropy_bits=float(-np.sum(p * np.log2(p))),
        psnr_db=math.inf if m == 0 else 20 * math.log10(255) - 10 * math.log10(m),
        uaci_percent=abs_sum / (plain.size * 255) * 100.0,
        mse=m,
    )
