"""Reference forms shared by several test files: the closed-form metric
expectations of the calibration pairs, the full expansion of a Z/256 row
coset, the Hill layer's 4x4 block matrix written out entry by entry and as
hill_apply computes it, the whole-array Hill key solve, and a general
run-length code; and the random Hill key and one-block encryption that
several files draw their samples with."""

import math

import numpy as np

from cipher_autopsy.algebra import bytes_mod256, row_coset, two_smallest
from cipher_autopsy.ecchc import HillKey, expand_key, hill_apply


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


def block_matrix(k) -> tuple[tuple[int, int, int, int], ...]:
    """The self-invertible block matrix [[K, I-K], [I+K, -K]] mod 256 of the
    2x2 key k, entry by entry, as row-major tuples; the program never builds
    it, and hill_apply's difference form is held against it."""
    (k11, k12), (k21, k22) = ((v % 256 for v in row) for row in k)
    return (
        (k11, k12, (1 - k11) % 256, (-k12) % 256),
        (k21, k22, (-k21) % 256, (1 - k22) % 256),
        ((1 + k11) % 256, k12, (-k11) % 256, (-k12) % 256),
        (k21, (1 + k22) % 256, (-k21) % 256, (-k22) % 256),
    )


def random_key(rng) -> HillKey:
    """The Hill key of the 2x2 matrix rng.integers(0, 256, 4) draws, row-major."""
    k = rng.integers(0, 256, 4)
    return expand_key(((int(k[0]), int(k[1])), (int(k[2]), int(k[3]))))


def encrypt_block(key: HillKey, block) -> tuple:
    """hill_apply of one block, as a tuple of ints."""
    return tuple(hill_apply(np.array([block], dtype=np.uint8), key.k)[0].tolist())


def applied_matrix(key: HillKey) -> tuple:
    """The block matrix as hill_apply computes it, as row-major tuples:
    column j is the image of e_j."""
    return tuple(map(tuple, hill_apply(np.eye(4, dtype=np.uint8), key.k).T.tolist()))


def coset_pairs(coset) -> np.ndarray:
    """Every pair of a row_coset in ascending (x, y) order, as an (m, 2)
    int64 array: each y = ty/2^vy + j * 2^(8 - vy) has the 2^vx solutions
    x = x0(y) + k * 2^(8 - vx)."""
    if coset is None:
        return np.empty((0, 2), dtype=np.int64)
    vx, bx, tx, vy, ty = coset
    ys = (ty >> vy) + (np.arange(1 << vy) << (8 - vy))
    xs = ((tx - bx * ys) % 256 >> vx)[:, None] + (np.arange(1 << vx) << (8 - vx))
    codes = np.sort((xs * 256 + ys[:, None]).ravel())
    return np.stack([codes >> 8, codes & 0xFF], axis=1)


def solve_rows_mod256(a, b, t) -> np.ndarray:
    """Every (x, y) with a[i]*x + b[i]*y = t[i] (mod 256) for all rows i,
    as an ascending (m, 2) int64 array, m = 0 when the rows are inconsistent."""
    return coset_pairs(row_coset(*(bytes_mod256(r) for r in (a, b, t))))


def hill_keys(pblocks, cblocks, known=(None, None, None, None)) -> list[tuple[int, int, int, int]]:
    """The two smallest keys that map every plaintext block to its
    ciphertext block and agree with the known key bytes, from one solve
    over all the blocks at once: the reference for the program's chunk
    fold.  A block pair with c_bot - c_top != p_top - p_bot fits no
    key; otherwise each key row is one system over Z/256, the known bytes
    its extra equations."""
    p0, p1, p2, p3 = bytes_mod256(pblocks).T
    c0, c1, c2, c3 = bytes_mod256(cblocks).T
    d0, d1 = p0 - p2, p1 - p3
    if ((c2 - c0 != d0) | (c3 - c1 != d1)).any():
        return []
    rows = []
    for r, t in enumerate((c0 - p2, c1 - p3)):
        extra = [(1 - j, j, v) for j, v in enumerate(known[2 * r : 2 * r + 2]) if v is not None]
        eqs = zip((d0, d1, t), bytes_mod256(extra).reshape(-1, 3).T)
        rows.append(two_smallest(row_coset(*(np.concatenate(col) for col in eqs))))
    top, bot = rows
    keys = [top[i] + bot[j] for i, j in ((0, 0), (0, 1), (1, 0)) if i < len(top) and j < len(bot)]
    return keys[:2]


def rle(mask) -> str:
    """Run-length code of a boolean array, row-major, as 'value:length'
    runs joined by ','."""
    flat = np.asarray(mask, dtype=np.uint8).ravel()
    starts = np.flatnonzero(np.diff(flat, prepend=2))  # every run start; 2 is no byte value
    lengths = np.diff(starts, append=flat.size)
    return ",".join(f"{flat[s]}:{n}" for s, n in zip(starts, lengths))
