"""Executable form of every weakness in the two ciphers: known-plaintext
key recovery and brute force against the Hill layer, exhaustive key search
and keyless partial recovery against the weak counter cipher, the fixed-point
census and the duplicate-block detector; an image is read a chunk at a time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby
from typing import Iterator, Sequence

import numpy as np

from .algebra import Block, bytes_mod256, key_bytes, row_coset, two_smallest
from .dwc import dwc_decrypt, dwc_decrypt_kernel
from .ecchc import HillKey, expand_key, hill_apply
from .imagekit import MAP_CHUNK, BadDimensionsError, GrayImage, block_count, map_chunks


class KeyNotFoundError(ValueError):
    """No key consistent with the mask matches the image pair."""

    def __init__(self, message: str, candidates_tested: int = 0):
        super().__init__(message)
        self.candidates_tested = candidates_tested


class SearchRefusedError(ValueError):
    """The all-unknown 2^32 search was asked for without allow_full_search."""


class AttackStatus(str, Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class KpaSample:
    plaintext: Block
    ciphertext: Block


@dataclass(frozen=True)
class AttackOutcome:
    status: AttackStatus
    recovered_key: str | None  # canonical hex, present only when unique
    candidates_tested: int
    elapsed_s: float

    def __post_init__(self):
        assert (self.recovered_key is not None) == (self.status is AttackStatus.UNIQUE)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "key": self.recovered_key,
            "candidates_tested": self.candidates_tested,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
        }


@dataclass(frozen=True)
class KeyMask:
    """Per-byte known/unknown pattern over (k11, k12, k21, k22).

    Text form is 8 hex digits with '??' marking an unknown byte, e.g.
    'ab??cd??'.
    """

    values: tuple[int | None, int | None, int | None, int | None]

    @classmethod
    def parse(cls, text: str) -> "KeyMask":
        text = text.strip().lower()
        if len(text) != 8:
            raise ValueError("mask must be 8 characters (4 byte slots)")
        slots = [text[i : i + 2] for i in range(0, 8, 2)]
        error = "mask slot {!r} is neither 2 hex digits nor '??'"
        return cls(tuple(None if s == "??" else key_bytes(s, 1, error.format(s))[0] for s in slots))

    @property
    def unknown_positions(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v is None)

    @property
    def candidate_count(self) -> int:
        return 256 ** len(self.unknown_positions)


# ---------------------------------------------------------------------------
# Key recovery on the Hill layer: one linear system over Z/256.
# ---------------------------------------------------------------------------


def _hill_keys(pairs, known=(None, None, None, None)) -> list[tuple[int, int, int, int]]:
    """The two lexicographically smallest keys (fewer if fewer exist) that
    map every plaintext block to its ciphertext block and agree with the
    known key bytes, folded over one or more (plaintext, ciphertext) pairs
    of (m, 4) uint8 block chunks.

    Every key gives c_bot - c_top = d with d = p_top - p_bot, so a block
    pair that breaks this fits no key.  Otherwise key row r meets each
    block in one equation k_r1 * d0 + k_r2 * d1 = c[r] - p[r + 2], and a
    known byte is one more equation, e.g. (1, 0 | k11).  The rows are
    independent, so the keys that fit are (top solutions) x (bottom
    solutions), and the two smallest come from each row's two smallest.
    Each row's equations so far are carried to the next chunk as the two
    its row_coset stands for, 2^vx * x + bx * y = tx and 2^vy * y = ty
    (2^8 reads 0); the known bytes are the first carry.
    """
    eqs = ([(1 - j, j, v) for j, v in enumerate(known[r : r + 2]) if v is not None] for r in (0, 2))
    carry = [bytes_mod256(rows).reshape(-1, 3) for rows in eqs]
    for pblocks, cblocks in pairs:
        p0, p1, p2, p3 = pblocks.T
        c0, c1, c2, c3 = cblocks.T
        d0, d1 = p0 - p2, p1 - p3
        if ((c2 - c0 != d0) | (c3 - c1 != d1)).any():
            return []
        stacked = (zip(rows.T, (d0, d1, t)) for rows, t in zip(carry, (c0 - p2, c1 - p3)))
        cosets = [row_coset(*map(np.concatenate, cols)) for cols in stacked]
        if None in cosets:
            return []
        carry = [
            np.array([[(1 << vx) & 255, bx, tx], [0, (1 << vy) & 255, ty]], dtype=np.uint8)
            for vx, bx, tx, vy, ty in cosets
        ]
    top, bot = map(two_smallest, cosets)
    keys = [top[i] + bot[j] for i, j in ((0, 0), (0, 1), (1, 0)) if i < len(top) and j < len(bot)]
    return keys[:2]


def _hill_outcome(keys: list, tested: int, start: float) -> AttackOutcome:
    """The outcome for the first keys that fit, as _hill_keys lists them."""
    status = (AttackStatus.INCONSISTENT, AttackStatus.UNIQUE, AttackStatus.AMBIGUOUS)
    unique = len(keys) == 1
    return AttackOutcome(
        status=status[len(keys)],
        recovered_key=expand_key((keys[0][:2], keys[0][2:])).key_hex if unique else None,
        candidates_tested=tested,
        elapsed_s=time.perf_counter() - start,
    )


def kpa_recover_hill_key(samples: Sequence[KpaSample]) -> AttackOutcome:
    """Recover the 2x2 key from plaintext/ciphertext block pairs.

    The status is exact over the whole key space: unique when one key fits
    every pair, ambiguous when several do, inconsistent when none does.
    One block pins each key row only up to 256 choices, so a unique answer
    needs at least two blocks whose difference pairs have an odd
    determinant.  candidates_tested is 1 for a unique key and 0 otherwise.
    """
    start = time.perf_counter()
    if not samples:
        raise ValueError("need at least one sample")
    sides = [s.plaintext for s in samples], [s.ciphertext for s in samples]
    if any(set(map(len, side)) != {4} for side in sides):
        raise ValueError("every sample block must have 4 values")
    flat = (np.fromiter(chain.from_iterable(side), np.int64) for side in sides)
    keys = _hill_keys([[bytes_mod256(x).reshape(-1, 4) for x in flat]])
    return _hill_outcome(keys, int(len(keys) == 1), start)


def brute_force_hill(
    plain, cipher, mask: KeyMask, *, allow_full_search: bool = False
) -> AttackOutcome:
    """Find the keys consistent with the mask that map plain to cipher,
    GrayImages or PgmSources, read one chunk at a time.

    The result is that of a scan over the mask's candidates in ascending
    (k11, k12, k21, k22) order that goes on after a hit and reports
    ambiguous at the second match (a plaintext made of fixed points matches
    every key, for example).  candidates_tested is the number of candidates
    that scan tests: all of them when one key fits, the rank of the second
    match plus 1 when several do.  No scan runs: the matching keys are solved
    for exactly, one linear system per key row over Z/256, so any mask
    costs a few uint8 passes over the blocks: the 2^32 search on a 64x64
    image takes about 0.25 ms on a 2-core Xeon.  The all-unknown mask is
    still refused unless allow_full_search is set.

    Raises KeyNotFoundError when no candidate matches.
    """
    start = time.perf_counter()
    if (plain.width, plain.height) != (cipher.width, cipher.height):
        raise BadDimensionsError("plaintext/ciphertext size mismatch")
    if len(mask.unknown_positions) == 4 and not allow_full_search:
        raise SearchRefusedError("full 2^32 search refused; pass allow_full_search=True")
    block_count(plain)
    pairs = ((p.reshape(-1, 4), c.reshape(-1, 4)) for p, c in zip(plain.chunks(), cipher.chunks()))
    keys = _hill_keys(pairs, mask.values)
    if not keys:
        raise KeyNotFoundError("no key matches the image pair", mask.candidate_count)
    tested = mask.candidate_count
    if len(keys) > 1:  # the scan stops at the second match
        tested = int.from_bytes(bytes(keys[1][i] for i in mask.unknown_positions), "big") + 1
    return _hill_outcome(keys, tested, start)


# ---------------------------------------------------------------------------
# Attacks on the weak counter cipher.
# ---------------------------------------------------------------------------


# The bytes of a block that dwc_partial_recover gets back exactly.
_EXACT_BYTES = (False, True, True, True)


def dwc_partial_recover(cipher: GrayImage) -> tuple[GrayImage, np.ndarray]:
    """Keyless recovery: invert the public core transform and strip the
    counter.  Bytes 1..3 of every block come back as exact plaintext (75%
    of the image); byte 0 comes back as plaintext XOR the unknown key, one
    global constant.

    Returns the recovered image and a boolean mask of exactly-recovered
    pixels.
    """
    recovered = dwc_decrypt(cipher, 0)
    mask = np.tile(_EXACT_BYTES, block_count(cipher))
    return recovered, mask.reshape(cipher.height, cipher.width)


def dwc_partial_summary(blocks: int) -> tuple[float, Iterator[str]]:
    """The percentage of exact bytes in dwc_partial_recover's mask for an
    image of that many blocks, and the mask run-length encoded row-major as
    'value:length' runs joined by ',', in pieces of up to MAP_CHUNK blocks.
    A block starts inexact and ends exact, so its runs never merge with the
    next block's."""
    runs = ",".join(f"{int(v)}:{len(list(g))}" for v, g in groupby(_EXACT_BYTES))
    pieces = (",".join([runs] * min(MAP_CHUNK, blocks - s)) for s in range(0, blocks, MAP_CHUNK))
    percent = 100.0 * sum(_EXACT_BYTES) / len(_EXACT_BYTES)
    return percent, (("," if s else "") + piece for s, piece in enumerate(pieces))


@functools.cache
def _xor_index() -> np.ndarray:
    """Flat index of t[x ^ k, x] in a 256x256 table, laid out by (x, k)."""
    x = np.arange(256)[:, None]
    return (((x ^ x.T) << 8) | x).ravel()


def _median_histogram(cipher) -> np.ndarray:
    """The uint32 joint histogram h[m, x] of (median of bytes 1..3, byte 0)
    over the blocks of the keyless decryption.  It is decrypted half a
    MAP_CHUNK at a time: the decryption's temporaries, about 20 bytes a
    block, and the 256 KiB histogram then stay under 1 MiB together."""
    h = np.zeros(65536, dtype=np.uint32)
    for partial in map_chunks(cipher, dwc_decrypt_kernel(cipher, 0), MAP_CHUNK // 2):
        a, b, c = partial[:, 1:4].T
        med = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        np.add.at(h, (med.astype(np.uint16) << 8) | partial[:, 0], np.uint32(1))
    return h.reshape(256, 256)


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """Running sums down the rows of a, wrapping in a's dtype, by the
    log-step scan of Hillis and Steele (CACM 1986): for s = 1, 2, 4, ...
    one whole-array np.add adds to each row the row s above it.  The steps
    alternate between a and one scratch buffer, so the result lies in a's
    own buffer after an even number of steps and in the scratch buffer
    after an odd one; a's contents are lost either way, so use only the
    returned array.  numpy's add.accumulate runs serially, at about 3 ns an
    entry; the 8 steps over 256 rows take about a third of that time."""
    src, dst = a, np.empty_like(a)
    s = 1
    while s < len(a):
        dst[:s] = src[:s]
        np.add(src[s:], src[:-s], out=dst[s:])
        src, dst = dst, src
        s <<= 1
    return src


def smoothness_scores(cipher) -> list[int]:
    """Smoothness deviation of each key's candidate plaintext, indexed by
    key, for a GrayImage or PgmSource read one chunk at a time.

    The keyless core inversion is shared across candidates (that sharing
    is the cipher's flaw); candidate k then differs only in byte 0 of each
    block.  Key k's deviation sums, over the blocks, the distance of byte 0
    to the median of bytes 1..3.  One joint histogram h[m, x] of (median,
    byte 0) scores all keys: log-step prefix sums over m give g[y, x] =
    sum_m h[m, x] * |y - m|, and key k's deviation is the sum over x of
    g[x ^ k, x].  Wrapping uint32 is exact: every entry and partial sum
    lies in [0, 255 * N] for N blocks, and the dwc kernel refuses N >= 2^24,
    so 255 * N < 2^32.  No step holds more than three 256 KiB tables: the
    two running-sum tables and one scratch or temporary table.
    """
    h = _median_histogram(cipher)
    y = np.arange(256, dtype=np.uint32)[:, None]
    g = h * y
    h = _prefix_sums(h)  # blocks with median <= y
    g = _prefix_sums(g)  # medians <= y, summed
    # sum_m h * |y - m| = (all medians) - 2 * (those <= y) + y * (2 * (blocks <= y) - all blocks)
    blocks, medians = h[-1].copy(), g[-1].copy()  # numpy copies a whole out it overlaps
    np.subtract(medians, g << 1, out=g)
    g += np.subtract(h << 1, blocks, out=h) * y
    dev = np.take(g, _xor_index()).reshape(256, 256).sum(axis=0, dtype=np.uint32)
    return dev.tolist()


def brute_force_dwc(cipher) -> list[tuple[int, float]]:
    """Rank all 256 keys by the plausibility of their candidate plaintexts,
    for a GrayImage or PgmSource read one chunk at a time.

    A key's score is its negated smoothness_scores deviation, best first
    (ties broken by smaller key byte, as a stable sort of the ascending
    keys leaves them).  The deviation beats a within-tolerance count
    because a key differing from the truth only in low bits shifts byte 0
    by one or two levels: that barely moves a threshold count on a smooth
    image, but it strictly inflates the summed distance to the local
    median.
    """
    dev = smoothness_scores(cipher)
    return [(k, float(-dev[k])) for k in sorted(range(256), key=dev.__getitem__)]


# ---------------------------------------------------------------------------
# Structural diagnostics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointCensus:
    diagonal_fixed: int  # of the 256 blocks (p, p, p, p)
    sampled_tested: int
    sampled_fixed: list[Block]


# Samples drawn per step: 2^15 raw words, 256 KiB.
_CENSUS_CHUNK = 1 << 14
# A sample's d = p_top - p_bot lies in {0, 128}^2, which every fixed block
# needs, exactly when p0, p2 and p1, p3 agree in their low 7 bits: bits 24-30
# and 56-62 of the sample's two raw words XOR-ed.  About 1 in 2^14 passes.
_FIXABLE_MASK = 0x7F0000007F000000


def fixed_point_census(key: HillKey, sample_count: int, seed: int) -> FixedPointCensus:
    """Verify the 256 structurally guaranteed fixed points (p, p, p, p)
    and probe the blocks default_rng(seed).integers(0, 256, (sample_count,
    4)) draws for additional ones.  They are read off the raw stream: a
    byte's bounded draw (Lemire's) is next_uint32 >> 24, never rejected,
    and PCG64 hands out each 64-bit output low half first.  Only the
    samples whose d can be fixed are kept, about 1 in 2^14; they go through
    hill_apply, which gives the verdict, in one call after the draw."""
    if sample_count < 0:
        raise ValueError("negative dimensions are not allowed")  # as that draw raises
    diag = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 4, axis=1)
    diag_fixed = int(np.count_nonzero(np.all(hill_apply(diag, key.k) == diag, axis=1)))
    bits = np.random.default_rng(seed).bit_generator
    kept = [np.empty((0, 2), dtype=np.uint64)]
    for s in range(0, sample_count, _CENSUS_CHUNK):
        raw = bits.random_raw(2 * min(_CENSUS_CHUNK, sample_count - s)).reshape(-1, 2)
        kept.append(raw[np.flatnonzero(((raw[:, 0] ^ raw[:, 1]) & _FIXABLE_MASK) == 0)])
    raw = np.concatenate(kept)
    top = raw.astype("<u8", copy=False).view(np.uint8)[:, 3::4]  # each 32-bit half's top byte
    sample = np.ascontiguousarray(top)
    # each block and its image compared as one 32-bit word
    fixed_rows = (hill_apply(sample, key.k).view("<u4") == sample.view("<u4"))[:, 0]
    found = list(map(tuple, sample[fixed_rows].tolist()))
    return FixedPointCensus(diag_fixed, sample_count, found)


@dataclass(frozen=True)
class BlockHistogram:
    total_blocks: int
    distinct_blocks: int
    largest_class_size: int
    largest_class_block: Block

    def to_json_dict(self) -> dict:
        return {
            "total_blocks": self.total_blocks,
            "distinct_blocks": self.distinct_blocks,
            "largest_class_size": self.largest_class_size,
            "largest_class_block": list(self.largest_class_block),
        }


def ecb_repeat_detector(cipher) -> BlockHistogram:
    """Histogram of duplicate blocks: codebook encryption copies plaintext
    block equality straight into the ciphertext.

    The block words, 1x the pixels, are filled a chunk at a time, sorted in
    place and walked MAP_CHUNK at a time; the largest class is the first
    longest run, the smallest word among ties.  ecb-scan peaks near 1.3x.
    """
    words = np.empty(block_count(cipher), dtype="<u4")
    for start, pixels in zip(range(0, words.size, MAP_CHUNK), cipher.chunks(4 * MAP_CHUNK)):
        words[start : start + MAP_CHUNK] = pixels.view("<u4")
    words.sort()
    run_at, distinct, largest, top = 0, 0, 0, 0  # the open run's start; the longest run so far
    for s in range(0, words.size, MAP_CHUNK):
        w = words[s : s + MAP_CHUNK + 1]  # one word of overlap; the end counts as a run start
        starts = np.flatnonzero(np.append(w[1:] != w[:-1], s + MAP_CHUNK >= words.size)) + (s + 1)
        if starts.size:
            lengths = np.diff(starts, prepend=run_at)
            if lengths[i := int(np.argmax(lengths))] > largest:
                largest, top = int(lengths[i]), int(starts[i]) - 1
            run_at, distinct = int(starts[-1]), distinct + starts.size
    block = tuple(int(words[top]).to_bytes(4, "little"))  # the word's bytes in block order
    return BlockHistogram(words.size, distinct, largest, block)
