"""Differential tests of the Hill key recovery against an exhaustive oracle.

The oracle never solves anything: for each key row it tries all 65,536
(k_r1, k_r2) pairs and keeps those for which rows r and r + 2 of the
expanded 4x4 matrix [[K, I-K], [I+K, -K]], multiplied out in int64,
reproduce the ciphertext of every block.  The keys that fit are then the
product of the two rows' survivors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_matrix

from cipher_autopsy.attacks import (
    AttackStatus,
    KeyMask,
    KeyNotFoundError,
    KpaSample,
    brute_force_hill,
    kpa_recover_hill_key,
)
from cipher_autopsy.ecchc import ecchc_encrypt, expand_key
from cipher_autopsy.imagekit import GrayImage, blocks_of

_GRID = np.stack(
    np.meshgrid(np.arange(256), np.arange(256), indexing="ij"), axis=-1
).reshape(-1, 2)  # every (k_r1, k_r2), in ascending order


def _oracle_row(r: int, pblocks: np.ndarray, cblocks: np.ndarray) -> np.ndarray:
    """Every (k_r1, k_r2) for which rows r and r + 2 of the expanded matrix
    map each plaintext block to its ciphertext block, ascending."""
    e = np.eye(2, dtype=np.int64)[r]
    upper = np.concatenate([_GRID, e - _GRID], axis=1)  # row r: [K | I - K]
    lower = np.concatenate([e + _GRID, -_GRID], axis=1)  # row r + 2: [I + K | -K]
    pairs = np.unique(np.concatenate([pblocks, cblocks], axis=1), axis=0)
    alive = np.arange(len(_GRID))
    for p, c in zip(pairs[:, :4].astype(np.int64), pairs[:, 4:]):
        ok = ((upper[alive] @ p) % 256 == c[r]) & ((lower[alive] @ p) % 256 == c[r + 2])
        alive = alive[ok]
    return _GRID[alive]


def _oracle(pblocks, cblocks, mask=KeyMask.parse("????????")):
    """(number of keys that fit, the two smallest of them) under the mask."""
    rows = []
    for r in (0, 1):
        sols = _oracle_row(r, pblocks, cblocks)
        for j in (0, 1):
            known = mask.values[2 * r + j]
            if known is not None:
                sols = sols[sols[:, j] == known]
        rows.append(sols)
    top, bot = rows
    first = sorted(tuple(t.tolist() + b.tolist()) for t in top[:2] for b in bot[:2])
    return len(top) * len(bot), first[:2]


def _status(count: int) -> AttackStatus:
    if count == 0:
        return AttackStatus.INCONSISTENT
    return AttackStatus.UNIQUE if count == 1 else AttackStatus.AMBIGUOUS


def _rank(key, mask: KeyMask) -> int:
    """Position of `key` among the mask's candidates in ascending order."""
    rank = 0
    for i in mask.unknown_positions:
        rank = rank * 256 + key[i]
    return rank


def test_oracle_rows_are_the_expanded_matrix():
    km = block_matrix(((3, 250), (128, 7)))
    for r, (k1, k2) in ((0, (3, 250)), (1, (128, 7))):
        i = k1 * 256 + k2
        e = np.eye(2, dtype=np.int64)[r]
        upper = np.concatenate([_GRID[i], e - _GRID[i]]) % 256
        lower = np.concatenate([e + _GRID[i], -_GRID[i]]) % 256
        assert tuple(upper) == km[r]
        assert tuple(lower) == km[r + 2]


ALPHABETS = ((0, 1, 2, 128, 255), (0, 2, 4, 128), (0, 255), tuple(range(256)))
byte = st.integers(0, 255)
side = st.sampled_from((2, 4, 6, 8))


@st.composite
def image_pairs(draw):
    """A plaintext over a small alphabet and its ciphertext under a drawn
    key, possibly tampered so that no key fits."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    h, w = draw(side), draw(side)
    pick = st.sampled_from(alphabet)
    plain = np.array(draw(st.lists(pick, min_size=h * w, max_size=h * w)), dtype=np.uint8)
    plain = GrayImage(plain.reshape(h, w))
    key = tuple(draw(st.sampled_from((0, 1, 2, 127, 128, 255)) | byte) for _ in range(4))
    cipher = ecchc_encrypt(plain, expand_key((key[:2], key[2:]))).pixels.copy()
    tamper = draw(st.sampled_from(("none", "none", "byte", "replace")))
    if tamper == "byte":
        i, j = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        cipher[i, j] ^= np.uint8(1 << draw(st.integers(0, 7)))
    elif tamper == "replace":
        cipher = np.array(draw(st.lists(pick, min_size=h * w, max_size=h * w)), dtype=np.uint8)
        cipher = cipher.reshape(h, w)
    return plain, GrayImage(cipher), key


@st.composite
def masks(draw, key):
    """A mask with 0, 1, 2 or 4 unknown bytes; a known byte is usually the
    true one, sometimes a wrong one."""
    unknown = draw(st.sampled_from(((0, 1, 2, 3), (1, 3), (3,), (), (2, 3), (0, 2), (1,))))
    values = tuple(
        None if i in unknown else draw(st.sampled_from((key[i], key[i], key[i], (key[i] + 1) % 256)))
        for i in range(4)
    )
    return KeyMask(values=values)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_brute_force_hill_matches_oracle(data):
    plain, cipher, key = data.draw(image_pairs())
    mask = data.draw(masks(key))
    pblocks, cblocks = blocks_of(plain), blocks_of(cipher)
    count, first = _oracle(pblocks, cblocks, mask)
    if count == 0:
        with pytest.raises(KeyNotFoundError) as exc:
            brute_force_hill(plain, cipher, mask, allow_full_search=True)
        assert exc.value.candidates_tested == mask.candidate_count
        return
    outcome = brute_force_hill(plain, cipher, mask, allow_full_search=True)
    if count == 1:
        assert outcome.status is AttackStatus.UNIQUE
        assert outcome.recovered_key == bytes(first[0]).hex()
        assert outcome.candidates_tested == mask.candidate_count
    else:
        assert outcome.status is AttackStatus.AMBIGUOUS
        assert outcome.recovered_key is None
        assert outcome.candidates_tested == _rank(first[1], mask) + 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kpa_status_matches_oracle(data):
    plain, cipher, _ = data.draw(image_pairs())
    pblocks, cblocks = blocks_of(plain), blocks_of(cipher)
    n = data.draw(st.integers(1, len(pblocks)))
    pblocks, cblocks = pblocks[:n], cblocks[:n]
    count, first = _oracle(pblocks, cblocks)
    samples = [
        KpaSample(tuple(int(v) for v in p), tuple(int(v) for v in c))
        for p, c in zip(pblocks, cblocks)
    ]
    outcome = kpa_recover_hill_key(samples)
    assert outcome.status is _status(count)
    if count == 1:
        assert outcome.recovered_key == bytes(first[0]).hex()
        assert outcome.candidates_tested == 1
    else:
        assert outcome.recovered_key is None
        assert outcome.candidates_tested == 0
