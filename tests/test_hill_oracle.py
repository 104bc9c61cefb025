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
from oracles import block_matrix, hill_keys

from cipher_autopsy import attacks, imagekit
from cipher_autopsy.attacks import (
    AttackStatus,
    KeyMask,
    KeyNotFoundError,
    KpaSample,
    brute_force_hill,
    kpa_recover_hill_key,
)
from cipher_autopsy.ecchc import ecchc_encrypt, expand_key, hill_apply
from cipher_autopsy.imagekit import GrayImage, blocks_of, open_pgm, save_pgm

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


# --- the chunk fold against the whole-array solve ------------------------------

# differences of every 2-adic valuation, the high ones most often
HIGH_VALUATION = st.sampled_from((0, 128, 64, 192, 32, 96, 16, 8, 4, 2, 1)) | byte


@st.composite
def block_systems(draw):
    """Plaintext/ciphertext block arrays under a drawn key: each plaintext
    block's halves differ by bytes of high valuation, and one ciphertext
    block may be tampered, either breaking c_bot - c_top = d or shifting
    both halves alike so that only the row solve can tell."""
    n = draw(st.integers(1, 24))
    bot = np.array(draw(st.lists(byte, min_size=2 * n, max_size=2 * n)), dtype=np.uint8)
    d = np.array(draw(st.lists(HIGH_VALUATION, min_size=2 * n, max_size=2 * n)), dtype=np.uint8)
    plain = np.concatenate([(bot + d).reshape(n, 2), bot.reshape(n, 2)], axis=1)
    key = tuple(draw(st.sampled_from((0, 1, 2, 127, 128, 255)) | byte) for _ in range(4))
    cipher = hill_apply(plain, (key[:2], key[2:]))
    tamper = draw(st.sampled_from(("none", "none", "byte", "both halves")))
    if tamper != "none":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
        cols = [j, j + 2] if tamper == "both halves" else [j]
        cipher[i, cols] += np.uint8(1 << draw(st.integers(0, 7)))
    return plain, cipher, key


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_chunk_fold_finds_the_keys_of_the_whole_array_solve(data):
    plain, cipher, key = data.draw(block_systems())
    known = data.draw(masks(key)).values
    expected = hill_keys(plain, cipher, known)
    for size in (1, 2, 3, 7):
        chunks = [(plain[s : s + size], cipher[s : s + size]) for s in range(0, len(plain), size)]
        assert attacks._hill_keys(chunks, known) == expected, size


@pytest.mark.parametrize("pixels", [4, 8, 12, 28])
@pytest.mark.parametrize("source", ["image", "file"])
def test_brute_force_hill_is_the_same_at_any_chunk_size(tmp_path, monkeypatch, source, pixels):
    rng = np.random.default_rng(pixels)
    plain = GrayImage(rng.integers(0, 4, (6, 10), dtype=np.uint8) * np.uint8(64))
    key = expand_key(((0x81, 0x40), (0xC0, 0x03)))
    cases = [
        (plain, ecchc_encrypt(plain, key), KeyMask.parse("81??c0??")),
        (plain, ecchc_encrypt(plain, key), KeyMask.parse("????????")),
        (plain, ecchc_encrypt(plain, key), KeyMask.parse("82??c0??")),
        (plain, GrayImage(ecchc_encrypt(plain, key).pixels ^ np.uint8(1)), KeyMask.parse("81??c0??")),
    ]

    def outcome(p, c, mask):
        try:
            return brute_force_hill(p, c, mask, allow_full_search=True).to_json_dict() | {"elapsed_ms": 0}
        except KeyNotFoundError as exc:
            return exc.candidates_tested

    expected = [outcome(*case) for case in cases]
    reads = []  # the chunk sizes of each chunks() call: the patched size must be the one read

    def spy(chunks):
        def read(self, *args):
            reads.append(sizes := [])
            for chunk in chunks(self, *args):
                sizes.append(chunk.size)
                yield chunk
        return read

    for source_class in (GrayImage, imagekit.PgmSource):
        monkeypatch.setattr(source_class.chunks, "__defaults__", (pixels,))
        monkeypatch.setattr(source_class, "chunks", spy(source_class.chunks))
    for i, (p, c, mask) in enumerate(cases):
        reads.clear()
        if source == "file":
            save_pgm(p, tmp_path / "p.pgm")
            save_pgm(c, tmp_path / "c.pgm")
            with open_pgm(tmp_path / "p.pgm") as p, open_pgm(tmp_path / "c.pgm") as c:
                assert outcome(p, c, mask) == expected[i], i
        else:
            assert outcome(p, c, mask) == expected[i], i
        assert len(reads) == 2 and all(max(sizes) == pixels for sizes in reads), (i, reads)
