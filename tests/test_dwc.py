import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_autopsy import dwc
from cipher_autopsy.dwc import (
    MIX_INV_ROWS,
    MIX_ROWS,
    build_sbox,
    core_inverse_blocks,
    core_transform_blocks,
    dwc_decrypt,
    dwc_decrypt_kernel,
    dwc_encrypt,
    dwc_encrypt_kernel,
)
from cipher_autopsy.imagekit import (
    MAP_CHUNK,
    BadDimensionsError,
    GrayImage,
    blocks_of,
    gen_checkerboard,
    gen_constant,
    gen_noise,
    map_chunks,
)

byte = st.integers(0, 255)
block = st.tuples(byte, byte, byte, byte)

# first 16 entries of the published byte-substitution table
PUBLISHED_SBOX_PREFIX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5,
    0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
)


# --- independent oracles ------------------------------------------------------


def _oracle_gf_mul(a, b):
    prod = 0
    for bit in range(8):
        if (b >> bit) & 1:
            prod ^= a << bit
    for bit in range(14, 7, -1):
        if (prod >> bit) & 1:
            prod ^= 0x11B << (bit - 8)
    return prod


def _oracle_sbox():
    # exhaustive-search inversion plus the affine map in bit-matrix form,
    # a different formulation than the implementation's byte rotations
    table = []
    for x in range(256):
        if x == 0:
            inv = 0
        else:
            inv = next(b for b in range(1, 256) if _oracle_gf_mul(x, b) == 1)
        s = 0
        for i in range(8):
            bit = (
                (inv >> i)
                ^ (inv >> ((i + 4) % 8))
                ^ (inv >> ((i + 5) % 8))
                ^ (inv >> ((i + 6) % 8))
                ^ (inv >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            s |= bit << i
        table.append(s)
    return table


def _oracle_ct(p):
    sbox = _ORACLE_SBOX
    v = (sbox[p[0]], sbox[p[1]], p[2], sbox[p[3]])
    out = []
    for row in MIX_ROWS:
        acc = 0
        for coef, x in zip(row, v):
            acc ^= _oracle_gf_mul(coef, x)
        out.append(acc)
    return tuple(out)


_ORACLE_SBOX = _oracle_sbox()

# the oracle's products by every matrix coefficient, for whole-array checks
_ORACLE_MUL = {
    c: np.array([_oracle_gf_mul(c, x) for x in range(256)], dtype=np.uint8)
    for c in {c for row in MIX_ROWS for c in row}
}


def _oracle_ct_array(blocks):
    """_oracle_ct over an (n, 4) uint8 array: S-box, then the matrix,
    byte by byte."""
    v = np.array(_ORACLE_SBOX, dtype=np.uint8)[blocks]
    v[:, 2] = blocks[:, 2]
    out = np.zeros_like(blocks)
    for r, row in enumerate(MIX_ROWS):
        for j, coef in enumerate(row):
            out[:, r] ^= _ORACLE_MUL[coef][v[:, j]]
    return out


def _oracle_dwc_encrypt(img, key):
    """The whole-array formula: mask every block with its byte-stack
    counter mask, then the oracle core."""
    blocks = blocks_of(img)
    return _oracle_ct_array(blocks ^ _oracle_counter_masks(len(blocks), key))


# --- S-box ---------------------------------------------------------------------


def test_sbox_matches_independent_construction():
    forward, _ = build_sbox()
    assert forward.dtype == np.uint8
    assert forward.tolist() == _ORACLE_SBOX


def test_sbox_known_values():
    forward, _ = build_sbox()
    assert forward[0x00] == 0x63
    assert tuple(forward[:16].tolist()) == PUBLISHED_SBOX_PREFIX


def test_sbox_is_a_permutation_with_inverse():
    forward, inverse = build_sbox()
    assert inverse.dtype == np.uint8
    assert sorted(forward.tolist()) == list(range(256))
    for x in range(256):
        assert inverse[forward[x]] == x


# --- column matrix ---------------------------------------------------------------


def test_column_matrix_inverse_over_gf():
    for i in range(4):
        for j in range(4):
            acc = 0
            for t in range(4):
                acc ^= _oracle_gf_mul(MIX_ROWS[i][t], MIX_INV_ROWS[t][j])
            assert acc == (1 if i == j else 0)


# --- core transform ---------------------------------------------------------------


def ct(p):
    """core_transform_blocks on one block, passed as a (1, 4) array."""
    return tuple(core_transform_blocks(np.array([p], dtype=np.uint8))[0].tolist())


def ct_inv(c):
    """core_inverse_blocks on one block, passed as a (1, 4) array."""
    return tuple(core_inverse_blocks(np.array([c], dtype=np.uint8))[0].tolist())


def test_ct_zero_block_fixture():
    # frozen from the verified field multiply: the substituted vector is
    # (0x63, 0x63, 0x00, 0x63)
    assert ct((0, 0, 0, 0)) == (0x00, 0xC6, 0xA5, 0x00)
    assert ct_inv((0x00, 0xC6, 0xA5, 0x00)) == (0, 0, 0, 0)


@settings(max_examples=500)
@given(p=block)
def test_ct_matches_oracle_and_round_trips(p):
    assert ct(p) == _oracle_ct(p)
    assert ct_inv(ct(p)) == p


def test_ct_round_trip_exhaustive_in_byte2():
    for v in range(256):
        p = (12, 34, v, 78)
        assert ct_inv(ct(p)) == p
        assert ct(ct_inv(p)) == p


def test_ct_round_trip_1000_random_blocks():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        p = tuple(int(x) for x in rng.integers(0, 256, 4))
        assert ct_inv(ct(p)) == p
        assert ct(ct_inv(p)) == p


def test_ct_byte2_bypasses_sbox_linearly():
    # changing byte 2 by delta changes the output by the matrix column
    # applied to (0, 0, delta, 0) over GF(2^8)
    p = (200, 13, 99, 250)
    for delta in (1, 7, 0x80, 0xFF):
        p2 = (p[0], p[1], p[2] ^ delta, p[3])
        diff = tuple(a ^ b for a, b in zip(ct(p), ct(p2)))
        expected = tuple(_oracle_gf_mul(row[2], delta) for row in MIX_ROWS)
        assert diff == expected


def _oracle_rows(blocks):
    return np.array([_oracle_ct(tuple(int(v) for v in b)) for b in blocks], dtype=np.uint8)


@pytest.mark.parametrize("position", range(4))
def test_kernels_match_oracle_for_every_value_in_each_byte(position):
    rng = np.random.default_rng(24 + position)
    blocks = np.repeat(rng.integers(0, 256, (1, 4), dtype=np.uint8), 256, axis=0)
    blocks[:, position] = np.arange(256, dtype=np.uint8)
    expected = _oracle_rows(blocks)
    assert np.array_equal(core_transform_blocks(blocks), expected)
    assert np.array_equal(core_inverse_blocks(expected), blocks)


@settings(max_examples=200)
@given(blocks=st.lists(block, min_size=0, max_size=40))
def test_kernels_match_oracle_on_block_lists(blocks):
    arr = np.array(blocks, dtype=np.uint8).reshape(-1, 4)
    expected = _oracle_rows(arr).reshape(-1, 4)
    assert np.array_equal(core_transform_blocks(arr), expected)
    assert np.array_equal(core_inverse_blocks(expected), arr)


def test_array_oracle_matches_scalar_oracle():
    rng = np.random.default_rng(25)
    blocks = rng.integers(0, 256, (200, 4), dtype=np.uint8)
    assert np.array_equal(_oracle_ct_array(blocks), _oracle_rows(blocks))


@pytest.mark.parametrize(
    "side,pair",
    [(side, pair) for side in ("plaintext", "ciphertext") for pair in ((0, 1), (2, 3))],
    ids=["pair0", "pair1", "ciphertext-pair0", "ciphertext-pair1"],
)
def test_kernels_match_oracle_for_every_byte_pair(side, pair):
    # every index of one pair table, with the other half random per block: a
    # plaintext pair indexes CT's stage and CT^-1's inverse S-box stage, a
    # ciphertext pair CT^-1's inverse matrix stage
    rng = np.random.default_rng(26 + pair[0])
    blocks = rng.integers(0, 256, (65536, 4), dtype=np.uint8)
    values = np.arange(65536)
    blocks[:, pair[0]] = values & 0xFF
    blocks[:, pair[1]] = values >> 8
    if side == "plaintext":
        expected = _oracle_ct_array(blocks)
        assert np.array_equal(core_transform_blocks(blocks), expected)
        assert np.array_equal(core_inverse_blocks(expected), blocks)
    else:
        assert np.array_equal(core_transform_blocks(core_inverse_blocks(blocks)), blocks)


_STAGES_BUILT = """
import sys
import numpy as np
import cipher_autopsy.cli
from cipher_autopsy import dwc
from cipher_autopsy.imagekit import GrayImage

built_at_import = dwc._pair_tables.cache_info().currsize
getattr(dwc, sys.argv[1])(GrayImage(np.zeros((4, 4), dtype=np.uint8)), 7)
built = []
for stage in dwc._STAGES:
    misses = dwc._pair_tables.cache_info().misses
    dwc._pair_tables(stage)
    if dwc._pair_tables.cache_info().misses == misses:
        built.append(stage)
print(built_at_import, *built)
"""


@pytest.mark.parametrize(
    "call,stages", [("dwc_encrypt", "ct"), ("dwc_decrypt", "mix_inv sub_inv")]
)
def test_each_call_builds_only_the_stages_it_runs(call, stages):
    # the tables are built on first use, so a fresh interpreter that imports
    # the CLI holds none, and one that only encrypts holds CT's stage alone
    env = dict(os.environ, PYTHONPATH=str(Path(dwc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _STAGES_BUILT, call], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"0 {stages}\n")


# --- counter masking ---------------------------------------------------------------


def counter_masks(n, key):
    """The masks of an n-block image, read off its encryption: a zero
    plaintext block masked by m encrypts to CT(m), so CT^-1 gives m back."""
    zero = GrayImage(np.zeros((n, 4), dtype=np.uint8))
    return core_inverse_blocks(blocks_of(dwc_encrypt(zero, key)))


def test_counter_masks_distinct_exhaustive():
    masks = counter_masks(16384, 0xA7)
    words = np.ascontiguousarray(masks).view("<u4").ravel()
    assert len(np.unique(words)) == 16384


def test_counter_mask_layout():
    masks = counter_masks(3, 0x00)
    # i = 1: lsb 1 -> bytes (1, 0, 0, 1); i = 2 -> (2, 0, 0, 2)
    assert tuple(masks[0]) == (1, 0, 0, 1)
    assert tuple(masks[1]) == (2, 0, 0, 2)
    masks = counter_masks(258, 0x00)
    # i = 257 = 0x101: byte 0 is key ^ lsb = 1, byte 2 is 1, byte 3 is 1
    assert tuple(masks[256]) == (1, 0, 1, 1)


def test_counter_mask_rejects_bad_key():
    with pytest.raises(ValueError):
        counter_masks(4, 256)


def _oracle_counter_masks(n, key, start=0):
    # byte-stack form: key ^ lsb(i), then the low three bytes of i, high first
    i = np.arange(start + 1, start + n + 1, dtype=np.uint32)
    lsb = (i & 0xFF).astype(np.uint8)
    return np.stack(
        [
            np.uint8(key) ^ lsb,
            ((i >> 16) & 0xFF).astype(np.uint8),
            ((i >> 8) & 0xFF).astype(np.uint8),
            lsb,
        ],
        axis=1,
    )


@pytest.mark.parametrize("n", [1, 255, 256, 257, 65535, 65536, 65537])
@pytest.mark.parametrize("key", [0x00, 0x5A, 0xFF])
def test_counter_masks_match_byte_stack_oracle(n, key):
    got = counter_masks(n, key)
    assert got.shape == (n, 4) and got.dtype == np.uint8
    assert np.array_equal(got, _oracle_counter_masks(n, key))


@pytest.mark.parametrize(
    "start, n",
    [(1, 1000), (255, 3), (65525, 5), (65525, 100), (7 << 16, MAP_CHUNK), ((3 << 16) - 7, MAP_CHUNK),
     ((1 << 24) - 1 - MAP_CHUNK, MAP_CHUNK), ((1 << 24) - 2, 1)],
    ids=["start-1", "start-255", "start-65525", "across-2^16", "at-2^16-multiple", "chunk-across-2^16",
         "last-chunk", "last-block"],
)
def test_kernels_mask_any_window_like_the_byte_stack_oracle(start, n):
    # kernel(blocks, start) masks with counters start+1 .. start+n; the last
    # two windows end at counter 2^24 - 1, the highest an image reaches
    rng = np.random.default_rng(start)
    key = int(rng.integers(256))
    blocks = rng.integers(0, 256, (n, 4), dtype=np.uint8)
    blocks.flags.writeable = False  # as an image's view: the kernels must not write into it
    masks = _oracle_counter_masks(n, key, start)
    img = gen_constant(0, 4, 4)  # the kernels' checks only
    assert np.array_equal(dwc_encrypt_kernel(img, key)(blocks, start), _oracle_ct_array(blocks ^ masks))
    assert np.array_equal(_oracle_ct_array(dwc_decrypt_kernel(img, key)(blocks, start) ^ masks), blocks)


@pytest.mark.parametrize("chunk", [1000, MAP_CHUNK - 1])
def test_map_chunks_at_odd_chunk_sizes_matches_the_whole_array_oracle(chunk):
    # 70,000 blocks: chunk starts fall off every 2^16 boundary, and one chunk crosses 65,536
    rng = np.random.default_rng(chunk)
    img = GrayImage(rng.integers(0, 256, (700, 400), dtype=np.uint8))
    key = int(rng.integers(256))
    enc = np.concatenate(list(map_chunks(img, dwc_encrypt_kernel(img, key), chunk)))
    assert np.array_equal(enc, _oracle_dwc_encrypt(img, key))
    enc_img = GrayImage(enc.reshape(700, 400))
    dec = np.concatenate(list(map_chunks(enc_img, dwc_decrypt_kernel(enc_img, key), chunk)))
    assert np.array_equal(dec, blocks_of(img))


def test_counter_mask_rejects_counter_reaching_key_byte():
    with pytest.raises(BadDimensionsError):
        counter_masks(1 << 24, 0)


# --- image encryption ---------------------------------------------------------------


def test_round_trip_all_keys_small_image():
    img = GrayImage(np.random.default_rng(21).integers(0, 256, (16, 16), dtype=np.uint8))
    for k in range(256):
        assert dwc_decrypt(dwc_encrypt(img, k), k) == img


def test_first_block_of_zero_image_key_zero():
    img = gen_constant(0, width=4, height=1)
    enc = dwc_encrypt(img, 0x00)
    # P_1 ^ 1 ^ (lsb(1) << 24) = (0x01, 0, 0, 0x01)
    assert tuple(blocks_of(enc)[0]) == ct((0x01, 0x00, 0x00, 0x01))


def test_equal_plaintext_blocks_encrypt_differently():
    board = gen_checkerboard()  # only two distinct plaintext blocks
    enc = dwc_encrypt(board, 0x3D)
    words = np.ascontiguousarray(blocks_of(enc)).view("<u4").ravel()
    # distinct masks + bijective core: every ciphertext block is distinct
    assert len(np.unique(words)) == 16384


def test_wrong_key_touches_only_byte0_by_constant():
    img = gen_noise(22)
    enc = dwc_encrypt(img, 0x5C)
    for wrong in (0x00, 0x5D, 0xFF):
        dec = dwc_decrypt(enc, wrong)
        pb, db = blocks_of(img), blocks_of(dec)
        assert np.array_equal(pb[:, 1:], db[:, 1:])
        consts = np.unique(pb[:, 0] ^ db[:, 0])
        assert consts.tolist() == [0x5C ^ wrong]


def test_zero_image_fixture_round_trip():
    img = gen_constant(0)
    for k in (0, 9, 255):
        assert dwc_decrypt(dwc_encrypt(img, k), k) == img


def test_rejects_bad_pixel_count():
    img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(BadDimensionsError):
        dwc_encrypt(img, 0)
    with pytest.raises(BadDimensionsError):
        dwc_decrypt(img, 0)


def test_image_path_matches_scalar_pipeline():
    rng = np.random.default_rng(23)
    img = GrayImage(rng.integers(0, 256, (8, 8), dtype=np.uint8))
    key = 0xB1
    enc = dwc_encrypt(img, key)
    expected = []
    for i, b in enumerate(blocks_of(img), start=1):
        word = (int(b[0]) << 24) | (int(b[1]) << 16) | (int(b[2]) << 8) | int(b[3])
        word ^= i ^ ((key ^ (i & 0xFF)) << 24)
        masked = (word >> 24 & 0xFF, word >> 16 & 0xFF, word >> 8 & 0xFF, word & 0xFF)
        expected.append(ct(masked))
    assert [tuple(int(v) for v in b) for b in blocks_of(enc)] == expected


# Chunk boundaries of the block map: one block, one chunk less one block,
# exactly one chunk, one block more, and several chunks plus a remainder.
CHUNK_EDGES = [1, MAP_CHUNK - 1, MAP_CHUNK, MAP_CHUNK + 1, 3 * MAP_CHUNK + 7]


@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_image_path_matches_whole_array_oracle_across_chunks(n):
    rng = np.random.default_rng(n)
    img = GrayImage(rng.integers(0, 256, (2 * n, 2), dtype=np.uint8))
    key = int(rng.integers(256))
    expected = _oracle_dwc_encrypt(img, key)
    enc = dwc_encrypt(img, key)
    assert np.array_equal(blocks_of(enc), expected)
    assert dwc_decrypt(enc, key) == img
    # decrypt of arbitrary bytes is the preimage under the oracle
    dec = dwc_decrypt(img, key)
    assert np.array_equal(_oracle_dwc_encrypt(dec, key), blocks_of(img))


def test_bad_pixel_count_is_reported_before_a_bad_key():
    img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    for fn in (dwc_encrypt, dwc_decrypt):
        with pytest.raises(BadDimensionsError):
            fn(img, 256)
        with pytest.raises(ValueError, match="single byte"):
            fn(gen_constant(0, 4, 4), 256)


def test_image_of_2_24_blocks_is_rejected():
    # 2^24 blocks; np.zeros pages are never touched, so this stays small
    img = GrayImage(np.zeros((4096, 1 << 14), dtype=np.uint8))
    for fn in (dwc_encrypt, dwc_decrypt):
        with pytest.raises(BadDimensionsError, match="counter"):
            fn(img, 0)
        with pytest.raises(ValueError, match="single byte"):
            fn(img, -1)
