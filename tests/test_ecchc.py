import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import applied_matrix, block_matrix, encrypt_block, random_key

from cipher_autopsy import cli
from cipher_autopsy.ecchc import (
    HillKey,
    ecchc_encrypt,
    expand_key,
    hill_apply,
)
from cipher_autopsy.imagekit import (
    MAP_CHUNK,
    BadDimensionsError,
    GrayImage,
    blocks_of,
    gen_checkerboard,
    gen_constant,
    gen_noise,
    load_pgm,
    save_pgm,
)

byte = st.integers(0, 255)
mat2 = st.tuples(st.tuples(byte, byte), st.tuples(byte, byte))
block = st.tuples(byte, byte, byte, byte)


def _self_inverse(k) -> bool:
    m = np.array(block_matrix(k))
    blocks = np.random.default_rng(0).integers(0, 256, (64, 4), dtype=np.uint8)
    twice = hill_apply(hill_apply(blocks, k), k)
    return np.array_equal(m @ m % 256, np.eye(4)) and np.array_equal(twice, blocks)


# --- key expansion -----------------------------------------------------------


def test_expand_zero_matrix():
    km = applied_matrix(expand_key(((0, 0), (0, 0))))
    assert km == block_matrix(((0, 0), (0, 0))) == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def test_expand_identity_matrix():
    km = applied_matrix(expand_key(((1, 0), (0, 1))))
    assert km == block_matrix(((1, 0), (0, 1))) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (2, 0, 255, 0),
        (0, 2, 0, 255),
    )


def test_expansion_is_self_invertible_for_1000_random_keys():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        key = random_key(rng)
        assert applied_matrix(key) == block_matrix(key.k)
        assert _self_inverse(key.k)


@settings(max_examples=200)
@given(k=mat2)
def test_expansion_self_invertible_property(k):
    assert applied_matrix(expand_key(k)) == block_matrix(k)
    assert _self_inverse(expand_key(k).k)


def test_key_hex_round_trip():
    key = expand_key(((0x0D, 0xC8), (0x5B, 0x04)))
    assert key.key_hex == "0dc85b04"
    assert HillKey.from_hex("0dc85b04") == key
    assert HillKey.from_hex("0DC85B04") == key
    with pytest.raises(ValueError):
        HillKey.from_hex("0dc85b")
    with pytest.raises(ValueError):
        HillKey.from_hex("0dc85b0g")


# --- block-level structure -----------------------------------------------------


def test_diagonal_blocks_are_fixed_points_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        key = random_key(rng)
        for p in range(256):
            assert encrypt_block(key, (p, p, p, p)) == (p, p, p, p)


@settings(max_examples=300)
@given(k=mat2, p=block)
def test_structural_redundancy(k, p):
    # rows 2/3 of the expansion repeat rows 0/1 up to a plaintext shift
    c = encrypt_block(expand_key(k), p)
    assert (c[2] - c[0]) % 256 == (p[0] - p[2]) % 256
    assert (c[3] - c[1]) % 256 == (p[1] - p[3]) % 256


def test_equal_blocks_encrypt_equal():
    rng = np.random.default_rng(12)
    key = random_key(rng)
    p = (3, 141, 59, 26)
    assert encrypt_block(key, p) == encrypt_block(key, p)


# --- image-level behaviour ------------------------------------------------------


def test_checkerboard_invariant_for_any_key():
    board = gen_checkerboard()
    rng = np.random.default_rng(13)
    for _ in range(20):
        assert ecchc_encrypt(board, random_key(rng)) == board


def test_constant_image_invariant():
    rng = np.random.default_rng(14)
    key = random_key(rng)
    for value in (0, 77, 255):
        img = gen_constant(value)
        assert ecchc_encrypt(img, key) == img


def test_round_trip_on_random_images():
    rng = np.random.default_rng(15)
    for i in range(100):
        key = random_key(rng)
        img = GrayImage(rng.integers(0, 256, (8, 8), dtype=np.uint8))
        assert ecchc_encrypt(ecchc_encrypt(img, key), key) == img


def test_decrypt_is_encrypt(tmp_path):
    # one kernel serves both CLI directions
    src, outs = tmp_path / "in.pgm", {v: tmp_path / f"{v}.pgm" for v in ("encrypt", "decrypt")}
    save_pgm(gen_noise(16), src)
    for verb, out in outs.items():
        assert cli.main([verb, "--alg", "ecchc", "--key", "0904c821", "--in", str(src), "--out", str(out)]) == 0
    assert outs["decrypt"].read_bytes() == outs["encrypt"].read_bytes()
    assert load_pgm(outs["encrypt"]) == ecchc_encrypt(gen_noise(16), expand_key(((9, 4), (200, 33))))


def test_double_encrypt_is_identity():
    key = expand_key(((123, 45), (67, 89)))
    img = gen_noise(17)
    assert ecchc_encrypt(ecchc_encrypt(img, key), key) == img


def test_image_path_matches_scalar_block_path():
    rng = np.random.default_rng(18)
    key = random_key(rng)
    img = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    enc = ecchc_encrypt(img, key)
    expected = (blocks_of(img).astype(np.int64) @ np.array(block_matrix(key.k)).T) % 256
    assert GrayImage(expected.reshape(16, 16)) == enc


def test_rejects_odd_dimensions():
    key = expand_key(((1, 2), (3, 4)))
    img = GrayImage(np.zeros((3, 4), dtype=np.uint8))  # 12 pixels but odd height
    with pytest.raises(BadDimensionsError):
        ecchc_encrypt(img, key)


@pytest.mark.parametrize("n", [1, MAP_CHUNK - 1, MAP_CHUNK, MAP_CHUNK + 1, 3 * MAP_CHUNK + 7])
def test_image_path_matches_whole_array_matmul_across_chunks(n):
    # oracle: every block times the expanded 4x4 matrix, in int64, mod 256
    rng = np.random.default_rng(n)
    key = random_key(rng)
    img = GrayImage(rng.integers(0, 256, (2 * n, 2), dtype=np.uint8))
    expected = (blocks_of(img).astype(np.int64) @ np.array(block_matrix(key.k)).T) % 256
    enc = ecchc_encrypt(img, key)
    assert np.array_equal(blocks_of(enc), expected)
    assert ecchc_encrypt(enc, key) == img
