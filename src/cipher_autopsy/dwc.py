"""The deliberately weak cipher: a fixed keyless core transform behind a
one-byte key.

Per block the cipher computes  C_i = CT(P_i ^ i ^ ((k ^ lsb(i)) << 24))
with the block counter i starting at 1.  A block (p0, p1, p2, p3) maps to
a 32-bit word with p0 as the most significant byte, so the key only ever
touches byte 0 of each block; bytes 1..3 are masked by the public counter
alone.  CT substitutes bytes 0, 1 and 3 through the 8-bit S-box (byte 2
passes through) and multiplies by a fixed circulant matrix over GF(2^8).
Both pieces are the standard byte-substitution and column-mix primitives;
neither depends on the key, so anyone can invert CT.

CT runs in T-table form: each input byte's substitution and matrix column
fold into one 256-entry table of 32-bit words, and the tables of bytes
(0, 1) and of bytes (2, 3) are XORed together into two 65536-entry pair
tables.  A block, read as two little-endian uint16 halves, then costs two
word gathers and one XOR.  CT^-1 gathers through the inverse matrix's
pair tables, then through two byte-pair tables of the inverse S-box (the
second passes byte 2 through).  The tables come from the field's log/antilog tables
(algebra.GF_MUL, algebra.GF_INV), each direction's on its first use.
Encryption and decryption are chunk kernels for imagekit.map_chunks,
which feeds them one cache-sized chunk of blocks at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import GF_INV, GF_MUL
from .imagekit import BadDimensionsError, GrayImage, Kernel, block_count, map_blocks

MIX_ROWS = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
MIX_INV_ROWS = (
    (0x0E, 0x0B, 0x0D, 0x09),
    (0x09, 0x0E, 0x0B, 0x0D),
    (0x0D, 0x09, 0x0E, 0x0B),
    (0x0B, 0x0D, 0x09, 0x0E),
)


def _rotl8(x, n: int):
    return ((x << n) | (x >> (8 - n))) & 0xFF


def build_sbox() -> tuple[np.ndarray, np.ndarray]:
    """Field inversion (0 mapped to 0) followed by the affine bit mix;
    returns the forward and inverse S-boxes as uint8 arrays."""
    b = GF_INV
    forward = b ^ _rotl8(b, 1) ^ _rotl8(b, 2) ^ _rotl8(b, 3) ^ _rotl8(b, 4) ^ 0x63
    inverse = np.empty(256, dtype=np.uint8)
    inverse[forward] = np.arange(256)
    return forward, inverse


_SB, _SB_INV = build_sbox()
_IDENTITY = np.arange(256, dtype=np.uint8)


def _pair_tables(rows, subs) -> tuple[np.ndarray, np.ndarray]:
    """Byte-pair T-tables (Daemen & Rijmen, The Design of Rijndael, 2002,
    sec. 4.2).  T_j[x] is column j of the matrix times subs[j][x] over
    GF(2^8), packed little-endian (byte r of the word is row r), so one
    output block is T_0[x0] ^ T_1[x1] ^ T_2[x2] ^ T_3[x3].  Returns
    T01[x0 | x1 << 8] = T_0[x0] ^ T_1[x1] and T23 likewise: the block's
    two little-endian uint16 halves index them directly."""
    t = []
    for j, sub in enumerate(subs):
        word = np.zeros(256, dtype=np.uint32)
        for r, row in enumerate(rows):
            word |= GF_MUL[row[j]][sub].astype(np.uint32) << np.uint32(8 * r)
        t.append(word)
    return tuple((t[j + 1][:, None] ^ t[j]).astype("<u4").ravel() for j in (0, 2))


# Each direction's tables (512 KiB) are built on first use, so a process
# that only encrypts or only decrypts holds one pair.
@functools.cache
def _forward_tables() -> tuple[np.ndarray, np.ndarray]:
    return _pair_tables(MIX_ROWS, (_SB, _SB, _IDENTITY, _SB))


@functools.cache
def _inverse_tables() -> tuple[np.ndarray, np.ndarray]:
    return _pair_tables(MIX_INV_ROWS, (_IDENTITY,) * 4)


def _mix_words(tables, blocks: np.ndarray) -> np.ndarray:
    """One pair-table gather per uint16 half, XORed, as (n, 4) bytes.
    A uint16 index is always in range, so mode="wrap" skips bounds checks."""
    halves = np.ascontiguousarray(blocks, dtype=np.uint8).view("<u2")
    words = np.take(tables[0], halves[:, 0], mode="wrap")
    words ^= np.take(tables[1], halves[:, 1], mode="wrap")
    return words.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def core_transform_blocks(blocks: np.ndarray) -> np.ndarray:
    """CT over an (n, 4) uint8 array: two pair-table gathers per block."""
    return _mix_words(_forward_tables(), blocks)


@functools.cache
def _inverse_sbox_pairs() -> tuple[np.ndarray, np.ndarray]:
    """The inverse S-box on byte pairs, as 65536-entry uint16 tables indexed
    by a block's little-endian uint16 halves: on bytes 0 and 1, and on byte 3
    alone (byte 2 bypasses the S-box)."""
    return tuple(
        (hi[:, None].astype("<u2") << 8 | lo).ravel()
        for lo, hi in ((_SB_INV, _SB_INV), (_IDENTITY, _SB_INV))
    )


def core_inverse_blocks(blocks: np.ndarray) -> np.ndarray:
    """CT^-1 over an (n, 4) uint8 array: two pair-table gathers for the
    inverse matrix, then two for the inverse S-box."""
    halves = _mix_words(_inverse_tables(), blocks).view("<u2")
    out = np.empty_like(halves)
    for j, table in enumerate(_inverse_sbox_pairs()):
        np.take(table, halves[:, j], out=out[:, j], mode="wrap")
    return out.view(np.uint8)


def _check_counter(img, key: int) -> None:
    n = block_count(img)
    if not 0 <= key <= 255:
        raise ValueError("key must be a single byte")
    if n >= 1 << 24:
        raise BadDimensionsError("block counter would collide with the key byte")


def _masks(start: int, stop: int, key: int) -> np.ndarray:
    """The counter masks of blocks start+1 .. stop (counters are 1-based).

    Block counts stay below 2^24 (_check_counter), so byte 0 of the mask
    is exactly key ^ lsb(i) and bytes 1..3 are the low three bytes of i:
    as a little-endian word that is byteswap(i) ^ lsb(i) ^ key.
    """
    i = np.arange(start + 1, stop + 1, dtype=np.uint32)
    masks = i.byteswap()
    masks ^= i & np.uint32(0xFF)
    masks ^= np.uint32(key)
    return masks.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def dwc_encrypt_kernel(img, key: int) -> Kernel:
    """The map_chunks kernel that encrypts a GrayImage or PgmSource:
    counter-mask each block, then apply the core transform."""
    _check_counter(img, key)
    return lambda b, s: core_transform_blocks(b ^ _masks(s, s + len(b), key))


def dwc_decrypt_kernel(img, key: int) -> Kernel:
    """The map_chunks kernel that decrypts a GrayImage or PgmSource:
    invert the core transform, then strip the counter mask."""
    _check_counter(img, key)
    return lambda b, s: core_inverse_blocks(b) ^ _masks(s, s + len(b), key)


def dwc_encrypt(img: GrayImage, key: int) -> GrayImage:
    return map_blocks(img, dwc_encrypt_kernel(img, key))


def dwc_decrypt(img: GrayImage, key: int) -> GrayImage:
    return map_blocks(img, dwc_decrypt_kernel(img, key))
