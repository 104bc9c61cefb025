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

Both directions run in T-table form, as stages of one gather.  A stage
is a per-byte substitution followed by a matrix: each input byte's map
and matrix column fold into one 256-entry table of 32-bit words, and the
tables of bytes (0, 1) and of bytes (2, 3) are XORed together into two
65536-entry pair tables.  A block, read as two little-endian uint16
halves, then costs two word gathers and one XOR per stage.  CT is one
stage (the S-box layer, then the matrix); CT^-1 is two (the identity
map, then the inverse matrix; the inverse S-box layer, then the unit
matrix).  The tables come from the field's log/antilog tables
(algebra.GF_MUL, algebra.GF_INV), each stage's on its first use.
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


def _s_layer(sbox: np.ndarray) -> tuple[np.ndarray, ...]:
    """The S-box layer's map of each byte: byte 2 bypasses the S-box."""
    return (sbox, sbox, _IDENTITY, sbox)


_STAGES = {
    "ct": (MIX_ROWS, _s_layer(_SB)),
    "mix_inv": (MIX_INV_ROWS, (_IDENTITY,) * 4),
    "sub_inv": (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), _s_layer(_SB_INV)),
}


# A stage's tables (512 KiB) are built on its first use, so a process that
# only encrypts holds CT's alone.
@functools.cache
def _pair_tables(stage: str) -> tuple[np.ndarray, np.ndarray]:
    """Byte-pair T-tables (Daemen & Rijmen, The Design of Rijndael, 2002,
    sec. 4.2).  T_j[x] is column j of the stage's matrix times subs[j][x]
    over GF(2^8), packed little-endian (byte r of the word is row r), so one
    output block is T_0[x0] ^ T_1[x1] ^ T_2[x2] ^ T_3[x3].  Returns
    T01[x0 | x1 << 8] = T_0[x0] ^ T_1[x1] and T23 likewise: the block's
    two little-endian uint16 halves index them directly."""
    rows, subs = _STAGES[stage]
    t = []
    for j, sub in enumerate(subs):
        word = np.zeros(256, dtype=np.uint32)
        for r, row in enumerate(rows):
            word |= GF_MUL[row[j]][sub].astype(np.uint32) << np.uint32(8 * r)
        t.append(word)
    return tuple((t[j + 1][:, None] ^ t[j]).astype("<u4").ravel() for j in (0, 2))


def _gather(stage: str, blocks: np.ndarray) -> np.ndarray:
    """One stage over an (n, 4) uint8 array: a pair-table gather per uint16
    half, XORed.  A uint16 index is always in range, so mode="wrap" skips
    bounds checks."""
    tables = _pair_tables(stage)
    halves = np.ascontiguousarray(blocks, dtype=np.uint8).view("<u2")
    words = np.take(tables[0], halves[:, 0], mode="wrap")
    words ^= np.take(tables[1], halves[:, 1], mode="wrap")
    return words.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def core_transform_blocks(blocks: np.ndarray) -> np.ndarray:
    """CT over an (n, 4) uint8 array: one table stage."""
    return _gather("ct", blocks)


def core_inverse_blocks(blocks: np.ndarray) -> np.ndarray:
    """CT^-1 over an (n, 4) uint8 array: the inverse matrix's stage, then
    the inverse S-box's."""
    return _gather("sub_inv", _gather("mix_inv", blocks))


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
