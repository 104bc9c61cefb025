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
fold into one 256-entry table of 32-bit words, so a block costs four word
gathers and three XORs; CT^-1 gathers through the inverse matrix's tables,
then applies the inverse S-box to bytes 0, 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Block, gf_inv, gf_mul
from .imagekit import BadDimensionsError, GrayImage, blocks_of, unblocks

MIX_ROWS = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
MIX_INV_ROWS = (
    (0x0E, 0x0B, 0x0D, 0x09),
    (0x09, 0x0E, 0x0B, 0x0D),
    (0x0D, 0x09, 0x0E, 0x0B),
    (0x0B, 0x0D, 0x09, 0x0E),
)


@dataclass(frozen=True)
class SBox:
    forward: tuple[int, ...]
    inverse: tuple[int, ...]


@dataclass(frozen=True)
class ColumnMatrix:
    m: tuple[tuple[int, ...], ...]
    m_inv: tuple[tuple[int, ...], ...]


def _rotl8(x: int, n: int) -> int:
    return ((x << n) | (x >> (8 - n))) & 0xFF


def build_sbox() -> SBox:
    """Field inversion (0 mapped to 0) followed by the affine bit mix."""
    forward = []
    for x in range(256):
        b = gf_inv(x) if x else 0
        forward.append(
            b ^ _rotl8(b, 1) ^ _rotl8(b, 2) ^ _rotl8(b, 3) ^ _rotl8(b, 4) ^ 0x63
        )
    inverse = [0] * 256
    for x, s in enumerate(forward):
        inverse[s] = x
    return SBox(forward=tuple(forward), inverse=tuple(inverse))


def column_matrix() -> ColumnMatrix:
    return ColumnMatrix(m=MIX_ROWS, m_inv=MIX_INV_ROWS)


_SBOX = build_sbox()
_SB = np.array(_SBOX.forward, dtype=np.uint8)
_SB_INV = np.array(_SBOX.inverse, dtype=np.uint8)
_IDENTITY = np.arange(256, dtype=np.uint8)


def _t_tables(rows, subs) -> tuple[np.ndarray, ...]:
    """T-tables (Daemen & Rijmen, The Design of Rijndael, 2002, sec. 4.2):
    T_j[x] is column j of the matrix times subs[j][x] over GF(2^8), packed
    little-endian (byte r of the word is row r), so one output block is
    T_0[x0] ^ T_1[x1] ^ T_2[x2] ^ T_3[x3]."""
    products = {
        c: np.array([gf_mul(c, x) for x in range(256)], dtype=np.uint32)
        for c in {c for row in rows for c in row}
    }
    tables = []
    for j, sub in enumerate(subs):
        word = np.zeros(256, dtype=np.uint32)
        for r, row in enumerate(rows):
            word |= products[row[j]][sub] << np.uint32(8 * r)
        tables.append(word.astype("<u4"))
    return tuple(tables)


_T_FWD = _t_tables(MIX_ROWS, (_SB, _SB, _IDENTITY, _SB))
_T_INV = _t_tables(MIX_INV_ROWS, (_IDENTITY,) * 4)


def _mix_words(tables, blocks: np.ndarray) -> np.ndarray:
    """One table gather per byte column, XORed, as (n, 4) bytes."""
    words = np.take(tables[0], blocks[:, 0])
    for j in (1, 2, 3):
        words ^= np.take(tables[j], blocks[:, j])
    return words.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def ct(p: Block) -> Block:
    """Core transform of one block: S-box on bytes 0, 1, 3, then the
    circulant multiply over GF(2^8)."""
    return tuple(core_transform_blocks(np.array([p], dtype=np.uint8))[0].tolist())


def ct_inv(c: Block) -> Block:
    """Inverse core transform: inverse matrix, then three inverse lookups."""
    return tuple(core_inverse_blocks(np.array([c], dtype=np.uint8))[0].tolist())


def core_transform_blocks(blocks: np.ndarray) -> np.ndarray:
    """ct over an (n, 4) uint8 array: four T-table gathers per block."""
    return _mix_words(_T_FWD, blocks)


def core_inverse_blocks(blocks: np.ndarray) -> np.ndarray:
    """ct_inv over an (n, 4) uint8 array: four T-table gathers for the
    inverse matrix, then the inverse S-box on bytes 0, 1 and 3."""
    out = _mix_words(_T_INV, blocks)
    for j in (0, 1, 3):
        out[:, j] = np.take(_SB_INV, out[:, j])
    return out


def counter_masks(n: int, key: int) -> np.ndarray:
    """Per-block 32-bit masks i ^ ((key ^ lsb(i)) << 24) as (n, 4) bytes,
    byte 0 most significant, i = 1..n.

    Block counts stay below 2^24 for any image this package handles, so
    byte 0 of the mask is exactly key ^ lsb(i) and bytes 1..3 are the low
    three bytes of i: as a little-endian word that is
    byteswap(i) ^ lsb(i) ^ key.
    """
    if not 0 <= key <= 255:
        raise ValueError("key must be a single byte")
    if n >= 1 << 24:
        raise BadDimensionsError("block counter would collide with the key byte")
    i = np.arange(1, n + 1, dtype=np.uint32)
    masks = i.byteswap()
    masks ^= i & np.uint32(0xFF)
    masks ^= np.uint32(key)
    return masks.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def dwc_encrypt(img: GrayImage, key: int) -> GrayImage:
    """Counter-mask each block, then apply the core transform."""
    blocks = blocks_of(img)
    masked = blocks ^ counter_masks(len(blocks), key)
    return unblocks(core_transform_blocks(masked), img.width, img.height)


def dwc_decrypt(img: GrayImage, key: int) -> GrayImage:
    """Invert the core transform, then strip the counter mask."""
    blocks = blocks_of(img)
    unmasked = core_inverse_blocks(blocks) ^ counter_masks(len(blocks), key)
    return unblocks(unmasked, img.width, img.height)
