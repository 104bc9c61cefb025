"""Hill-cipher layer: a 2x2 byte matrix K keys the self-invertible 4x4
block matrix [[K, I-K], [I+K, -K]] mod 256, which encrypts and decrypts
images in ECB fashion.

Self-invertibility makes encryption and decryption the same multiply, but
it also forces structure.  Split a block into halves p_top = (p0, p1) and
p_bot = (p2, p3) and let d = p_top - p_bot; the block matrix then reads

    c_top = p_bot + K d,    c_bot = p_top + K d    (mod 256).

So c_bot - c_top = d under every key, every block (p, p, p, p) is a fixed
point of every key, and each row of K meets the data in one linear
equation per block.  No other block is fixed unless 2d = 0: a fixed block
has K d = d and K d = -d, so d lies in {0, 128}^2, and then it is fixed
exactly when (K - I) d = 0.  hill_apply is the one statement of the layer,
in this form; the 4x4 matrix is never stored.  The attack module leans on
all four facts.

The streamed kernel (ecchc_kernel) runs the same form as a table gather,
in the T-table style of Daemen and Rijmen (The Design of Rijndael, 2002,
sec. 4.2).  K d depends only on d = (d0, d1), so one 65,536-word table
(256 KiB), read off hill_apply of the 512 single-difference blocks, holds
[K d, K d] at d0 | d1 << 8.  Each block then costs one gather and a
bytewise add of its halves swapped.  The table is built when a key's
kernel is made, and the last key's table is kept, so one process holds
one however many keys it meets.  Keygen, the census and the tests call
hill_apply directly: on a few hundred blocks the build would cost more
than it saves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import Mat2, key_bytes
from .imagekit import BadDimensionsError, GrayImage, Kernel, map_blocks


@dataclass(frozen=True)
class HillKey:
    """The 2x2 key matrix k, with entries reduced mod 256."""

    k: Mat2

    @property
    def key_hex(self) -> str:
        """Canonical 4-byte encoding k11 k12 k21 k22 as 8 hex digits."""
        (k11, k12), (k21, k22) = self.k
        return f"{k11:02x}{k12:02x}{k21:02x}{k22:02x}"

    @classmethod
    def from_hex(cls, text: str) -> "HillKey":
        k11, k12, k21, k22 = key_bytes(text, 4, "hill key must be 8 hex digits (k11 k12 k21 k22)")
        return expand_key(((k11, k12), (k21, k22)))


def expand_key(k: Mat2) -> HillKey:
    """The key of K mod 256.  The block matrix squares to the identity for
    every K, so one multiply both encrypts and decrypts."""
    (k11, k12), (k21, k22) = ((v % 256 for v in row) for row in k)
    return HillKey(k=((k11, k12), (k21, k22)))


def hill_apply(blocks: np.ndarray, k: Mat2) -> np.ndarray:
    """The Hill layer on an (n, 4) uint8 block array, in difference form:
    4 byte multiplies per block, wrapping mod 256 in uint8, into one
    C-ordered (n, 4) output."""
    (k11, k12), (k21, k22) = k
    p0, p1, p2, p3 = blocks.T
    out = np.empty((len(blocks), 4), dtype=np.uint8)
    c0, c1, c2, c3 = out.T
    d0, d1 = p0 - p2, p1 - p3
    kd, term = d0 * k11, d1 * k12
    kd += term
    np.add(p2, kd, out=c0)
    np.add(p0, kd, out=c2)
    np.multiply(d0, k21, out=kd)
    np.multiply(d1, k22, out=term)
    kd += term
    np.add(p3, kd, out=c1)
    np.add(p1, kd, out=c3)
    return out


@functools.lru_cache(maxsize=1)
def _difference_table(k: Mat2) -> np.ndarray:
    """The read-only '<u4' word [K d, K d] at d0 | d1 << 8, bytes 0 and 1
    K d and bytes 2 and 3 again.  K d is linear in d, so row d1 is
    K (0, d1) plus K (d0, 0) bytewise, both read off hill_apply: a block
    (d0, d1, 0, 0) has c_top = K d.  Both steps write into the table."""
    single = np.zeros((512, 4), dtype=np.uint8)
    single[:256, 0] = single[256:, 1] = np.arange(256)
    kd = hill_apply(single, k)
    kd[:, 2:] = kd[:, :2]
    table = np.empty((256, 256), dtype="<u4")
    table[:] = kd[256:].view("<u4")
    table.view(np.uint8).reshape(256, 1024)[:] += kd[:256].reshape(1, 1024)
    table.flags.writeable = False
    return table.reshape(-1)


def _hill_chunk(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """hill_apply of an (n, 4) uint8 array through its key's difference
    table: c = (p_bot, p_top) + [K d, K d], added bytewise."""
    flat = np.ascontiguousarray(blocks).reshape(-1)
    d = np.empty(flat.size, dtype=np.uint8)
    np.subtract(flat[:-2], flat[2:], out=d[:-2])  # bytes 4i and 4i+1 are block i's d0, d1
    index = d.view("<u2")[::2]
    words = np.empty(len(index), dtype="<u4")
    half = len(words) // 2  # np.take copies its index to intp: half a chunk's at a time
    for part in (slice(None, half), slice(half, None)):
        np.take(table, index[part], out=words[part], mode="wrap")
    out, p, swapped = words.view(np.uint8), flat.view("<u4"), d.view("<u4")
    np.left_shift(p, 16, out=swapped)  # p_top into bytes 2 and 3
    out += d
    np.right_shift(p, 16, out=swapped)  # p_bot into bytes 0 and 1
    out += d
    return out.reshape(-1, 4)


def ecchc_kernel(img, key: HillKey) -> Kernel:
    """The map_chunks kernel that encrypts (and decrypts: the same
    multiply) a GrayImage or PgmSource; both dimensions must be even."""
    if img.width % 2 or img.height % 2:
        raise BadDimensionsError(
            f"{img.width}x{img.height}: both dimensions must be even"
        )
    table = _difference_table(key.k)
    return lambda blocks, _: _hill_chunk(blocks, table)


def ecchc_encrypt(img: GrayImage, key: HillKey) -> GrayImage:
    """ECB encryption: hill_apply on every canonical block.  It is also the
    decryption: the block matrix is its own inverse mod 256."""
    return map_blocks(img, ecchc_kernel(img, key))
