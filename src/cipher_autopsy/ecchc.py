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
"""

from __future__ import annotations

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


def ecchc_kernel(img, key: HillKey) -> Kernel:
    """The map_chunks kernel that encrypts (and decrypts: the same
    multiply) a GrayImage or PgmSource; both dimensions must be even."""
    if img.width % 2 or img.height % 2:
        raise BadDimensionsError(
            f"{img.width}x{img.height}: both dimensions must be even"
        )
    return lambda blocks, _: hill_apply(blocks, key.k)


def ecchc_encrypt(img: GrayImage, key: HillKey) -> GrayImage:
    """ECB encryption: hill_apply on every canonical block.  It is also the
    decryption: the block matrix is its own inverse mod 256."""
    return map_blocks(img, ecchc_kernel(img, key))
