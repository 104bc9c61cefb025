"""Byte-level algebra shared by both ciphers.

Two structures live here and must not be confused:

* GF(2^8), the field with 256 elements under the reduction polynomial
  x^8 + x^4 + x^3 + x + 1 (0x11B).  Addition is XOR.  The product and
  inverse tables here give the weak cipher's S-box and column multiply.
* Z/256, the ring of bytes under ordinary + and * mod 256.  Not a field:
  exactly the odd bytes are units.  The Hill-cipher layer and the
  known-plaintext solver run here.
"""

from __future__ import annotations

import numpy as np

GF_POLY = 0x11B

# Type aliases: bytes are plain ints in [0, 255]; matrices are row-major
# tuples so keys stay hashable and immutable.
Mat2 = tuple[tuple[int, int], tuple[int, int]]
Block = tuple[int, int, int, int]


def _gf_tables() -> tuple[np.ndarray, np.ndarray]:
    """Every product and inverse of GF(2^8) from log/antilog tables over
    the generator 3 (x + 1): a*b = 3^(log a + log b), 1/a = 3^(255 - log a)."""
    exp = [1]
    for _ in range(254):  # x*3 = x ^ 2x, and 2x reduces when bit 7 is set
        x = exp[-1]
        exp.append(x ^ (x << 1) ^ (GF_POLY if x & 0x80 else 0))
    antilog = np.array(exp * 2, dtype=np.uint8)  # log a + log b < 510 needs no mod
    log = np.zeros(256, dtype=np.intp)
    log[exp] = np.arange(255)
    mul, inv = antilog[log[:, None] + log], antilog[255 - log]
    mul[0] = mul[:, 0] = inv[0] = 0  # 0 has no logarithm
    return mul, inv


# GF_MUL[a, b] is the field product a*b; GF_INV[a] is 1/a, with 0 mapped to 0.
GF_MUL, GF_INV = _gf_tables()
GF_MUL.flags.writeable = GF_INV.flags.writeable = False


# 2-adic valuation of every byte; 0 counts as 8 (a multiple of 2^8 = 256).
_VAL = np.array([8] + [(i & -i).bit_length() - 1 for i in range(1, 256)], dtype=np.uint8)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def key_bytes(text: str, count: int, error: str) -> bytes:
    """`count` bytes of key text, each exactly 2 ASCII hex digits (int(_, 16)
    alone takes a sign, inner space or any Unicode digit); case and outer
    whitespace are ignored.  Else ValueError(error)."""
    text = text.strip()
    if len(text) != 2 * count or not _HEX_DIGITS.issuperset(text):
        raise ValueError(error)
    return bytes.fromhex(text)


def bytes_mod256(x) -> np.ndarray:
    """x reduced mod 256 as a uint8 array; a uint8 array passes through uncopied."""
    x = np.asarray(x)
    return x if x.dtype == np.uint8 else (np.asarray(x, dtype=np.int64) % 256).astype(np.uint8)


def _eliminate(col: np.ndarray, rest: list[np.ndarray]):
    """Clear `col` from every row with the row of least 2-adic valuation v,
    in wrapping uint8 arithmetic, which is arithmetic mod 256.

    Returns v, the pivot row's `rest` entries scaled so its `col` entry is
    exactly 2^v, and the `rest` columns of the cleared rows plus the Howell
    row 2^(8-v) * pivot.  That row is zero in `col` and holds exactly when
    the pivot equation 2^v * x = rhs is solvable for x.  v == 8 means the
    column is already zero: there is no pivot and the pivot row is zero.
    """
    v = int(_VAL[np.bitwise_or.reduce(col)])  # the least valuation is the OR's
    if v == 8:
        return 8, [0] * len(rest), rest
    p = int((col & (1 << v)).argmax())  # the first row of valuation exactly v
    unit_inv = pow(int(col[p]) >> v, -1, 256)  # odd: v is the least valuation
    pivot = [unit_inv * int(r[p]) % 256 for r in rest]
    f = col >> v
    cleared = []
    for r, q in zip(rest, pivot):
        row = np.empty(len(r) + 1, dtype=np.uint8)
        np.subtract(r, f * q, out=row[:-1])
        row[-1] = q << (8 - v) & 255
        cleared.append(row)
    return v, pivot, cleared


def row_coset(a: np.ndarray, b: np.ndarray, t: np.ndarray):
    """The (x, y) with a[i]*x + b[i]*y = t[i] (mod 256) for all rows i, in
    closed form; a, b and t are uint8 arrays.

    One elimination pass per unknown (Howell, "Spans in the module
    (Z_m)^s", 1986): pivot on the row of least 2-adic valuation, clear the
    column, and carry the Howell row into the next column.  What is left
    is 2^vx * x + bx * y = tx and 2^vy * y = ty plus rows that must read
    0 = 0.  Returns (vx, bx, tx, vy, ty), a coset of 2^(vx + vy) <= 2^16
    pairs, or None when the rows are inconsistent.
    """
    vx, (bx, tx), (b, t) = _eliminate(a, [b, t])
    vy, (ty,), (t,) = _eliminate(b, [t])
    return None if t.any() else (vx, bx, tx, vy, ty)


def two_smallest(coset) -> list[tuple[int, int]]:
    """The two smallest (x, y) pairs of a row_coset in ascending order,
    fewer when the coset is smaller, none when it is None.

    Each y = ty/2^vy + j * 2^(8 - vy) has 2^vx solutions x = x0(y) + k *
    2^(8 - vx), so the two smallest pairs are among the two smallest x of
    each y.
    """
    if coset is None:
        return []
    vx, bx, tx, vy, ty = coset
    ys = (ty >> vy) + (np.arange(1 << vy) << (8 - vy))
    xs = ((tx - bx * ys) % 256 >> vx)[:, None] + (np.arange(min(1 << vx, 2)) << (8 - vx))
    codes = np.sort((xs * 256 + ys[:, None]).ravel())[:2].tolist()
    return [(c >> 8, c & 0xFF) for c in codes]
