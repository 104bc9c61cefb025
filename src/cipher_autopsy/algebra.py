"""Byte-level algebra shared by both ciphers.

Two structures live here and must not be confused:

* GF(2^8), the field with 256 elements under the reduction polynomial
  x^8 + x^4 + x^3 + x + 1 (0x11B).  Addition is XOR.  The weak cipher's
  core transform (S-box construction, column-matrix multiply) runs here.
* Z/256, the ring of bytes under ordinary + and * mod 256.  Not a field:
  exactly the odd bytes are units.  The Hill-cipher layer and the
  known-plaintext solver run here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

GF_POLY = 0x11B

# Type aliases: bytes are plain ints in [0, 255]; matrices are row-major
# tuples so keys stay hashable and immutable.
Mat2 = tuple[tuple[int, int], tuple[int, int]]
Mat4 = tuple[tuple[int, int, int, int], ...]
Block = tuple[int, int, int, int]


class ZeroInverseError(ValueError):
    """Zero has no multiplicative inverse in GF(2^8)."""


class UnderdeterminedError(ValueError):
    """The equations admit two or more solutions."""


class InconsistentError(ValueError):
    """The equations admit no common solution."""


def gf_add(a: int, b: int) -> int:
    """Field addition: bitwise XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Carry-less multiply reduced by x^8 + x^4 + x^3 + x + 1."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= GF_POLY
    return p


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element (a^254)."""
    if a == 0:
        raise ZeroInverseError("0 has no inverse in GF(2^8)")
    result, power, e = 1, a, 254
    while e:
        if e & 1:
            result = gf_mul(result, power)
        power = gf_mul(power, power)
        e >>= 1
    return result


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


# GF_MUL[a, b] = gf_mul(a, b); GF_INV[a] = gf_inv(a), with 0 mapped to 0.
GF_MUL, GF_INV = _gf_tables()
GF_MUL.flags.writeable = GF_INV.flags.writeable = False


def mod256_inv(a: int) -> int:
    """Inverse of a unit in Z/256; only odd bytes qualify."""
    if a % 2 == 0:
        raise ZeroInverseError("even bytes are zero divisors mod 256")
    return pow(a, -1, 256)


MAT4_IDENTITY: Mat4 = tuple(
    tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
)


def mat4_vec_mod256(m: Mat4, v: Block) -> Block:
    """Matrix-vector product over Z/256, reduced after every accumulate."""
    out = []
    for row in m:
        acc = 0
        for coef, x in zip(row, v):
            acc = (acc + coef * x) % 256
        out.append(acc)
    return (out[0], out[1], out[2], out[3])


def mat4_mul_mod256(x: Mat4, y: Mat4) -> Mat4:
    """4x4 matrix product over Z/256."""
    return tuple(
        tuple(sum(x[i][t] * y[t][j] for t in range(4)) % 256 for j in range(4))
        for i in range(4)
    )


# 2-adic valuation of every byte; 0 counts as 8 (a multiple of 2^8 = 256).
_VAL = np.array([8] + [(i & -i).bit_length() - 1 for i in range(1, 256)])


def _eliminate(col: np.ndarray, rest: list[np.ndarray]):
    """Clear `col` from every row with the row of least 2-adic valuation v.

    Returns v, the pivot row's `rest` entries scaled so its `col` entry is
    exactly 2^v, and the `rest` columns of the cleared rows plus the Howell
    row 2^(8-v) * pivot.  That row is zero in `col` and holds exactly when
    the pivot equation 2^v * x = rhs is solvable for x.  v == 8 means the
    column is already zero: there is no pivot and the pivot row is zero.
    """
    vals = _VAL[col]
    v = int(vals.min(initial=8))
    if v == 8:
        return 8, [0] * len(rest), rest
    p = int(vals.argmin())
    unit_inv = mod256_inv(int(col[p]) >> v)
    pivot = [unit_inv * int(r[p]) % 256 for r in rest]
    f = col >> v
    cleared = [
        np.append((r - f * q) % 256, (q << (8 - v)) % 256) for r, q in zip(rest, pivot)
    ]
    return v, pivot, cleared


def _coset(v: int, rhs) -> np.ndarray:
    """Every x with 2^v * x = rhs (mod 256), given that 2^v divides rhs.

    `rhs` may be an array; the result then has one row per entry.
    """
    return (np.asarray(rhs)[..., None] >> v) + (np.arange(1 << v) << (8 - v))


def solve_rows_mod256(a, b, t) -> np.ndarray:
    """Every (x, y) with a[i]*x + b[i]*y = t[i] (mod 256) for all rows i.

    One elimination pass per unknown (Howell, "Spans in the module
    (Z_m)^s", 1986): pivot on the row of least 2-adic valuation, clear the
    column, and carry the Howell row into the next column.  What is left
    is 2^vx * x + bx * y = tx and 2^vy * y = ty plus rows that must read
    0 = 0, so the solutions form a coset of 2^(vx + vy) <= 2^16 pairs.

    Returns an (m, 2) int64 array in ascending (x, y) order, m = 0 when the
    rows are inconsistent.
    """
    a, b, t = (np.asarray(r, dtype=np.int64) % 256 for r in (a, b, t))
    vx, (bx, tx), (b, t) = _eliminate(a, [b, t])
    vy, (ty,), (t,) = _eliminate(b, [t])
    if t.any():
        return np.empty((0, 2), dtype=np.int64)
    ys = _coset(vy, ty)
    xs = _coset(vx, (tx - bx * ys) % 256)
    codes = np.sort((xs * 256 + ys[:, None]).ravel())
    return np.stack([codes >> 8, codes & 0xFF], axis=1)


def solve_k_rows_mod256(
    equations: Sequence[tuple[int, int, int]],
) -> tuple[int, int]:
    """Solve k*a + l*b = rhs  (mod 256) for the unknown pair (k, l).

    Each equation is an (a, b, rhs) triple; solve_rows_mod256 finds every
    solution.  Raises UnderdeterminedError when two or more pairs fit and
    InconsistentError when none does.
    """
    if len(equations) < 2:
        raise ValueError("need at least two equations")
    solutions = solve_rows_mod256(*zip(*equations))
    if len(solutions) == 0:
        raise InconsistentError("equations admit no common solution mod 256")
    if len(solutions) > 1:
        raise UnderdeterminedError(
            f"{len(solutions)} solutions fit the equations mod 256"
        )
    return int(solutions[0, 0]), int(solutions[0, 1])
