"""Toy elliptic-curve group over a small prime field, plus the two-party
key agreement that turns a shared point into a 2x2 byte matrix.

The default curve was found by brute force, by the search that
scripts/find_demo_curve.py re-runs: candidate (q, a, b) triples are scanned
in order and the first curve whose point count is a prime of at least 257
is frozen below.  Two extra filters keep the key-agreement demo total: the
group order is at least q, and b is a quadratic non-residue, so no affine
coordinate can ever be congruent to 0 modulo the order (coordinates lie in
[0, q-1], and a prime-order group has no point with y = 0).  Key sizes
this small are the point: the symmetric layer caps the whole scheme at a
32-bit key, so a desk-scale group loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Mat2


class PointNotOnCurveError(ValueError):
    pass


class DegenerateSharedPointError(ValueError):
    """Shared-point computation landed on the identity."""


class DegenerateDerivedPointError(ValueError):
    """A coordinate of the shared point is 0 mod the group order, so the
    corresponding multiple of G is the identity and has no coordinates."""


@dataclass(frozen=True)
class EcPoint:
    """Affine point, or the identity when both coordinates are None."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        return "EcPoint(inf)" if self.is_infinity else f"EcPoint({self.x}, {self.y})"


INFINITY = EcPoint(None, None)


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + a*x + b over F_q; the group of points has prime order."""

    q: int
    a: int
    b: int
    gx: int
    gy: int
    order_p: int

    @property
    def generator(self) -> EcPoint:
        return EcPoint(self.gx, self.gy)

    def contains(self, p: EcPoint) -> bool:
        if p.is_infinity:
            return True
        if not (0 <= p.x < self.q and 0 <= p.y < self.q):
            return False
        return (p.y * p.y - (p.x**3 + self.a * p.x + self.b)) % self.q == 0


@dataclass(frozen=True)
class KeyPair:
    private_n: int
    public_p: EcPoint


# Frozen result of the search in scripts/find_demo_curve.py: first q >= 1009
# and smallest (a, b) passing all filters.  |E| = 1009 is prime; G is the
# affine point with the smallest coordinates.
DEFAULT_CURVE = CurveParams(q=1009, a=1, b=79, gx=1, gy=9, order_p=1009)


def scalar_mul(n: int, p: EcPoint, curve: CurveParams) -> EcPoint:
    """n-fold group sum via double-and-add; n is reduced mod the order."""
    if n < 0:
        raise ValueError("scalar must be non-negative")
    if not curve.contains(p):
        raise PointNotOnCurveError(f"{p} not on curve")
    n %= curve.order_p
    result = INFINITY
    base = p
    while n:
        if n & 1:
            result = _add_unchecked(result, base, curve)
        base = _add_unchecked(base, base, curve)
        n >>= 1
    return result


def _add_unchecked(p1: EcPoint, p2: EcPoint, curve: CurveParams) -> EcPoint:
    # The chord-tangent group law, doubling and inverses included.  It checks
    # nothing: scalar_mul checks its point once, and every sum of points on
    # the curve is on the curve.
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    q = curve.q
    if p1.x == p2.x and (p1.y + p2.y) % q == 0:
        return INFINITY
    if p1 == p2:
        lam = (3 * p1.x * p1.x + curve.a) * pow(2 * p1.y, -1, q) % q
    else:
        lam = (p2.y - p1.y) * pow(p2.x - p1.x, -1, q) % q
    x3 = (lam * lam - p1.x - p2.x) % q
    y3 = (lam * (p1.x - x3) - p1.y) % q
    return EcPoint(x3, y3)


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> int:
    """First output of the splitmix64 generator; the documented source of
    all seeded randomness in this module."""
    state = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def keygen(curve: CurveParams, seed: int) -> KeyPair:
    """Deterministic keypair: private scalar in [1, order-1] drawn from
    splitmix64(seed).  Zero is excluded so the public key is never the
    identity."""
    n = 1 + splitmix64(seed) % (curve.order_p - 1)
    return KeyPair(private_n=n, public_p=scalar_mul(n, curve.generator, curve))


def shared_point(my_private: int, their_public: EcPoint, curve: CurveParams) -> EcPoint:
    """Diffie-Hellman combine: my_private * their_public."""
    if their_public.is_infinity:
        raise DegenerateSharedPointError("peer public key is the identity")
    k_i = scalar_mul(my_private, their_public, curve)
    if k_i.is_infinity:
        raise DegenerateSharedPointError("shared point is the identity")
    return k_i


def derive_hill_key(k_i: EcPoint, curve: CurveParams) -> Mat2:
    """Turn the shared point (x, y) into a 2x2 byte matrix.

    Row one is the affine coordinates of x*G reduced mod 256, row two
    likewise from y*G.  The scalars x and y are interpreted mod the group
    order before multiplying, so a coordinate congruent to 0 has no
    derived point and raises.
    """
    if k_i.is_infinity:
        raise DegenerateDerivedPointError("shared point is the identity")
    xg = scalar_mul(k_i.x, curve.generator, curve)
    yg = scalar_mul(k_i.y, curve.generator, curve)
    if xg.is_infinity or yg.is_infinity:
        raise DegenerateDerivedPointError(
            "a shared-point coordinate is 0 mod the group order"
        )
    return ((xg.x % 256, xg.y % 256), (yg.x % 256, yg.y % 256))


def agree(seed: int) -> tuple[KeyPair, KeyPair, EcPoint, Mat2]:
    """The two-party agreement on DEFAULT_CURVE: Alice's keypair from
    seed, Bob's from seed + 1, the shared point, and the Hill matrix
    derived from it.  Both sides compute the shared point, and a mismatch
    raises DegenerateSharedPointError."""
    curve = DEFAULT_CURVE
    alice = keygen(curve, seed)
    bob = keygen(curve, seed + 1)
    k_i = shared_point(alice.private_n, bob.public_p, curve)
    if k_i != shared_point(bob.private_n, alice.public_p, curve):
        raise DegenerateSharedPointError("two-party agreement mismatch")
    return alice, bob, k_i, derive_hill_key(k_i, curve)

