import functools
import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipher_autopsy.ecgroup import (
    DEFAULT_CURVE,
    CurveParams,
    DegenerateSharedPointError,
    KeyPair,
    _add_unchecked,
    agree,
    derive_hill_key,
    keygen,
    scalar_mul,
    shared_point,
    splitmix64,
)

C = DEFAULT_CURVE

# The curve search lives in the one script that runs it.
_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "find_demo_curve.py"
_spec = importlib.util.spec_from_file_location("find_demo_curve", _SCRIPT)
find_demo_curve = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(find_demo_curve)


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# --- the frozen curve --------------------------------------------------------


def test_default_curve_is_valid():
    assert _is_prime(C.q)
    assert _is_prime(C.order_p)
    assert C.order_p >= 257
    assert (4 * C.a**3 + 27 * C.b**2) % C.q != 0
    assert C.contains(C.generator)
    assert scalar_mul(C.order_p, C.generator, C) is None


def test_contains_takes_the_identity_and_refuses_coordinates_outside_the_field():
    assert C.contains(None)
    assert not C.contains((C.q, 0))
    assert not C.contains((-1, 0))


def test_default_curve_matches_fresh_search():
    assert find_demo_curve.find_demo_curve() == C


def test_point_count_matches_frozen_order():
    assert find_demo_curve.count_points(C.q, C.a, C.b) == C.order_p


def test_curve_params_text_round_trip(capsys):
    assert find_demo_curve.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # the search time, six `name value` lines, the cross-check and the verdict
    assert lines[-2:] == [f"point count cross-check: {C.order_p}", "matches the frozen DEFAULT_CURVE"]
    fields = dict(line.split() for line in lines[1:-2])
    assert list(fields) == ["q", "a", "b", "gx", "gy", "order_p"]
    assert CurveParams(**{name: int(value) for name, value in fields.items()}) == C


# --- group law against a brute-force-built group -----------------------------


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _inv_mod(a, q):
    g, x, _ = _egcd(a % q, q)
    assert g == 1
    return x % q


def _oracle_add(p1, p2):
    # naive chord-tangent evaluation, inverses via extended gcd
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % C.q == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 + C.a) * _inv_mod(2 * y1, C.q) % C.q
    else:
        lam = (y2 - y1) * _inv_mod(x2 - x1, C.q) % C.q
    x3 = (lam * lam - x1 - x2) % C.q
    return (x3, (lam * (x1 - x3) - y1) % C.q)


@functools.cache
def _oracle_table():
    """The cyclic table i -> i*G, built once by repeated oracle addition."""
    g = (C.gx, C.gy)
    table = [None, g]
    for _ in range(2, C.order_p):
        table.append(_oracle_add(table[-1], g))
    return table


def _enumerate_affine_points():
    points = set()
    for x in range(C.q):
        rhs = (x * x * x + C.a * x + C.b) % C.q
        for y in range(C.q):
            if (y * y) % C.q == rhs:
                points.add((x, y))
    return points


def test_exhaustive_addition_table_matches_enumerated_group():
    all_points = _enumerate_affine_points()
    assert len(all_points) + 1 == C.order_p

    # every multiple in the cyclic table lands inside the enumerated point
    # set (closure)
    table = _oracle_table()
    assert set(table[1:]) <= all_points
    index = {p: i for i, p in enumerate(table) if p is not None}
    assert len(index) == C.order_p - 1  # the group really is cyclic of order p

    # the implementation must agree with the brute-force group on every pair
    n = C.order_p
    for i in range(1, n):
        for j in range(i, n):
            assert _add_unchecked(table[i], table[j], C) == table[(i + j) % n]


def test_point_add_identity_and_inverse():
    p = scalar_mul(17, C.generator, C)
    assert _add_unchecked(p, None, C) == p
    assert _add_unchecked(None, p, C) == p
    assert _add_unchecked(p, (p[0], -p[1] % C.q), C) is None


def test_scalar_mul_rejects_off_curve():
    for point in ((1, 2), (5, 5)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(point))} not on curve$"):
            scalar_mul(3, point, C)


# --- scalar multiplication ----------------------------------------------------


def test_scalar_mul_edge_cases():
    G = C.generator
    assert scalar_mul(0, G, C) is None
    assert scalar_mul(1, G, C) == G
    assert scalar_mul(C.order_p, G, C) is None
    with pytest.raises(ValueError):
        scalar_mul(-1, G, C)


def test_scalar_mul_matches_repeated_addition():
    G = C.generator
    acc = None
    for n in range(60):
        assert scalar_mul(n, G, C) == acc
        acc = _oracle_add(acc, G)


@settings(max_examples=60)
@given(m=st.integers(0, 5000), n=st.integers(0, 5000))
def test_scalar_mul_additive(m, n):
    G = C.generator
    lhs = scalar_mul(m + n, G, C)
    rhs = _oracle_add(scalar_mul(m, G, C), scalar_mul(n, G, C))
    assert lhs == rhs


# --- seeded key generation -----------------------------------------------------


def test_splitmix64_reference_vectors():
    # first outputs of the reference implementation for seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    state1 = (0 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    assert splitmix64(state1) == 0x6E789E6AA1B965F4


def test_keygen_deterministic_and_valid():
    kp1 = keygen(C, 42)
    kp2 = keygen(C, 42)
    assert kp1 == kp2
    assert 1 <= kp1.private_n < C.order_p
    assert kp1.public_p == scalar_mul(kp1.private_n, C.generator, C)


def test_keygen_distinct_seeds_distinct_keys():
    assert keygen(C, 0).private_n != keygen(C, 1).private_n


# --- key agreement and derivation ----------------------------------------------


def test_shared_point_commutes():
    for seed in range(20):
        a = keygen(C, seed)
        b = keygen(C, seed + 1000)
        k_ab = shared_point(a.private_n, b.public_p, C)
        k_ba = shared_point(b.private_n, a.public_p, C)
        assert k_ab == k_ba


def test_shared_point_rejects_identity_peer():
    with pytest.raises(DegenerateSharedPointError):
        shared_point(5, None, C)


def test_shared_point_matches_repeated_addition():
    b = keygen(C, 7)
    acc = None
    for n in range(1, 20):
        acc = _oracle_add(acc, b.public_p)
        assert shared_point(n, b.public_p, C) == acc


def test_derive_hill_key_frozen_fixture():
    # computed once with the verified scalar_mul: K_I = 5*G = (980, 208),
    # x*G = (822, 308), y*G = (995, 529)
    k_i = scalar_mul(5, C.generator, C)
    assert k_i == (980, 208)
    assert derive_hill_key(k_i, C) == ((822 % 256, 308 % 256), (995 % 256, 529 % 256))
    assert derive_hill_key(k_i, C) == ((54, 52), (227, 17))


def test_derive_hill_key_degenerate_coordinate():
    # a coordinate congruent to 0 mod the order has no derived point
    message = "^a shared-point coordinate is 0 mod the group order$"
    with pytest.raises(DegenerateSharedPointError, match=message):
        derive_hill_key((0, 5), C)
    with pytest.raises(DegenerateSharedPointError, match="^shared point is the identity$"):
        derive_hill_key(None, C)


def test_both_parties_derive_identical_matrix():
    for seed in range(30):
        a = keygen(C, 2 * seed)
        b = keygen(C, 2 * seed + 1)
        k_a = derive_hill_key(shared_point(a.private_n, b.public_p, C), C)
        k_b = derive_hill_key(shared_point(b.private_n, a.public_p, C), C)
        assert k_a == k_b


def test_agree_is_the_four_call_chain_for_every_report_seed():
    # oracle: the agreement written out by hand, one side's shared point
    for seed in range(64):
        alice = keygen(C, seed)
        bob = keygen(C, seed + 1)
        k_i = shared_point(alice.private_n, bob.public_p, C)
        assert agree(seed) == (alice, bob, k_i, derive_hill_key(k_i, C))


def test_agree_matches_the_oracle_table_for_every_report_seed_and_wide_seeds():
    # oracle: keypairs, shared point and matrix read off the cyclic table
    # i -> i*G, with the private scalars drawn as keygen documents
    table = _oracle_table()
    n = C.order_p
    for seed in [*range(-64, 1024), 2**64, 2**64 + 12345, 2**100 + 7]:
        a = 1 + splitmix64(seed) % (n - 1)
        b = 1 + splitmix64(seed + 1) % (n - 1)
        x, y = table[a * b % n]
        xg, yg = table[x % n], table[y % n]
        k = ((xg[0] % 256, xg[1] % 256), (yg[0] % 256, yg[1] % 256))
        expected = (KeyPair(a, table[a]), KeyPair(b, table[b]), (x, y), k)
        assert agree(seed) == expected


def test_no_degenerate_derivations_possible_on_default_curve():
    # order >= q and no point with x == 0 or y == 0: every affine
    # coordinate is a nonzero scalar mod the order
    assert C.order_p >= C.q
    assert all(
        pow(C.b, (C.q - 1) // 2, C.q) != 1 for _ in [0]
    )  # b is a non-residue: no (0, y) point
    assert (C.order_p % 2) == 1
