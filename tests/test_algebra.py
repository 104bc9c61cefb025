import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cipher_autopsy.algebra import (
    GF_INV,
    GF_MUL,
    MAT4_IDENTITY,
    InconsistentError,
    UnderdeterminedError,
    ZeroInverseError,
    coset_pairs,
    gf_add,
    gf_inv,
    gf_mul,
    mat4_mul_mod256,
    mat4_vec_mod256,
    mod256_inv,
    row_coset,
    solve_k_rows_mod256,
    solve_rows_mod256,
)

byte = st.integers(min_value=0, max_value=255)
block = st.tuples(byte, byte, byte, byte)
mat4 = st.tuples(*([block] * 4))


# --- independent GF(2^8) oracles -------------------------------------------


def _oracle_mul_wide(a, b):
    # long multiplication collecting all product bits, then a separate
    # reduction pass; no interleaving with the reduction like the
    # implementation does
    prod = 0
    for bit in range(8):
        if (b >> bit) & 1:
            prod ^= a << bit
    for bit in range(14, 7, -1):
        if (prod >> bit) & 1:
            prod ^= 0x11B << (bit - 8)
    return prod


def _build_log_tables():
    # log/antilog tables over the generator 0x03
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _oracle_mul_wide(x, 3)
    for i in range(255, 510):
        exp[i] = exp[i - 255]
    return exp, log


_EXP, _LOG = _build_log_tables()


def _oracle_mul_log(a, b):
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


# --- gf_add -----------------------------------------------------------------


def test_gf_add_examples():
    assert gf_add(0x00, 0x00) == 0x00
    assert gf_add(0xAB, 0xAB) == 0x00
    assert gf_add(0x57, 0x83) == 0xD4


# --- gf_mul -----------------------------------------------------------------


def test_gf_mul_identity_and_zero():
    for x in range(256):
        assert gf_mul(x, 0x01) == x
        assert gf_mul(x, 0x00) == 0x00


def test_gf_mul_known_product():
    assert _oracle_mul_wide(0x57, 0x83) == 0xC1
    assert gf_mul(0x57, 0x83) == 0xC1


def test_gf_mul_exhaustive_against_log_tables():
    for a in range(256):
        for b in range(a, 256):
            expected = _oracle_mul_log(a, b)
            assert gf_mul(a, b) == expected
            assert gf_mul(b, a) == expected


def test_product_and_inverse_tables_match_scalar_arithmetic():
    assert GF_MUL.shape == (256, 256) and GF_MUL.dtype == np.uint8
    assert all(GF_MUL[a, b] == gf_mul(a, b) for a in range(256) for b in range(256))
    assert GF_INV[0] == 0
    assert all(GF_INV[a] == gf_inv(a) for a in range(1, 256))


@settings(max_examples=300)
@given(a=byte, b=byte, c=byte)
def test_gf_field_axioms(a, b, c):
    assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
    assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))
    assert gf_mul(a, b) == gf_mul(b, a)


# --- gf_inv -----------------------------------------------------------------


def test_gf_inv_identity():
    assert gf_inv(0x01) == 0x01


def test_gf_inv_zero_rejected():
    with pytest.raises(ZeroInverseError):
        gf_inv(0x00)


def test_gf_inv_0x53():
    # exhaustive-search oracle
    expected = [b for b in range(256) if _oracle_mul_log(0x53, b) == 1]
    assert expected == [0xCA]
    assert gf_inv(0x53) == 0xCA


def test_gf_inv_exhaustive():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1


# --- mod256 units -----------------------------------------------------------


def test_mod256_units_are_exactly_odd_bytes():
    for a in range(256):
        if a % 2:
            assert (a * mod256_inv(a)) % 256 == 1
        else:
            with pytest.raises(ZeroInverseError):
                mod256_inv(a)


# --- mat4_vec_mod256 --------------------------------------------------------


def _oracle_matvec(m, v):
    # wide-integer dot products, one reduction at the end
    return tuple(sum(c * x for c, x in zip(row, v)) % 256 for row in m)


@settings(max_examples=200)
@given(v=block)
def test_mat4_identity_and_zero(v):
    zero = tuple((0, 0, 0, 0) for _ in range(4))
    assert mat4_vec_mod256(MAT4_IDENTITY, v) == v
    assert mat4_vec_mod256(zero, v) == (0, 0, 0, 0)


@settings(max_examples=300)
@given(m=mat4, v=block)
def test_mat4_vec_matches_wide_oracle(m, v):
    assert mat4_vec_mod256(m, v) == _oracle_matvec(m, v)


def test_mat4_vec_linearity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        m = tuple(tuple(int(x) for x in row) for row in rng.integers(0, 256, (4, 4)))
        v1 = tuple(int(x) for x in rng.integers(0, 256, 4))
        v2 = tuple(int(x) for x in rng.integers(0, 256, 4))
        vsum = tuple((a + b) % 256 for a, b in zip(v1, v2))
        lhs = mat4_vec_mod256(m, vsum)
        rhs = tuple(
            (a + b) % 256
            for a, b in zip(mat4_vec_mod256(m, v1), mat4_vec_mod256(m, v2))
        )
        assert lhs == rhs


def test_mat4_mul_identity_neutral_and_associative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = tuple(tuple(int(x) for x in row) for row in rng.integers(0, 256, (4, 4)))
        assert mat4_mul_mod256(m, MAT4_IDENTITY) == m
        assert mat4_mul_mod256(MAT4_IDENTITY, m) == m
    for _ in range(50):
        a, b, c = (
            tuple(tuple(int(x) for x in row) for row in rng.integers(0, 256, (4, 4)))
            for _ in range(3)
        )
        assert mat4_mul_mod256(a, mat4_mul_mod256(b, c)) == mat4_mul_mod256(
            mat4_mul_mod256(a, b), c
        )


# --- solve_k_rows_mod256 ----------------------------------------------------


def test_solver_identity_system():
    assert solve_k_rows_mod256([(1, 0, 123), (0, 1, 45)]) == (123, 45)


def test_solver_all_even_determinants():
    with pytest.raises(UnderdeterminedError):
        solve_k_rows_mod256([(2, 0, 10), (0, 2, 12)])


def test_solver_all_even_determinants_can_be_inconsistent():
    # 2k = 1 has no solution mod 256, however many pairs the rows allow
    with pytest.raises(InconsistentError):
        solve_k_rows_mod256([(2, 0, 1), (0, 2, 0)])


def test_solver_needs_two_equations():
    with pytest.raises(ValueError):
        solve_k_rows_mod256([(1, 1, 1)])


def test_solver_inconsistent():
    # same left-hand side, different right-hand side, plus a pivot pair
    with pytest.raises(InconsistentError):
        solve_k_rows_mod256([(1, 0, 1), (0, 1, 2), (1, 0, 3)])


def test_solver_recovers_planted_solutions():
    rng = np.random.default_rng(3)
    trials = 0
    while trials < 1000:
        k, l = int(rng.integers(256)), int(rng.integers(256))
        eqs = []
        for _ in range(4):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            eqs.append((a, b, (a * k + b * l) % 256))
        if not any(
            ((eqs[i][0] * eqs[j][1] - eqs[j][0] * eqs[i][1]) % 2)
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            continue  # no odd-determinant pair planted; resample
        assert solve_k_rows_mod256(eqs) == (k, l)
        trials += 1


def test_solver_cross_checked_by_exhaustive_search():
    rng = np.random.default_rng(4)
    k, l = 201, 77
    eqs = []
    for _ in range(3):
        a, b = int(rng.integers(256)), int(rng.integers(256))
        eqs.append((a, b, (a * k + b * l) % 256))
    # exhaustive 2^16 scan over all (k, l), vectorized
    kk, ll = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    ok = np.ones(kk.shape, dtype=bool)
    for a, b, r in eqs:
        ok &= (a * kk + b * ll) % 256 == r
    solutions = list(zip(*np.nonzero(ok)))
    assert solutions == [(k, l)]
    assert solve_k_rows_mod256(eqs) == (k, l)


def _oracle_rows(a, b, t):
    # every (x, y) tried, one wide-integer check per row
    x, y = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    ok = np.ones(x.shape, dtype=bool)
    for ai, bi, ti in zip(a, b, t):
        ok &= (ai * x + bi * y - ti) % 256 == 0
    return np.argwhere(ok)


coef = st.sampled_from((0, 1, 2, 3, 4, 6, 8, 12, 64, 128, 255)) | byte


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(coef, coef), max_size=5),
    planted=st.one_of(st.none(), st.tuples(byte, byte)),
    targets=st.lists(coef, min_size=5, max_size=5),
)
def test_row_solver_matches_exhaustive_search(rows, planted, targets):
    a = [r[0] for r in rows]
    b = [r[1] for r in rows]
    if planted is None:
        t = targets[: len(rows)]
    else:
        t = [(ai * planted[0] + bi * planted[1]) % 256 for ai, bi in rows]
    solutions = solve_rows_mod256(a, b, t)
    assert np.array_equal(solutions, _oracle_rows(a, b, t))
    assert len(solutions) in {0} | {2**k for k in range(17)}


even = st.integers(0, 127).map(lambda v: 2 * v)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(coef, coef), max_size=5) | st.lists(st.tuples(even, even), max_size=5),
    planted=st.one_of(st.none(), st.tuples(byte, byte)),
    targets=st.lists(coef, min_size=5, max_size=5),
)
@example(rows=[], planted=None, targets=[0] * 5)  # every pair fits
@example(rows=[(2, 4), (6, 0)], planted=None, targets=[1] * 5)  # 2x + 4y = 1: none fits
@example(rows=[(0, 0)], planted=None, targets=[3] * 5)  # 0 = 3: none fits
@example(rows=[(2, 0), (0, 2)], planted=(3, 5), targets=[0] * 5)  # 4 pairs fit
@example(rows=[(128, 64), (0, 128)], planted=(255, 1), targets=[0] * 5)
def test_row_coset_count_and_two_smallest_pairs_match_exhaustive_search(rows, planted, targets):
    a = [r[0] for r in rows]
    b = [r[1] for r in rows]
    if planted is None:
        t = targets[: len(rows)]
    else:
        t = [(ai * planted[0] + bi * planted[1]) % 256 for ai, bi in rows]
    expected = _oracle_rows(a, b, t)
    coset = row_coset(*(np.array(col, dtype=np.uint8) for col in (a, b, t)))
    if len(expected) == 0:
        assert coset is None
        return
    vx, _, _, vy, _ = coset
    assert 2 ** (vx + vy) == len(expected)
    assert np.array_equal(coset_pairs(coset, 2)[:2], expected[:2])
