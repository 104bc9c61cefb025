import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import block_matrix, solve_rows_mod256

from cipher_autopsy.algebra import (
    GF_INV,
    GF_MUL,
    row_coset,
    two_smallest,
)
from cipher_autopsy.ecchc import hill_apply

byte = st.integers(min_value=0, max_value=255)
block = st.tuples(byte, byte, byte, byte)
mat2 = st.tuples(st.tuples(byte, byte), st.tuples(byte, byte))


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


# --- GF_MUL -----------------------------------------------------------------


def test_gf_mul_identity_and_zero():
    for x in range(256):
        assert GF_MUL[x, 0x01] == x
        assert GF_MUL[x, 0x00] == 0x00


def test_gf_mul_known_product():
    assert _oracle_mul_wide(0x57, 0x83) == 0xC1
    assert GF_MUL[0x57, 0x83] == 0xC1


def test_gf_mul_exhaustive_against_log_tables():
    for a in range(256):
        for b in range(a, 256):
            expected = _oracle_mul_log(a, b)
            assert GF_MUL[a, b] == expected
            assert GF_MUL[b, a] == expected


def test_product_and_inverse_tables_match_scalar_arithmetic():
    # the tables are a log/antilog build; the oracle is the carry-less multiply
    assert GF_MUL.shape == (256, 256) and GF_MUL.dtype == np.uint8
    assert all(GF_MUL[a, b] == _oracle_mul_wide(a, b) for a in range(256) for b in range(256))
    assert GF_INV[0] == 0
    assert all(_oracle_mul_wide(a, int(GF_INV[a])) == 1 for a in range(1, 256))


@settings(max_examples=300)
@given(a=byte, b=byte, c=byte)
def test_gf_field_axioms(a, b, c):
    assert GF_MUL[a, GF_MUL[b, c]] == GF_MUL[GF_MUL[a, b], c]
    assert GF_MUL[a, b ^ c] == GF_MUL[a, b] ^ GF_MUL[a, c]
    assert GF_MUL[a, b] == GF_MUL[b, a]


# --- GF_INV -----------------------------------------------------------------


def test_gf_inv_identity():
    assert GF_INV[0x01] == 0x01


def test_gf_inv_0x53():
    # exhaustive-search oracle
    expected = [b for b in range(256) if _oracle_mul_log(0x53, b) == 1]
    assert expected == [0xCA]
    assert GF_INV[0x53] == 0xCA


def test_gf_inv_exhaustive():
    for a in range(1, 256):
        assert GF_MUL[a, GF_INV[a]] == 1


# --- the Hill layer as a 4x4 matrix-vector product ------------------------------


def _oracle_matvec(m, v):
    # wide-integer dot products, one reduction at the end
    return tuple(sum(c * x for c, x in zip(row, v)) % 256 for row in m)


@settings(max_examples=300)
@given(k=mat2, v=block)
def test_mat4_vec_matches_wide_oracle(k, v):
    # hill_apply's difference form equals the expanded matrix times the block
    got = hill_apply(np.array([v], dtype=np.uint8), k)[0]
    assert tuple(got.tolist()) == _oracle_matvec(block_matrix(k), v)


def test_mat4_vec_linearity():
    # the Hill layer is linear over Z/256 for every key
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = tuple(tuple(int(x) for x in row) for row in rng.integers(0, 256, (2, 2)))
        v1, v2 = rng.integers(0, 256, (2, 1, 4), dtype=np.uint8)
        assert np.array_equal(hill_apply(v1 + v2, k), hill_apply(v1, k) + hill_apply(v2, k))


# --- solve_rows_mod256 on (a, b, rhs) equations ----------------------------------


def _solve(equations):
    """Every (k, l) with k*a + l*b = rhs (mod 256) for each (a, b, rhs)."""
    return [tuple(pair) for pair in solve_rows_mod256(*zip(*equations)).tolist()]


def test_solver_identity_system():
    assert _solve([(1, 0, 123), (0, 1, 45)]) == [(123, 45)]


def test_solver_all_even_determinants():
    assert len(_solve([(2, 0, 10), (0, 2, 12)])) >= 2


def test_solver_all_even_determinants_can_be_inconsistent():
    # 2k = 1 has no solution mod 256, however many pairs the rows allow
    assert _solve([(2, 0, 1), (0, 2, 0)]) == []


def test_solver_inconsistent():
    # same left-hand side, different right-hand side, plus a pivot pair
    assert _solve([(1, 0, 1), (0, 1, 2), (1, 0, 3)]) == []


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
        assert _solve(eqs) == [(k, l)]
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
    assert _solve(eqs) == [(k, l)]


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
        assert coset is None and two_smallest(coset) == []
        return
    vx, _, _, vy, _ = coset
    assert 2 ** (vx + vy) == len(expected)
    assert two_smallest(coset) == [tuple(pair) for pair in expected[:2].tolist()]
