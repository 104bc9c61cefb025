import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import block_matrix, ecb_histogram, encrypt_block, random_key, solve_rows_mod256

from cipher_autopsy import attacks
from cipher_autopsy.attacks import (
    AttackStatus,
    KeyMask,
    KeyNotFoundError,
    KpaSample,
    brute_force_dwc,
    brute_force_hill,
    dwc_partial_recover,
    ecb_repeat_detector,
    fixed_point_census,
    kpa_recover_hill_key,
    smoothness_scores,
)
from cipher_autopsy.dwc import dwc_decrypt, dwc_encrypt
from cipher_autopsy.ecchc import ecchc_encrypt, expand_key, hill_apply
from cipher_autopsy.imagekit import (
    GrayImage,
    blocks_of,
    gen_checkerboard,
    gen_constant,
    gen_drawing,
    gen_noise,
    gen_photo,
    open_pgm,
    save_pgm,
)


def _samples_for(key, rng, count):
    out = []
    for _ in range(count):
        p = tuple(int(x) for x in rng.integers(0, 256, 4))
        out.append(KpaSample(plaintext=p, ciphertext=encrypt_block(key, p)))
    return out


# --- known-plaintext attack -----------------------------------------------------


def test_kpa_recovers_planted_keys():
    # ten random blocks leave the system solvable unless every difference
    # pair shares one parity class (rate about 0.3%)
    rng = np.random.default_rng(50)
    unique = 0
    for _ in range(200):
        key = random_key(rng)
        outcome = kpa_recover_hill_key(_samples_for(key, rng, 10))
        if outcome.status is AttackStatus.UNIQUE:
            unique += 1
            assert outcome.recovered_key == key.key_hex
        else:
            assert outcome.status is AttackStatus.AMBIGUOUS
    assert unique >= 196


def test_kpa_soundness_recovered_key_reencrypts():
    rng = np.random.default_rng(51)
    key = random_key(rng)
    samples = _samples_for(key, rng, 6)
    outcome = kpa_recover_hill_key(samples)
    from cipher_autopsy.ecchc import HillKey

    recovered = HillKey.from_hex(outcome.recovered_key)
    for s in samples:
        assert encrypt_block(recovered, s.plaintext) == s.ciphertext


def test_kpa_fixed_point_samples_are_ambiguous():
    rng = np.random.default_rng(52)
    key = random_key(rng)
    samples = [
        KpaSample((p, p, p, p), encrypt_block(key, (p, p, p, p)))
        for p in (0, 9, 200, 255)
    ]
    assert kpa_recover_hill_key(samples).status is AttackStatus.AMBIGUOUS


def test_kpa_single_sample_is_ambiguous():
    rng = np.random.default_rng(53)
    key = random_key(rng)
    sample = _samples_for(key, rng, 1)
    assert kpa_recover_hill_key(sample).status is AttackStatus.AMBIGUOUS


def test_single_sample_truly_underdetermines_the_key():
    # exhaustive scan: many (k11, k12) rows are consistent with one block
    rng = np.random.default_rng(54)
    key = random_key(rng)
    (sample,) = _samples_for(key, rng, 1)
    p, c = sample.plaintext, sample.ciphertext
    a = (p[0] - p[2]) % 256
    b = (p[1] - p[3]) % 256
    t0 = (c[0] - p[2]) % 256
    kk, ll = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    consistent = np.count_nonzero((a * kk + b * ll) % 256 == t0)
    assert consistent > 1


def test_kpa_inconsistent_samples():
    # two blocks from one key plus one from another: the first pair solves,
    # the third equation contradicts it
    key_a = expand_key(((5, 7), (11, 13)))
    key_b = expand_key(((90, 200), (17, 33)))
    plains = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
    samples = [
        KpaSample(plains[0], encrypt_block(key_a, plains[0])),
        KpaSample(plains[1], encrypt_block(key_a, plains[1])),
        KpaSample(plains[2], encrypt_block(key_b, plains[2])),
    ]
    assert kpa_recover_hill_key(samples).status is AttackStatus.INCONSISTENT


def test_kpa_detects_tampered_redundant_rows():
    # rows 0/1 solve fine (the (1,0),(0,1) pair has determinant 1), but a
    # tampered row 2 cannot come from any key
    key = expand_key(((41, 42), (43, 44)))
    plains = [(1, 0, 0, 0), (0, 1, 0, 0)]
    good = [KpaSample(p, encrypt_block(key, p)) for p in plains]
    c = good[0].ciphertext
    bad = KpaSample(good[0].plaintext, (c[0], c[1], (c[2] + 1) % 256, c[3]))
    outcome = kpa_recover_hill_key([bad, good[1]])
    assert outcome.status is AttackStatus.INCONSISTENT


def test_kpa_single_pair_no_key_fits():
    # c_bot - c_top must equal p_top - p_bot = (1, 0) under every key
    outcome = kpa_recover_hill_key([KpaSample((1, 0, 0, 0), (0, 0, 0, 0))])
    assert outcome.status is AttackStatus.INCONSISTENT


def test_kpa_even_coefficient_with_odd_target_is_inconsistent():
    # both pairs satisfy c_bot - c_top = d, but ask for 2*k11 = 1 and
    # 2*k11 = 3 (mod 256), which no byte solves
    samples = [
        KpaSample((2, 0, 0, 0), (1, 7, 3, 7)),
        KpaSample((2, 0, 0, 0), (3, 7, 5, 7)),
    ]
    assert kpa_recover_hill_key(samples).status is AttackStatus.INCONSISTENT


def test_out_of_range_inputs_are_read_mod_256():
    # values outside 0..255 are reduced mod 256, never cast to uint8 (an
    # out-of-range Python int would raise OverflowError) or rejected
    key = expand_key(((3, 250), (128, 7)))
    samples = [
        KpaSample((-511, -254, 0, 256), (247, -114, 248, -112)),
        KpaSample((-512, -255, 0, 256), (250, -249, 250, -248)),
    ]
    assert [encrypt_block(key, tuple(v % 256 for v in s.plaintext)) for s in samples] == [
        tuple(v % 256 for v in s.ciphertext) for s in samples
    ]
    assert kpa_recover_hill_key(samples).recovered_key == "03fa8007"
    one = [KpaSample((256, -1, 0, 0), (256, -256, -512, -1))]  # (0, 255, 0, 0) under K = 0
    assert kpa_recover_hill_key(one).status is AttackStatus.AMBIGUOUS
    one = [KpaSample((256, -1, 0, 0), (-256, 511, 0, -1))]  # c_bot - c_top != d
    assert kpa_recover_hill_key(one).status is AttackStatus.INCONSISTENT
    rows = solve_rows_mod256([257, -1, 512], [-255, 3, 2], [300, -44, -1024])
    assert rows.tolist() == [[44, 0], [172, 128]]
    assert solve_rows_mod256([257, -256], [-256, -255], [635, -211]).tolist() == [[123, 45]]


def test_kpa_requires_input():
    with pytest.raises(ValueError):
        kpa_recover_hill_key([])


@pytest.mark.parametrize(
    "blocks",
    [[(1, 2, 3)], [(1, 2, 3, 4, 5)], [(1, 2, 3), (1, 2, 3, 4, 5)], [(1, 2, 3, 4, 5), (1, 2, 3)]],
)
@pytest.mark.parametrize("side", ["plaintext", "ciphertext"])
def test_kpa_rejects_blocks_without_four_values(blocks, side):
    # a 3-block and a 5-block hold 8 values between them, as two 4-blocks do
    full = (0, 0, 0, 0)
    samples = [
        KpaSample(b, full) if side == "plaintext" else KpaSample(full, b) for b in blocks
    ]
    with pytest.raises(ValueError):
        kpa_recover_hill_key(samples)


def test_kpa_ambiguous_exactly_when_no_odd_determinant_pair():
    # completeness: the attack fails only when every equation-pair
    # determinant is even, and then the key really is not pinned down
    rng = np.random.default_rng(57)
    ambiguous = 0
    trials = 1000
    for _ in range(trials):
        key = random_key(rng)
        samples = _samples_for(key, rng, 2)
        diffs = [
            ((p[0] - p[2]) % 256, (p[1] - p[3]) % 256)
            for p in (s.plaintext for s in samples)
        ]
        has_odd_pair = any(
            (diffs[i][0] * diffs[j][1] - diffs[j][0] * diffs[i][1]) % 2
            for i in range(len(diffs))
            for j in range(i + 1, len(diffs))
        )
        outcome = kpa_recover_hill_key(samples)
        if has_odd_pair:
            assert outcome.status is AttackStatus.UNIQUE
            assert outcome.recovered_key == key.key_hex
        else:
            assert outcome.status is AttackStatus.AMBIGUOUS
            ambiguous += 1
    # two random blocks are solvable only ~3/8 of the time; ten blocks
    # (the usual attack input) push the failure rate below 1%
    assert 0.5 < ambiguous / trials < 0.75


def _traced_peak(call):
    """Bytes that one warm call of `call` allocates at its peak."""
    call()  # warm
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("board", [False, True])
def test_hill_search_temporaries_are_bounded(board):
    # no int64 copy of the blocks and no 2^16-pair solution set: one 256x256
    # search allocates a few uint8 columns (2,819 KiB when it did both)
    if board:
        plain = cipher = gen_checkerboard()
        mask = KeyMask.parse("01??02??")  # ambiguous: the board fits many keys
    else:
        plain = gen_photo(3)
        cipher = ecchc_encrypt(plain, expand_key(((0x1A, 0x2B), (0x3C, 0x4D))))
        mask = KeyMask.parse("1a2b????")
    assert _traced_peak(lambda: brute_force_hill(plain, cipher, mask)) < 512 * 1024


# --- mask parsing -----------------------------------------------------------------


def test_keymask_parse_format():
    mask = KeyMask.parse("ab??cd??")
    assert mask.values == (0xAB, None, 0xCD, None)
    assert KeyMask.parse(" AB??CD?? ").values == mask.values
    assert mask.unknown_positions == (1, 3)
    assert mask.candidate_count == 65536
    assert KeyMask.parse("????????").candidate_count == 2**32
    with pytest.raises(ValueError):
        KeyMask.parse("ab??cd")
    with pytest.raises(ValueError):
        KeyMask.parse("zz??cd??")


# --- brute force against the Hill layer -------------------------------------------


def test_brute_hill_one_unknown_byte():
    rng = np.random.default_rng(58)
    key = expand_key(((0x0D, 0xC8), (0x5B, 0x04)))
    img = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    enc = ecchc_encrypt(img, key)
    outcome = brute_force_hill(img, enc, KeyMask.parse("0dc85b??"))
    assert outcome.status is AttackStatus.UNIQUE
    assert outcome.recovered_key == "0dc85b04"
    assert outcome.candidates_tested <= 256


def test_brute_hill_two_unknown_bytes():
    rng = np.random.default_rng(59)
    key = expand_key(((0xBE, 0xEF), (0x12, 0x34)))
    img = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
    enc = ecchc_encrypt(img, key)
    outcome = brute_force_hill(img, enc, KeyMask.parse("be??12??"))
    assert outcome.status is AttackStatus.UNIQUE
    assert outcome.recovered_key == "beef1234"
    assert outcome.candidates_tested == 65536  # uniqueness pass scans all


def test_brute_hill_checkerboard_is_ambiguous():
    board = gen_checkerboard()
    outcome = brute_force_hill(board, board, KeyMask.parse("00??00??"))
    assert outcome.status is AttackStatus.AMBIGUOUS
    assert outcome.recovered_key is None
    assert outcome.candidates_tested <= 3  # bails at the second match


def test_brute_hill_not_found():
    rng = np.random.default_rng(60)
    key = expand_key(((1, 2), (3, 4)))
    img = GrayImage(rng.integers(0, 256, (8, 8), dtype=np.uint8))
    enc = ecchc_encrypt(img, key)
    tampered = GrayImage(((enc.pixels.astype(np.int16) + 1) % 256).astype(np.uint8))
    with pytest.raises(KeyNotFoundError):
        brute_force_hill(img, tampered, KeyMask.parse("0102??04"))


def test_brute_hill_refuses_silent_full_search():
    img = gen_constant(0, 4, 4)
    with pytest.raises(ValueError):
        brute_force_hill(img, img, KeyMask.parse("????????"))


# --- brute force against the weak cipher -------------------------------------------


def test_brute_dwc_planted_key_ranks_first_on_photo():
    photo = gen_photo(1)
    for k in (0, 1, 0x42, 0xFE):
        ranking = brute_force_dwc(dwc_encrypt(photo, k))
        assert ranking[0][0] == k


def test_brute_dwc_all_zero_unique_perfect_score():
    zero = gen_constant(0)
    for k in (0x00, 0x10, 0x8C):
        devs = smoothness_scores(dwc_encrypt(zero, k))
        perfect_dev = [key for key, dev in enumerate(devs) if dev == 0]
        assert perfect_dev == [k]  # constancy of byte 0 fires only for k
        ranking = brute_force_dwc(dwc_encrypt(zero, k))
        assert ranking[0][0] == k
        assert ranking[0][1] == 0.0  # perfect smoothness
        assert ranking[1][1] < 0.0


def test_brute_dwc_random_plaintext_gives_flat_scores():
    enc = dwc_encrypt(gen_noise(61), 0x77)
    ranking = brute_force_dwc(enc)
    scores = [score for _, score in ranking]
    # no key stands out on an incompressible plaintext: the spread across
    # all 256 candidates is a few percent of the typical deviation
    assert (max(scores) - min(scores)) / abs(np.mean(scores)) < 0.05


def test_brute_dwc_matches_per_key_median_oracle():
    # the scorer run on each of the 256 candidate plaintexts, best first,
    # reproduces the histogram path's ranking and scores
    cipher = dwc_encrypt(gen_photo(2), 0x21)

    def neg_smoothness_dev(img):
        blocks = blocks_of(img).astype(np.int32)
        med = np.median(blocks[:, 1:4], axis=1).astype(np.int32)
        return -int(np.abs(blocks[:, 0] - med).sum())

    scored = [(k, float(neg_smoothness_dev(dwc_decrypt(cipher, k)))) for k in range(256)]
    scored.sort(key=lambda r: (-r[1], r[0]))
    assert brute_force_dwc(cipher) == scored


TIED_DEVIATIONS = {
    "all equal": [9] * 256,
    "one tied block": [1000 - k if not 100 <= k < 120 else 3 for k in range(256)],
    "descending tied groups": [(255 - k) // 16 for k in range(256)],
}


@pytest.mark.parametrize("dev", TIED_DEVIATIONS.values(), ids=TIED_DEVIATIONS.keys())
def test_brute_dwc_ranks_tied_keys_in_ascending_order(monkeypatch, dev):
    monkeypatch.setattr(attacks, "smoothness_scores", lambda cipher: dev)
    ranking = brute_force_dwc(None)
    assert [k for k, _ in ranking] == sorted(range(256), key=lambda k: (dev[k], k))
    assert all(type(score) is float and score == float(-dev[k]) for k, score in ranking)


@pytest.mark.parametrize("rows", [1, 100, 256])  # 0, 7 and 8 steps
def test_prefix_sums_match_a_wrapping_cumsum(rows):
    rng = np.random.default_rng(rows)
    a = rng.integers(0, 2**32, (rows, 256), dtype=np.uint32)
    a[:, ::3] = rng.integers(2**32 - 1000, 2**32, (rows, 86), dtype=np.uint32)  # wraps often
    expected = np.cumsum(a, axis=0, dtype=np.uint32)
    got = attacks._prefix_sums(a)
    assert got.dtype == np.uint32
    assert np.array_equal(got, expected)
    # an even number of steps ends in the input's buffer, an odd one in the scratch
    assert (got is a) == (rows != 100)


def _oracle_smoothness_scores(cipher):
    # one pass per key over every block, the direct form of the score
    partial = blocks_of(dwc_decrypt(cipher, 0))
    b0 = partial[:, 0]
    med = np.median(partial[:, 1:4], axis=1).astype(np.int32)
    return [int(np.abs((b0 ^ np.uint8(k)).astype(np.int32) - med).sum()) for k in range(256)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(1, 4), (2, 2), (8, 8), (16, 12), (64, 64)]),
    kind=st.sampled_from(["photo", "noise", "constant"]),
    key=st.integers(0, 255),
)
def test_smoothness_scores_match_per_key_oracle(seed, shape, kind, key):
    h, w = shape
    if kind == "photo":
        img = gen_photo(seed % 1000, w, h)
    elif kind == "noise":
        img = gen_noise(seed, w, h)
    else:
        img = gen_constant(seed % 256, w, h)
    cipher = dwc_encrypt(img, key)
    got = smoothness_scores(cipher)
    assert got == _oracle_smoothness_scores(cipher)
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("kind", ["noise", "constant"])
def test_smoothness_scores_large_sums_match_oracle(kind):
    # 2^18 blocks: a key's deviation sum reaches 255 * 2^18, past 2^24
    img = gen_noise(11, 1024, 1024) if kind == "noise" else gen_constant(255, 1024, 1024)
    cipher = dwc_encrypt(img, 0x5A)
    assert smoothness_scores(cipher) == _oracle_smoothness_scores(cipher)


def test_smoothness_scores_temporaries_are_bounded():
    # the 512 KiB histogram, uint32 tables and one uint32 gather; the int64
    # prefix sums took 4,259 KiB
    cipher = dwc_encrypt(gen_photo(3), 0x21)
    assert _traced_peak(lambda: smoothness_scores(cipher)) < 2.5 * 1024 * 1024


# --- keyless partial recovery --------------------------------------------------------


def test_partial_recovery_exactness():
    rng = np.random.default_rng(62)
    for seed in range(10):
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        key = int(rng.integers(256))
        recovered, mask = dwc_partial_recover(dwc_encrypt(img, key))
        pb, rb = blocks_of(img), blocks_of(recovered)
        assert np.array_equal(pb[:, 1:], rb[:, 1:])
        consts = np.unique(pb[:, 0] ^ rb[:, 0])
        assert consts.tolist() == [key]
        assert mask.sum() == img.size * 3 // 4
        assert not mask.reshape(-1, 4)[:, 0].any()


def test_partial_recovery_zero_image():
    key = 0x6E
    recovered, _ = dwc_partial_recover(dwc_encrypt(gen_constant(0), key))
    rb = blocks_of(recovered)
    assert not rb[:, 1:].any()
    assert np.unique(rb[:, 0]).tolist() == [key]


# --- fixed points ----------------------------------------------------------------------


def test_census_diagonal_always_256():
    rng = np.random.default_rng(63)
    for _ in range(10):
        census = fixed_point_census(random_key(rng), sample_count=512, seed=1)
        assert census.diagonal_fixed == 256
        assert census.sampled_tested == 512


def test_census_swap_matrix_fixes_paired_blocks():
    # K = 0 expands to the swap matrix; (a, b, a, b) is fixed for all a, b
    key = expand_key(((0, 0), (0, 0)))
    rng = np.random.default_rng(64)
    for _ in range(200):
        a, b = int(rng.integers(256)), int(rng.integers(256))
        assert encrypt_block(key, (a, b, a, b)) == (a, b, a, b)


def test_census_reports_sampled_hits():
    key = expand_key(((0, 0), (0, 0)))
    census = fixed_point_census(key, sample_count=200_000, seed=2)
    # swap-symmetric blocks occur ~ every 2^16 samples; all hits must verify
    assert census.sampled_fixed
    for blk in census.sampled_fixed:
        assert encrypt_block(key, blk) == blk


@pytest.mark.parametrize("n", [0, 1, 4096, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 7, 100_000, 2**20])
@pytest.mark.parametrize("seed", [0, 5, 2**31, 2**64 - 1])
def test_census_samples_the_integers_stream(monkeypatch, n, seed):
    # with the Hill layer replaced by the identity and the prefilter mask by
    # 0, every block is fixed, so sampled_fixed is the whole sample, in order
    monkeypatch.setattr(attacks, "hill_apply", lambda blocks, k: blocks)
    monkeypatch.setattr(attacks, "_FIXABLE_MASK", 0)
    census = fixed_point_census(expand_key(((1, 2), (3, 4))), sample_count=n, seed=seed)
    oracle = np.random.default_rng(seed).integers(0, 256, (n, 4))
    got = np.fromiter(chain.from_iterable(census.sampled_fixed), np.int64).reshape(-1, 4)
    assert np.array_equal(got, oracle)


def test_census_rejects_a_negative_sample_count_before_any_draw(monkeypatch):
    with pytest.raises(ValueError) as draw:
        np.random.default_rng(0).integers(0, 256, (-5, 4))
    monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
    with pytest.raises(ValueError, match=f"^{draw.value}$"):
        fixed_point_census(expand_key(((1, 2), (3, 4))), sample_count=-5, seed=0)


CENSUS_KEYS = {
    "zero": ((0, 0), (0, 0)),
    "identity mod 2": ((1 + 2 * 37, 2 * 101), (2 * 5, 1 + 2 * 90)),  # every d in {0, 128}^2 fixed
    "random 1": ((3, 200), (77, 14)),
    "random 2": ((0x0D, 0xC8), (0x5B, 0x04)),
    "random 3": ((255, 128), (129, 2)),
}


@pytest.mark.parametrize("n", [0, 1, 4096, 2**20])
@pytest.mark.parametrize("k", CENSUS_KEYS.values(), ids=CENSUS_KEYS.keys())
def test_census_finds_every_sampled_fixed_block_in_order(n, k):
    # the prefiltered census against the 4x4 block matrix on the whole sample
    seed = n + 11
    sample = np.random.default_rng(seed).integers(0, 256, (n, 4))
    fixed = np.all(sample @ np.array(block_matrix(k)).T % 256 == sample, axis=1)
    census = fixed_point_census(expand_key(k), sample_count=n, seed=seed)
    assert census.sampled_fixed == [tuple(row) for row in sample[fixed].tolist()]


@pytest.mark.parametrize("residue", range(16))
def test_a_block_is_fixed_only_when_2d_is_0_and_k_minus_i_kills_d(residue):
    # every d = (d0, d1) as the block (d0, d1, 0, 0), under a key of each
    # residue mod 2 with random even parts
    rng = np.random.default_rng(residue)
    bits = (residue >> np.arange(4)) & 1
    k11, k12, k21, k22 = (int(v) for v in bits + 2 * rng.integers(0, 128, 4))
    k = ((k11, k12), (k21, k22))
    d0, d1 = (v.ravel() for v in np.meshgrid(np.arange(256), np.arange(256), indexing="ij"))
    blocks = np.zeros((65536, 4), dtype=np.uint8)
    blocks[:, 0], blocks[:, 1] = d0, d1
    fixed = np.all(hill_apply(blocks, k) == blocks, axis=1)
    two_d_zero = (d0 % 128 == 0) & (d1 % 128 == 0)
    kernel = ((k11 - 1) * d0 + k12 * d1) % 256 == 0
    kernel &= (k21 * d0 + (k22 - 1) * d1) % 256 == 0
    assert np.array_equal(fixed, two_d_zero & kernel)


# --- duplicate-block detector -----------------------------------------------------------


def test_ecb_detector_checkerboard_two_blocks():
    rng = np.random.default_rng(65)
    enc = ecchc_encrypt(gen_checkerboard(), random_key(rng))
    hist = ecb_repeat_detector(enc)
    assert hist.total_blocks == 16384
    assert hist.distinct_blocks == 2
    assert hist.largest_class_size == 8192


def test_ecb_detector_drawing_background_class():
    rng = np.random.default_rng(66)
    drawing = gen_drawing(5)
    plain_hist = ecb_repeat_detector(drawing)
    enc = ecchc_encrypt(drawing, random_key(rng))
    enc_hist = ecb_repeat_detector(enc)
    # bijective per-block map: the class-size multiset is preserved, so the
    # dominant background class survives encryption at full size
    assert enc_hist.largest_class_size == plain_hist.largest_class_size
    assert plain_hist.largest_class_block == (255, 255, 255, 255)
    assert enc_hist.largest_class_block == (255, 255, 255, 255)  # fixed point


def test_ecb_detector_dwc_checkerboard_all_distinct():
    # birthday estimate: 16384 draws from 2^32 collide ~ C(n,2)/2^32 = 0.03
    # times per image; the counter construction actually forbids collisions
    # here entirely
    enc = dwc_encrypt(gen_checkerboard(), 0x99)
    hist = ecb_repeat_detector(enc)
    assert hist.distinct_blocks >= 16300
    assert hist.distinct_blocks == 16384


@st.composite
def _block_words(draw):
    """Block words in a few classes of drawn sizes, shuffled: sorted, their
    runs cross the edges of a small walk chunk, and classes often tie."""
    classes = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 9), min_size=len(classes), max_size=len(classes)))
    words = np.repeat(np.array(classes, dtype="<u4"), sizes)
    return np.array(draw(st.permutations(words.tolist())), dtype="<u4")


@settings(max_examples=200, deadline=None)
@given(words=_block_words(), tall=st.booleans())
@example(words=np.array([7], dtype="<u4"), tall=False)  # one block
@example(words=np.array([9, 3], dtype="<u4"), tall=True)  # two blocks
@example(words=np.array([5] * 15, dtype="<u4"), tall=False)  # all equal
@example(words=np.array([4, 8, 8, 4, 2], dtype="<u4"), tall=True)  # a tie: the smaller word
def test_ecb_detector_walk_of_any_chunk_size_is_the_np_unique_histogram(words, tall):
    pixels = words.view(np.uint8).reshape(-1, 4) if tall else words.view(np.uint8).reshape(1, -1)
    img = GrayImage(pixels)
    expected = ecb_histogram(img)
    for chunk in (1, 2, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attacks, "MAP_CHUNK", chunk)
            assert ecb_repeat_detector(img) == expected, chunk


def test_ecb_detector_of_a_pgm_file_is_the_histogram_of_its_image(tmp_path, monkeypatch):
    # 1,000 blocks read 28 pixels at a time into the reused buffer
    monkeypatch.setattr(attacks, "MAP_CHUNK", 7)
    img = GrayImage(np.random.default_rng(68).integers(0, 4, (40, 100), dtype=np.uint8))
    save_pgm(img, tmp_path / "in.pgm")
    with open_pgm(tmp_path / "in.pgm") as src:
        assert ecb_repeat_detector(src) == ecb_histogram(img)


def test_attack_outcome_json_shape():
    rng = np.random.default_rng(67)
    key = random_key(rng)
    outcome = kpa_recover_hill_key(_samples_for(key, rng, 5))
    d = outcome.to_json_dict()
    assert d["status"] == "unique"
    assert d["key"] == key.key_hex
    assert d["candidates_tested"] == 1
    assert d["elapsed_ms"] >= 0
