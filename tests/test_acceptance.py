"""Acceptance suite: one test per exit criterion, each printing a PASS
line with the measured numbers (run with -s to see them on success)."""

import math
import os
import time

import numpy as np
from oracles import applied_matrix, encrypt_block, random_key, reference_expectations

from cipher_autopsy import attacks, dwc, ecchc, ecgroup, imagekit, metrics

RNG = np.random.default_rng(0xACCE97)


def test_01_self_invertibility_10k_random_keys():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    kms = np.empty((10_000, 4, 4), dtype=np.int64)
    for i in range(10_000):
        kms[i] = applied_matrix(random_key(rng))
    squares = np.einsum("bij,bjk->bik", kms, kms) % 256
    failures = int(np.count_nonzero(np.any(squares != np.eye(4, dtype=np.int64), axis=(1, 2))))
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 PASS: 10000 keys self-invertible, 0 failures, {elapsed:.3f}s")


def test_02_diagonal_fixed_points_100_keys():
    rng = np.random.default_rng(102)
    diag = np.repeat(np.arange(256, dtype=np.int64)[:, None], 4, axis=1)
    failures = 0
    for _ in range(100):
        km = np.array(applied_matrix(random_key(rng)))
        fixed = np.all((diag @ km.T) % 256 == diag, axis=1)
        failures += int(np.count_nonzero(~fixed))
    assert failures == 0
    print("ACCEPTANCE 02 PASS: all 256 diagonal blocks fixed under 100 random keys")


def test_03_checkerboard_invariance_and_exact_row():
    rng = np.random.default_rng(103)
    board = imagekit.gen_checkerboard()
    for _ in range(100):
        key = random_key(rng)
        assert ecchc.ecchc_encrypt(board, key) == board
    report = metrics.evaluate_pair(board, board)
    row = (
        f"{report.entropy_bits:.4f}",
        "inf" if math.isinf(report.psnr_db) else f"{report.psnr_db:.4f}",
        f"{report.uaci_percent:.4f}",
    )
    assert row == ("1.0000", "inf", "0.0000")
    print(f"ACCEPTANCE 03 PASS: checkerboard invariant, row entropy/psnr/uaci = {row}")


def test_04_statistical_constants():
    black = imagekit.gen_constant(0)
    noise_a = imagekit.gen_noise(1041)
    noise_b = imagekit.gen_noise(1042)
    black_row = metrics.evaluate_pair(black, noise_a)
    noise_row = metrics.evaluate_pair(noise_a, noise_b)
    p_black, u_black = black_row.psnr_db, black_row.uaci_percent
    p_noise, u_noise = noise_row.psnr_db, noise_row.uaci_percent
    assert abs(p_black - 4.7627) <= 0.05
    assert abs(p_noise - 7.7476) <= 0.05
    assert abs(u_black - 50.0) <= 0.5
    assert abs(u_noise - 33.4641) <= 0.5
    refs = reference_expectations()
    assert refs["mse_black_random"] == 21717.5
    assert round(refs["psnr_black_random"], 4) == 4.7627
    assert round(refs["psnr_random_random"], 4) == 7.7476
    assert refs["uaci_black_random"] == 50.0
    assert round(refs["uaci_random_random"], 4) == 33.4641
    print(
        "ACCEPTANCE 04 PASS: psnr %.4f/%.4f uaci %.4f/%.4f; closed forms match to 4 dp"
        % (p_black, p_noise, u_black, u_noise)
    )


def test_05_dwc_checkerboard_row():
    board = imagekit.gen_checkerboard()
    entropies, psnrs, uacis, times = [], [], [], []
    for key in range(32):  # 32 seeds, comfortably over the 10 minimum
        t0 = time.perf_counter()
        enc = dwc.dwc_encrypt(board, key)
        times.append(time.perf_counter() - t0)
        row = metrics.evaluate_pair(board, enc)
        entropies.append(row.entropy_bits)
        psnrs.append(row.psnr_db)
        uacis.append(row.uaci_percent)
    mean_entropy = float(np.mean(entropies))
    mean_psnr = float(np.mean(psnrs))
    mean_uaci = float(np.mean(uacis))
    assert mean_entropy >= 7.99
    assert abs(mean_psnr - 4.7623) <= 0.10
    assert abs(mean_uaci - 50.0049) <= 0.5
    assert max(times) < 1.0
    print(
        "ACCEPTANCE 05 PASS: dwc checkerboard mean entropy %.4f psnr %.4f uaci %.4f, max %.3fs/image"
        % (mean_entropy, mean_psnr, mean_uaci, max(times))
    )


TABLE_DWC_ENTROPY = {"lena": 7.9974, "baboon": 7.9971}
TABLE_DWC_PSNR = {"lena": 9.4180, "baboon": 9.5001}
TABLE_DWC_UACI = {"lena": 28.1236, "baboon": 27.8896}


def test_06_photo_rows():
    curve = ecgroup.DEFAULT_CURVE
    for seed in range(4):
        photo = imagekit.gen_photo(seed)
        k_i = ecgroup.shared_point(
            ecgroup.keygen(curve, seed).private_n,
            ecgroup.keygen(curve, seed + 1).public_p,
            curve,
        )
        hill = ecchc.expand_key(ecgroup.derive_hill_key(k_i, curve))
        for name, enc in (
            ("ecchc", ecchc.ecchc_encrypt(photo, hill)),
            ("dwc", dwc.dwc_encrypt(photo, (53 * seed + 29) % 256)),
        ):
            row = metrics.evaluate_pair(photo, enc)
            ent, u = row.entropy_bits, row.uaci_percent
            assert ent >= 7.98, (name, seed, ent)
            assert abs(u - 28.0) <= 3.0, (name, seed, u)
    lines = ["synthetic photo: both ciphers entropy >= 7.98, uaci in 28 +/- 3"]

    fixtures = os.environ.get("CIPHER_AUTOPSY_FIXTURES")
    if fixtures and os.path.isdir(fixtures):
        for fname in sorted(os.listdir(fixtures)):
            stem = os.path.splitext(fname)[0].lower()
            if not fname.lower().endswith(".pgm"):
                continue
            img = imagekit.load_pgm(os.path.join(fixtures, fname))
            enc = dwc.dwc_encrypt(img, 0x9C)
            row = metrics.evaluate_pair(img, enc)
            ent = row.entropy_bits
            if stem in TABLE_DWC_ENTROPY:
                assert abs(ent - TABLE_DWC_ENTROPY[stem]) <= 0.005, (stem, ent)
                lines.append(
                    "%s: dwc entropy %.4f (ref %.4f), psnr delta %+.3f, uaci delta %+.3f"
                    % (
                        stem,
                        ent,
                        TABLE_DWC_ENTROPY[stem],
                        row.psnr_db - TABLE_DWC_PSNR[stem],
                        row.uaci_percent - TABLE_DWC_UACI[stem],
                    )
                )
            else:
                lines.append("%s: dwc entropy %.4f (no reference row)" % (stem, ent))
    else:
        lines.append("photo fixtures not supplied; synthetic checks only")
    print("ACCEPTANCE 06 PASS: " + "; ".join(lines))


def test_07_drawing_rows():
    rng = np.random.default_rng(107)
    for seed in range(4):
        drawing = imagekit.gen_drawing(seed)
        hill = random_key(rng)
        enc_hill = ecchc.ecchc_encrypt(drawing, hill)
        enc_dwc = dwc.dwc_encrypt(drawing, int(rng.integers(256)))
        ent_hill = metrics.evaluate_pair(drawing, enc_hill).entropy_bits
        ent_dwc = metrics.evaluate_pair(drawing, enc_dwc).entropy_bits
        assert ent_hill < 3.0, (seed, ent_hill)
        assert ent_dwc >= 7.99, (seed, ent_dwc)
    print("ACCEPTANCE 07 PASS: drawing ciphertext entropy hill < 3.0, dwc >= 7.99 (4 seeds)")


def test_08_kpa_bulk_recovery():
    rng = np.random.default_rng(108)
    trial_inputs = []
    for _ in range(1000):
        key = random_key(rng)
        samples = []
        for _ in range(10):
            p = tuple(int(x) for x in rng.integers(0, 256, 4))
            samples.append(attacks.KpaSample(p, encrypt_block(key, p)))
        trial_inputs.append((key, samples))

    start = time.perf_counter()
    outcomes = [attacks.kpa_recover_hill_key(s) for _, s in trial_inputs]
    elapsed = time.perf_counter() - start

    unique = 0
    for (key, samples), outcome in zip(trial_inputs, outcomes):
        if outcome.status is attacks.AttackStatus.UNIQUE:
            unique += 1
            assert outcome.recovered_key == key.key_hex
            recovered = ecchc.HillKey.from_hex(outcome.recovered_key)
            assert all(
                encrypt_block(recovered, s.plaintext) == s.ciphertext
                for s in samples
            )
    assert unique >= 990  # >= 99%
    assert elapsed < 1.0

    for _ in range(100):
        key = random_key(rng)
        p = tuple(int(x) for x in rng.integers(0, 256, 4))
        single = [attacks.KpaSample(p, encrypt_block(key, p))]
        assert attacks.kpa_recover_hill_key(single).status is attacks.AttackStatus.AMBIGUOUS
    print(
        "ACCEPTANCE 08 PASS: %d/1000 unique (ambiguity rate %.2f%%), sound, %.3fs; single samples always ambiguous"
        % (unique, (1000 - unique) / 10.0, elapsed)
    )


def test_09_partial_recovery_100_pairs():
    rng = np.random.default_rng(109)
    pools = (
        [imagekit.gen_photo(s) for s in range(4)]
        + [imagekit.gen_noise(s) for s in range(4)]
        + [imagekit.gen_drawing(s) for s in range(2)]
    )
    for trial in range(100):
        img = pools[trial % len(pools)]
        key = int(rng.integers(256))
        recovered, mask = attacks.dwc_partial_recover(dwc.dwc_encrypt(img, key))
        pb, rb = imagekit.blocks_of(img), imagekit.blocks_of(recovered)
        assert np.array_equal(pb[:, 1:], rb[:, 1:])
        assert np.unique(pb[:, 0] ^ rb[:, 0]).tolist() == [key]
        assert int(mask.sum()) * 4 == img.size * 3
    print("ACCEPTANCE 09 PASS: 100 image/key pairs, 75% of bytes exact, byte 0 off by one constant")


def test_10_dwc_brute_force():
    photo = imagekit.gen_photo(0)
    enc = dwc.dwc_encrypt(photo, 0xB7)
    start = time.perf_counter()
    ranking = attacks.brute_force_dwc(enc)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(ranking) == 256
    assert ranking[0][0] == 0xB7
    for key in (0x00, 0x3A):
        assert attacks.brute_force_dwc(dwc.dwc_encrypt(photo, key))[0][0] == key
    zero = imagekit.gen_constant(0)
    for key in (0x05, 0xF0):
        assert attacks.brute_force_dwc(dwc.dwc_encrypt(zero, key))[0][0] == key
    print(f"ACCEPTANCE 10 PASS: 256 keys ranked in {elapsed:.3f}s, planted key first on photo and all-zero")


def test_11_hill_brute_force_desk_scale():
    rng = np.random.default_rng(111)
    key = ecchc.expand_key(((0x4E, 0x1F), (0x9A, 0x60)))
    img = imagekit.GrayImage(rng.integers(0, 256, (64, 64), dtype=np.uint8))
    enc = ecchc.ecchc_encrypt(img, key)
    start = time.perf_counter()
    outcome = attacks.brute_force_hill(img, enc, attacks.KeyMask.parse("4e??9a??"))
    elapsed = time.perf_counter() - start
    assert outcome.status is attacks.AttackStatus.UNIQUE
    assert outcome.recovered_key == "4e1f9a60"
    assert outcome.candidates_tested == 65536
    assert elapsed < 1.0
    # the full 2^32 search must be asked for explicitly
    try:
        attacks.brute_force_hill(img, enc, attacks.KeyMask.parse("????????"))
        raise AssertionError("full search ran without the explicit flag")
    except ValueError:
        pass
    start = time.perf_counter()
    full = attacks.brute_force_hill(
        img, enc, attacks.KeyMask.parse("????????"), allow_full_search=True
    )
    full_elapsed = time.perf_counter() - start
    assert full.status is attacks.AttackStatus.UNIQUE
    assert full.recovered_key == "4e1f9a60"
    assert full.candidates_tested == 2**32
    assert full_elapsed < 1.0
    print(
        f"ACCEPTANCE 11 PASS: 2^16 mask search in {elapsed:.3f}s; 2^32 search "
        f"gated behind a flag, {full_elapsed:.3f}s with it"
    )


def test_12_ecb_detector():
    rng = np.random.default_rng(112)
    board = imagekit.gen_checkerboard()
    hill_hist = attacks.ecb_repeat_detector(
        ecchc.ecchc_encrypt(board, random_key(rng))
    )
    assert hill_hist.distinct_blocks == 2
    dwc_hist = attacks.ecb_repeat_detector(dwc.dwc_encrypt(board, 0x44))
    assert dwc_hist.total_blocks == 16384
    assert dwc_hist.distinct_blocks >= 16300
    print(
        "ACCEPTANCE 12 PASS: hill checkerboard 2 distinct blocks; dwc %d/16384 distinct"
        % dwc_hist.distinct_blocks
    )


def test_13_end_to_end_key_agreement():
    curve = ecgroup.DEFAULT_CURVE
    failures = 0
    for seed in range(1000):
        a = ecgroup.keygen(curve, 2 * seed)
        b = ecgroup.keygen(curve, 2 * seed + 1)
        k_ab = ecgroup.shared_point(a.private_n, b.public_p, curve)
        k_ba = ecgroup.shared_point(b.private_n, a.public_p, curve)
        if k_ab != k_ba:
            failures += 1
            continue
        if ecgroup.derive_hill_key(k_ab, curve) != ecgroup.derive_hill_key(k_ba, curve):
            failures += 1
    assert failures == 0
    print("ACCEPTANCE 13 PASS: 1000 seeded agreements, shared points and derived keys equal, 0 failures")
