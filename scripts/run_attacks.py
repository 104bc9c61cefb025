#!/usr/bin/env python3
"""Demonstrate every attack in one run, against freshly generated images.

Covers: known-plaintext recovery of the Hill key, masked brute force of
the Hill key, the checkerboard ambiguity, 256-key exhaustion of the weak
cipher, keyless 75% recovery, the duplicate-block leak, and the fixed-
point census.
"""

import sys
import time

import numpy as np

from cipher_autopsy import attacks, dwc, ecchc, ecgroup, imagekit


def banner(title):
    print("\n== " + title + " " + "=" * max(0, 60 - len(title)))


def main() -> int:
    hill = ecchc.expand_key(ecgroup.agree(2024)[3])
    print(f"agreed Hill key (hex): {hill.key_hex}")

    photo = imagekit.gen_photo(3)
    board = imagekit.gen_checkerboard()
    drawing = imagekit.gen_drawing(3)

    banner("known-plaintext attack on the Hill layer")
    rng = np.random.default_rng(99)
    plains = np.array([rng.integers(0, 256, 4) for _ in range(10)], dtype=np.uint8)
    ciphers = ecchc.hill_apply(plains, hill.k)
    samples = [attacks.KpaSample(tuple(p), tuple(c)) for p, c in zip(plains.tolist(), ciphers.tolist())]
    outcome = attacks.kpa_recover_hill_key(samples)
    print(f"10 block pairs -> {outcome.status.value}, key {outcome.recovered_key} "
          f"(truth {hill.key_hex}), {outcome.elapsed_s * 1000:.2f} ms")

    banner("masked brute force of the Hill key (2^16 candidates)")
    enc = ecchc.ecchc_encrypt(photo, hill)
    outcome = attacks.brute_force_hill(photo, enc, attacks.KeyMask.parse(hill.key_hex[:4] + "????"))
    print(f"mask {hill.key_hex[:4]}???? -> {outcome.status.value}, key {outcome.recovered_key}, "
          f"{outcome.candidates_tested} candidates, {outcome.elapsed_s * 1000:.1f} ms")

    banner("checkerboard: every key matches (fixed points)")
    outcome = attacks.brute_force_hill(board, board, attacks.KeyMask.parse("00??00??"))
    print(f"plain == cipher == checkerboard -> {outcome.status.value} after "
          f"{outcome.candidates_tested} candidates")

    banner("weak cipher: 256-key exhaustion")
    key = 0xD4
    cipher = dwc.dwc_encrypt(photo, key)
    t0 = time.perf_counter()
    ranking = attacks.brute_force_dwc(cipher)
    print(f"best key {ranking[0][0]:#04x} (truth {key:#04x}), 256 keys in "
          f"{(time.perf_counter() - t0) * 1000:.1f} ms")

    banner("weak cipher: keyless 75% recovery")
    recovered, mask_arr = attacks.dwc_partial_recover(cipher)
    pb, rb = imagekit.blocks_of(photo), imagekit.blocks_of(recovered)
    exact = np.count_nonzero(pb == rb) / pb.size
    print(f"bytes recovered exactly without the key: {100 * exact:.1f}% "
          f"(mask says {100 * mask_arr.sum() / mask_arr.size:.1f}%)")

    banner("codebook-mode leak: duplicate blocks")
    for name, img in (("checkerboard", board), ("drawing", drawing)):
        hist = attacks.ecb_repeat_detector(ecchc.ecchc_encrypt(img, hill))
        print(f"ecchc({name}): {hist.distinct_blocks} distinct blocks of "
              f"{hist.total_blocks}, largest class {hist.largest_class_size}")
    hist = attacks.ecb_repeat_detector(dwc.dwc_encrypt(board, key))
    print(f"dwc(checkerboard): {hist.distinct_blocks} distinct blocks of {hist.total_blocks}")

    banner("fixed-point census of the agreed key")
    census = attacks.fixed_point_census(hill, sample_count=100_000, seed=5)
    print(f"diagonal blocks fixed: {census.diagonal_fixed}/256; random sample "
          f"{census.sampled_tested} -> {len(census.sampled_fixed)} extra fixed points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
