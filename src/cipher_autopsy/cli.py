"""Command-line front end.

Subcommands: keygen, encrypt, decrypt, metrics, report, gen, attack.
Every command is deterministic given its flags and seed.  Failures emit a
one-line JSON object on stderr and exit with a command-specific code:

    2  usage errors (argparse, out-of-range option values)
    3  file / image format errors
    4  key or mask parse errors
    5  attack failures (no key found, refused search)
    6  degenerate elliptic-curve outcomes

The optional photo fixtures directory (lena.pgm and friends) is taken
from the CIPHER_AUTOPSY_FIXTURES environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import algebra, attacks, dwc, ecchc, ecgroup, imagekit, metrics

FIXTURES_ENV = "CIPHER_AUTOPSY_FIXTURES"

EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_KEY = 4
EXIT_ATTACK = 5
EXIT_CURVE = 6

MAX_SAMPLES = 1 << 20  # fixed-points holds 32 B per sample (4 int64s) while drawing


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_image(path) -> imagekit.GrayImage:
    try:
        return imagekit.load_pgm(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_FILE)
    except imagekit.PgmError as exc:
        raise CliError(f"{path}: {exc}", EXIT_FILE)


def _save_image(img: imagekit.GrayImage, path) -> None:
    try:
        imagekit.save_pgm(img, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_FILE)


def _parse_hill_key(text: str) -> ecchc.HillKey:
    try:
        return ecchc.HillKey.from_hex(text)
    except ValueError as exc:
        raise CliError(f"bad hill key: {exc}", EXIT_KEY)


def _parse_dwc_key(text: str) -> int:
    text = text.strip().lower()
    try:
        value = int(text, 16)
    except ValueError:
        raise CliError(f"bad dwc key {text!r}: want 2 hex digits", EXIT_KEY)
    if len(text) != 2 or not 0 <= value <= 255:
        raise CliError(f"bad dwc key {text!r}: want 2 hex digits", EXIT_KEY)
    return value


def _emit(obj, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj, indent=2))
            fh.write("\n")
    else:
        print(obj if isinstance(obj, str) else json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    curve = ecgroup.DEFAULT_CURVE
    try:
        alice = ecgroup.keygen(curve, args.seed)
        bob = ecgroup.keygen(curve, args.seed + 1)
        k_ab = ecgroup.shared_point(alice.private_n, bob.public_p, curve)
        k_ba = ecgroup.shared_point(bob.private_n, alice.public_p, curve)
        k_a = ecgroup.derive_hill_key(k_ab, curve)
        k_b = ecgroup.derive_hill_key(k_ba, curve)
    except (
        ecgroup.DegenerateSharedPointError,
        ecgroup.DegenerateDerivedPointError,
    ) as exc:
        raise CliError(str(exc), EXIT_CURVE)
    if k_ab != k_ba or k_a != k_b:
        raise CliError("two-party agreement mismatch", EXIT_CURVE)
    key = ecchc.expand_key(k_a)
    self_inverse = algebra.mat4_mul_mod256(key.km, key.km) == algebra.MAT4_IDENTITY
    _emit(
        {
            "curve": {
                "q": curve.q,
                "a": curve.a,
                "b": curve.b,
                "g": [curve.gx, curve.gy],
                "order": curve.order_p,
            },
            "alice": {"private": alice.private_n, "public": [alice.public_p.x, alice.public_p.y]},
            "bob": {"private": bob.private_n, "public": [bob.public_p.x, bob.public_p.y]},
            "shared_point": [k_ab.x, k_ab.y],
            "k": [list(row) for row in key.k],
            "km": [list(row) for row in key.km],
            "key_hex": key.key_hex,
            "km_self_inverse": self_inverse,
        },
        args,
    )
    return 0


def _cipher_apply(args, forward: bool) -> int:
    img = _load_image(getattr(args, "in"))
    if args.alg == "ecchc":
        key = _parse_hill_key(args.key)
        fn = ecchc.ecchc_encrypt if forward else ecchc.ecchc_decrypt
    else:
        key = _parse_dwc_key(args.key)
        fn = dwc.dwc_encrypt if forward else dwc.dwc_decrypt
    _save_image(fn(img, key), args.out)
    return 0


def cmd_encrypt(args) -> int:
    return _cipher_apply(args, forward=True)


def cmd_decrypt(args) -> int:
    return _cipher_apply(args, forward=False)


def cmd_metrics(args) -> int:
    plain = _load_image(getattr(args, "in"))
    enc = _load_image(args.enc)
    report = metrics.evaluate_pair(plain, enc)
    row = {"algorithm": args.alg or "-", "image": args.image or "-"}
    row.update(report.to_json_dict())
    if args.format == "csv":
        _emit(_csv_table([row]), args)
    else:
        _emit(row, args)
    return 0


def _csv_table(rows) -> str:
    header = "algorithm,image,entropy,psnr,uaci_percent"
    lines = [header]
    for r in rows:
        lines.append(
            "{algorithm},{image},{entropy:.4f},{psnr},{uaci:.4f}".format(
                algorithm=r["algorithm"],
                image=r["image"],
                entropy=r["entropy"],
                psnr="inf" if r["psnr"] == "inf" else f"{r['psnr']:.4f}",
                uaci=r["uaci_percent"],
            )
        )
    return "\n".join(lines)


def _report_images(seed: int):
    """The generated sample set, plus any photo fixtures on disk."""
    named = [
        ("checkerboard", imagekit.gen_checkerboard()),
        ("drawing", imagekit.gen_drawing(seed)),
        ("photo", imagekit.gen_photo(seed)),
    ]
    fixtures = os.environ.get(FIXTURES_ENV)
    if fixtures and os.path.isdir(fixtures):
        for name in sorted(os.listdir(fixtures)):
            if name.lower().endswith(".pgm"):
                try:
                    img = imagekit.load_pgm(os.path.join(fixtures, name))
                except (OSError, imagekit.PgmError):
                    print(
                        json.dumps({"warning": f"skipping fixture {name}"}),
                        file=sys.stderr,
                    )
                    continue
                named.append((os.path.splitext(name)[0], img))
    return named


def cmd_report(args) -> int:
    curve = ecgroup.DEFAULT_CURVE
    alice = ecgroup.keygen(curve, args.seed)
    bob = ecgroup.keygen(curve, args.seed + 1)
    k_i = ecgroup.shared_point(alice.private_n, bob.public_p, curve)
    hill = ecchc.expand_key(ecgroup.derive_hill_key(k_i, curve))
    dwc_key = ecgroup.splitmix64(args.seed) & 0xFF
    rows = []
    for image_name, img in _report_images(args.seed):
        for alg in ("ecchc", "dwc"):
            if alg == "ecchc":
                if img.width % 2 or img.height % 2 or img.size % 4:
                    print(
                        json.dumps(
                            {"warning": f"{image_name}: skipped for ecchc (odd dimensions)"}
                        ),
                        file=sys.stderr,
                    )
                    continue
                enc = ecchc.ecchc_encrypt(img, hill)
            else:
                if img.size % 4:
                    continue
                enc = dwc.dwc_encrypt(img, dwc_key)
            report = metrics.evaluate_pair(img, enc)
            row = {"algorithm": alg, "image": image_name}
            row.update(report.to_json_dict())
            rows.append(row)
    rows.sort(key=lambda r: (r["algorithm"], r["image"]))
    if args.format == "csv":
        _emit(_csv_table(rows), args)
    else:
        _emit(rows, args)
    return 0


def cmd_gen(args) -> int:
    try:
        if args.kind == "checkerboard":
            img = imagekit.gen_checkerboard(cell=args.cell)
        elif args.kind == "drawing":
            img = imagekit.gen_drawing(args.seed)
        elif args.kind == "noise":
            img = imagekit.gen_noise(args.seed)
        elif args.kind == "constant":
            img = imagekit.gen_constant(args.value)
        else:
            img = imagekit.gen_photo(args.seed)
    except (imagekit.BadCellSizeError, ValueError) as exc:
        raise CliError(str(exc), EXIT_FILE)
    _save_image(img, args.out)
    return 0


def _read_kpa_samples(path) -> list[attacks.KpaSample]:
    """One pair per line: 16 hex digits, plaintext block then ciphertext."""
    samples = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if len(line) != 16:
                    raise CliError(
                        f"{path}:{lineno}: want 16 hex digits per pair", EXIT_FILE
                    )
                try:
                    raw = bytes.fromhex(line)
                except ValueError:
                    raise CliError(f"{path}:{lineno}: bad hex", EXIT_FILE)
                samples.append(
                    attacks.KpaSample(
                        plaintext=tuple(raw[:4]), ciphertext=tuple(raw[4:])
                    )
                )
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_FILE)
    if not samples:
        raise CliError(f"{path}: no sample pairs", EXIT_FILE)
    return samples


def _require_arg(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise CliError(f"attack {args.attack} needs {flag}", EXIT_FILE)
    return value


def cmd_attack(args) -> int:
    if args.attack == "kpa":
        outcome = attacks.kpa_recover_hill_key(
            _read_kpa_samples(_require_arg(args, "in", "--in"))
        )
        _emit(outcome.to_json_dict(), args)
        return 0 if outcome.status is attacks.AttackStatus.UNIQUE else EXIT_ATTACK

    if args.attack == "brute-hill":
        plain = _load_image(_require_arg(args, "in", "--in"))
        cipher = _load_image(_require_arg(args, "enc", "--enc"))
        try:
            mask = attacks.KeyMask.parse(args.mask)
        except ValueError as exc:
            raise CliError(f"bad mask: {exc}", EXIT_KEY)
        outcome = attacks.brute_force_hill(
            plain, cipher, mask, allow_full_search=args.full
        )
        _emit(outcome.to_json_dict(), args)
        return 0

    if args.attack == "brute-dwc":
        cipher = _load_image(_require_arg(args, "enc", "--enc"))
        start = time.perf_counter()
        ranking = attacks.brute_force_dwc(cipher)
        _emit(
            {
                "ranking": [
                    {"key": f"{k:02x}", "score": score} for k, score in ranking
                ],
                "best_key": f"{ranking[0][0]:02x}",
                "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
            },
            args,
        )
        return 0

    if args.attack == "dwc-partial":
        cipher = _load_image(_require_arg(args, "enc", "--enc"))
        start = time.perf_counter()
        recovered, mask = attacks.dwc_partial_recover(cipher)
        if args.out:
            _save_image(recovered, args.out)
        print(
            json.dumps(
                {
                    "recovered_bytes_percent": round(
                        100.0 * float(np.count_nonzero(mask)) / mask.size, 2
                    ),
                    "recovered_mask_rle": attacks.rle_mask(mask),
                    "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
                }
            )
        )
        return 0

    if args.attack == "ecb-scan":
        cipher = _load_image(_require_arg(args, "enc", "--enc"))
        _emit(attacks.ecb_repeat_detector(cipher).to_json_dict(), args)
        return 0

    # fixed-points
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise CliError(f"--samples must be in [0, 2^20], got {args.samples}", EXIT_USAGE)
    key = _parse_hill_key(_require_arg(args, "key", "--key"))
    census = attacks.fixed_point_census(key, sample_count=args.samples, seed=args.seed)
    _emit(
        {
            "diagonal_fixed": census.diagonal_fixed,
            "sampled_tested": census.sampled_tested,
            "sampled_fixed": [list(b) for b in census.sampled_fixed],
        },
        args,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cipher-autopsy", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="two-party curve key agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_keygen)

    for name, fn in (("encrypt", cmd_encrypt), ("decrypt", cmd_decrypt)):
        p = sub.add_parser(name, help=f"{name} a PGM image")
        p.add_argument("--alg", choices=("ecchc", "dwc"), required=True)
        p.add_argument("--key", required=True, help="8 hex digits (ecchc) or 2 (dwc)")
        p.add_argument("--in", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("metrics", help="entropy/PSNR/UACI of an image pair")
    p.add_argument("--in", required=True, help="original image")
    p.add_argument("--enc", required=True, help="transformed image")
    p.add_argument("--alg", help="row label")
    p.add_argument("--image", help="row label")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("report", help="metric table across the sample set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("gen", help="write a generated sample image")
    p.add_argument(
        "kind", choices=("checkerboard", "drawing", "noise", "constant", "photo")
    )
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cell", type=int, default=32)
    p.add_argument("--value", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("attack", help="run an attack")
    p.add_argument(
        "attack",
        choices=(
            "kpa",
            "brute-hill",
            "brute-dwc",
            "dwc-partial",
            "ecb-scan",
            "fixed-points",
        ),
    )
    p.add_argument("--in", help="plaintext image / kpa sample file")
    p.add_argument("--enc", help="ciphertext image")
    p.add_argument("--out")
    p.add_argument("--key", help="hill key for fixed-points")
    p.add_argument("--mask", default="????" + "????", help="hill brute-force byte mask")
    p.add_argument("--full", action="store_true", help="allow the 2^32 search")
    p.add_argument("--samples", type=int, default=4096, help="fixed-points probes, 0 to 2^20")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_attack)

    return parser


# Library errors that commands let through, and the exit code of each.
LIBRARY_ERRORS = {
    imagekit.BadDimensionsError: EXIT_FILE,
    metrics.DimensionMismatchError: EXIT_FILE,
    attacks.KeyNotFoundError: EXIT_ATTACK,
    attacks.SearchRefusedError: EXIT_ATTACK,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(LIBRARY_ERRORS) as exc:
        error = CliError(str(exc), LIBRARY_ERRORS[type(exc)])
    except CliError as exc:
        error = exc
    print(
        json.dumps({"error": "CliError", "message": str(error), "code": error.code}),
        file=sys.stderr,
    )
    return error.code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
