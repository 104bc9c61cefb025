"""Command-line front end.

Subcommands: keygen, encrypt, decrypt, metrics, report, gen, attack.
Every command is deterministic given its flags and seed.  A failure writes
one JSON line {"error", "message", "code"} on stderr and exits with the
code; main() is the one place a library exception becomes an exit code,
matched along the exception's class hierarchy (EXIT_CODES):

    2  usage: argparse errors, option values the library rejects
       (ValueError, e.g. a negative seed), --samples out of range
    3  files: OSError, UnicodeError, PgmError, BadDimensionsError,
       BadCellSizeError, DimensionMismatchError, missing arguments,
       malformed kpa sample lines
    4  key or mask text that does not parse
    5  attacks: KeyNotFoundError, SearchRefusedError, a kpa verdict
       other than unique
    6  curve degeneracy: DegenerateSharedPointError,
       DegenerateDerivedPointError

The optional photo fixtures directory (lena.pgm and friends) is taken
from the CIPHER_AUTOPSY_FIXTURES environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from itertools import chain

import numpy as np

from . import algebra, attacks, dwc, ecchc, ecgroup, imagekit, metrics

FIXTURES_ENV = "CIPHER_AUTOPSY_FIXTURES"

EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_KEY = 4
EXIT_ATTACK = 5
EXIT_CURVE = 6

MAX_SAMPLES = 1 << 20  # fixed-points draws 2^14 samples at a time; 0.5 MiB traced peak at 2^20
LINE_CAP = 1 << 20  # characters: a kpa file line this long, its break counted, is an error


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _stderr_json(obj) -> None:
    print(json.dumps(obj), file=sys.stderr)


def _report_error(message: str, code: int) -> int:
    _stderr_json({"error": "CliError", "message": message, "code": code})
    return code


def _parse_key(parse, text: str, what: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"bad {what} {text!r}: {exc}", EXIT_KEY)


def _dwc_byte(text: str) -> int:
    return algebra.key_bytes(text, 1, "want 2 hex digits")[0]


def _emit(obj, args) -> None:
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    curve = ecgroup.DEFAULT_CURVE
    alice, bob, k_i, k = ecgroup.agree(args.seed)
    key = ecchc.expand_key(k)
    # The image of the unit block e_j is column j of the block matrix.
    eye = np.eye(4, dtype=np.uint8)
    images = ecchc.hill_apply(eye, key.k)
    self_inverse = np.array_equal(ecchc.hill_apply(images, key.k), eye)
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
            "shared_point": [k_i.x, k_i.y],
            "k": [list(row) for row in key.k],
            "km": images.T.tolist(),
            "key_hex": key.key_hex,
            "km_self_inverse": self_inverse,
        },
        args,
    )
    return 0


def cmd_cipher(args) -> int:
    """Streams the pixels file -> kernel -> file, one chunk at a time, after
    every check on the input, the key and the dimensions has passed."""
    with imagekit.open_pgm(getattr(args, "in")) as src:
        if args.alg == "ecchc":
            key = _parse_key(ecchc.HillKey.from_hex, args.key, "hill key")
            kernel = ecchc.ecchc_kernel
        else:
            key = _parse_key(_dwc_byte, args.key, "dwc key")
            kernel = dwc.dwc_encrypt_kernel if args.forward else dwc.dwc_decrypt_kernel
        chunks = imagekit.map_chunks(src, kernel(src, key))
        imagekit.write_pgm(args.out, src.width, src.height, chunks)
    return 0


def cmd_metrics(args) -> int:
    with imagekit.open_pgm(getattr(args, "in")) as plain, imagekit.open_pgm(args.enc) as enc:
        report = metrics.evaluate_pair(plain, enc)
    row = {"algorithm": args.alg or "-", "image": args.image or "-"}
    row.update(report.to_json_dict())
    if args.format == "csv":
        _emit(_csv_table([row]), args)
    else:
        _emit(row, args)
    return 0


def _csv_label(text: str) -> str:
    """A label as one CSV field: quoted, each '"' doubled, if it holds , " CR or LF."""
    if set(text) & set(',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(rows) -> str:
    header = "algorithm,image,entropy,psnr,uaci_percent"
    lines = [header]
    for r in rows:
        lines.append(
            "{algorithm},{image},{entropy:.4f},{psnr},{uaci:.4f}".format(
                algorithm=_csv_label(r["algorithm"]),
                image=_csv_label(r["image"]),
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
        pgms = [e for e in os.scandir(fixtures) if e.name.lower().endswith(".pgm")]
        for entry in sorted(pgms, key=lambda e: e.name):
            with contextlib.suppress(OSError, imagekit.PgmError):
                if entry.is_file():  # not a FIFO: opening one waits for a writer
                    named.append((os.path.splitext(entry.name)[0], imagekit.load_pgm(entry.path)))
                    continue
            _stderr_json({"warning": f"skipping fixture {entry.name}"})
    return named


def cmd_report(args) -> int:
    hill = ecchc.expand_key(ecgroup.agree(args.seed)[3])
    dwc_key = ecgroup.splitmix64(args.seed) & 0xFF
    ciphers = (("ecchc", ecchc.ecchc_encrypt, hill), ("dwc", dwc.dwc_encrypt, dwc_key))
    rows = []
    for image_name, img in _report_images(args.seed):
        for alg, encrypt, key in ciphers:
            try:
                enc = encrypt(img, key)
            except imagekit.BadDimensionsError as exc:
                _stderr_json({"warning": f"{image_name}: skipped for {alg} ({exc})"})
                continue
            row = {"algorithm": alg, "image": image_name}
            row.update(metrics.evaluate_pair(img, enc).to_json_dict())
            rows.append(row)
    rows.sort(key=lambda r: (r["algorithm"], r["image"]))
    if args.format == "csv":
        _emit(_csv_table(rows), args)
    else:
        _emit(rows, args)
    return 0


def cmd_gen(args) -> int:
    if args.kind == "checkerboard":
        img = imagekit.gen_checkerboard(cell=args.cell)
    elif args.kind == "constant":
        img = imagekit.gen_constant(args.value)
    else:
        img = getattr(imagekit, f"gen_{args.kind}")(args.seed)
    imagekit.save_pgm(img, args.out)
    return 0


def _read_kpa_samples(path) -> list[attacks.KpaSample]:
    """One pair per line: 16 hex digits, plaintext block then ciphertext.

    Bytes that are not UTF-8 are read as escapes, so such a line fails the
    hex check and the error names the file and line.
    """
    samples = []
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(iter(lambda: fh.readline(LINE_CAP), ""), 1):
            if len(line) == LINE_CAP:
                raise CliError(f"{path}:{lineno}: line reaches {LINE_CAP} characters", EXIT_FILE)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                raw = algebra.key_bytes(line, 8, "want 16 hex digits per pair")
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: {exc}", EXIT_FILE) from None
            samples.append(attacks.KpaSample(plaintext=tuple(raw[:4]), ciphertext=tuple(raw[4:])))
    if not samples:
        raise CliError(f"{path}: no sample pairs", EXIT_FILE)
    return samples


def _require_arg(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise CliError(f"attack {args.attack} needs --{name}", EXIT_FILE)
    return value


def cmd_attack(args) -> int:
    if args.attack == "kpa":
        outcome = attacks.kpa_recover_hill_key(_read_kpa_samples(_require_arg(args, "in")))
        _emit(outcome.to_json_dict(), args)
        return 0 if outcome.status is attacks.AttackStatus.UNIQUE else EXIT_ATTACK

    if args.attack == "brute-hill":
        with imagekit.open_pgm(_require_arg(args, "in")) as plain:
            with imagekit.open_pgm(_require_arg(args, "enc")) as cipher:
                mask = _parse_key(attacks.KeyMask.parse, args.mask, "mask")
                outcome = attacks.brute_force_hill(plain, cipher, mask, allow_full_search=args.full)
        _emit(outcome.to_json_dict(), args)
        return 0

    if args.attack == "brute-dwc":
        with imagekit.open_pgm(_require_arg(args, "enc")) as cipher:
            start = time.perf_counter()
            ranking = attacks.brute_force_dwc(cipher)
        _emit(
            {
                "ranking": [{"key": f"{k:02x}", "score": score} for k, score in ranking],
                "best_key": f"{ranking[0][0]:02x}",
                "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
            },
            args,
        )
        return 0

    if args.attack == "dwc-partial":
        with imagekit.open_pgm(_require_arg(args, "enc")) as cipher:
            start = time.perf_counter()
            kernel = dwc.dwc_decrypt_kernel(cipher, 0)  # dwc_partial_recover's image
            if args.out:
                chunks = imagekit.map_chunks(cipher, kernel)
                imagekit.write_pgm(args.out, cipher.width, cipher.height, chunks)
        percent, rle = attacks.dwc_partial_summary(imagekit.block_count(cipher))
        ms = round((time.perf_counter() - start) * 1000.0, 3)
        summary = {"recovered_bytes_percent": percent, "recovered_mask_rle": "", "elapsed_ms": ms}
        # The run-length code runs to megabytes and needs no JSON escaping,
        # so it goes out piece by piece in place of the empty string.
        head, tail = json.dumps(summary).split('""')
        sys.stdout.writelines(chain([head, '"'], rle, ['"', tail, "\n"]))
        return 0

    if args.attack == "ecb-scan":
        cipher = imagekit.load_pgm(_require_arg(args, "enc"))
        _emit(attacks.ecb_repeat_detector(cipher).to_json_dict(), args)
        return 0

    # fixed-points
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise CliError(f"--samples must be in [0, 2^20], got {args.samples}", EXIT_USAGE)
    key = _parse_key(ecchc.HillKey.from_hex, _require_arg(args, "key"), "hill key")
    census = attacks.fixed_point_census(key, sample_count=args.samples, seed=args.seed)
    _emit(dataclasses.asdict(census), args)  # the blocks' tuples print as JSON lists
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one JSON line, then exits 2 as argparse does."""

    def error(self, message):
        raise SystemExit(_report_error(f"{self.prog}: {message}", EXIT_USAGE))


@functools.cache  # one parser per process: parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cipher-autopsy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="two-party curve key agreement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_keygen)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} a PGM image")
        p.add_argument("--alg", choices=("ecchc", "dwc"), required=True)
        p.add_argument("--key", required=True, help="8 hex digits (ecchc) or 2 (dwc)")
        p.add_argument("--in", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=cmd_cipher, forward=name == "encrypt")

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
    attack_names = ("kpa", "brute-hill", "brute-dwc", "dwc-partial", "ecb-scan", "fixed-points")
    p.add_argument("attack", choices=attack_names)
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


# Library exceptions and their exit codes.  main() takes the code of the
# first class in the exception's MRO found here, so FileNotFoundError and
# TruncatedDataError map through OSError and PgmError, and every other
# ValueError is an option value the library rejected.
EXIT_CODES = {
    OSError: EXIT_FILE,
    UnicodeError: EXIT_FILE,
    imagekit.PgmError: EXIT_FILE,
    imagekit.BadDimensionsError: EXIT_FILE,
    imagekit.BadCellSizeError: EXIT_FILE,
    metrics.DimensionMismatchError: EXIT_FILE,
    attacks.KeyNotFoundError: EXIT_ATTACK,
    attacks.SearchRefusedError: EXIT_ATTACK,
    ecgroup.DegenerateSharedPointError: EXIT_CURVE,
    ecgroup.DegenerateDerivedPointError: EXIT_CURVE,
    ValueError: EXIT_USAGE,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        return _report_error(str(exc), exc.code)
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
        return _report_error(str(exc), code)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
