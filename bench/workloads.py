"""The three benchmark workloads: their inputs, their ops and their checks.

Each workload is a fixed pool of inputs whose expected outputs are committed
in goldens.json.  The workload seed picks which pool items one run uses and
in what order; the program only ever sees the generated inputs.

Set-up is split in two so that the measuring process never holds set-up
memory: ``prepare`` generates the inputs and writes them into a scratch
directory (run.py calls it in a fresh interpreter), and ``load`` reads them
back into the measuring process.

Run as a script, ``python3 bench/workloads.py prepare <workload> <seed>
<dir>`` writes the inputs of one run into <dir> and prints the seconds the
program took: its import plus the generation of the inputs.  The interpreter
start and the numpy import are left out, since they are not the program's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# The benchmark measures the package in this checkout, never an installed copy.
sys.path.insert(0, str(SRC))
_import_start = time.perf_counter()
import cipher_autopsy  # noqa: E402

if Path(cipher_autopsy.__file__).resolve().parent != (SRC / "cipher_autopsy").resolve():
    raise ImportError(f"cipher_autopsy imported from outside {SRC}")

from cipher_autopsy import attacks, cli, dwc, ecchc, ecgroup, imagekit  # noqa: E402

# Seconds this process spent importing the program; part of set-up time.
IMPORT_S = time.perf_counter() - _import_start

# The report command adds fixture photographs from this variable's directory;
# the benchmark runs without them, so the report output is a pure function
# of its seed.
FIXTURES_ENV = cli.FIXTURES_ENV


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``cipher-autopsy`` call; returns exit code and stdout.

    argparse reports a usage error by raising SystemExit; that becomes the
    exit code, as it would for the installed command.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


class Workload:
    """One workload: a pool of items, of which a run cycles through some.

    ``call`` is the timed op; ``observe`` turns its result into the
    JSON-shaped output that goldens.json records under ``key(item)``.
    """

    name = ""

    def items_for(self, seed: int) -> list:
        raise NotImplementedError

    def all_items(self) -> list:
        raise NotImplementedError

    def key(self, item) -> str:
        raise NotImplementedError

    def prepare(self, items: list, workdir: Path) -> None:
        """Write the inputs of ``items`` into ``workdir``."""

    def load(self, items: list, workdir: Path) -> None:
        """Read the inputs of ``items`` back into this process."""

    def call(self, item):
        raise NotImplementedError

    def observe(self, item, raw):
        return raw


# ---------------------------------------------------------------------------
# bulk-cipher: the large-image CLI round trip.
# ---------------------------------------------------------------------------


class BulkCipher(Workload):
    """encrypt -> decrypt -> metrics through ``cli.main`` on a 2048x2048 PGM.

    An item is (variant, kind, alg).  A run uses one variant (seed % 16):
    three images, photo, drawing and noise, cycled against ecchc and dwc.
    """

    name = "bulk-cipher"
    SIDE = 2048
    VARIANTS = 16
    KINDS = ("photo", "drawing", "noise")
    KEYS = (("ecchc", "1a2b3c4d"), ("dwc", "d4"))
    GENERATORS = {
        "photo": imagekit.gen_photo,
        "drawing": imagekit.gen_drawing,
        "noise": imagekit.gen_noise,
    }

    def items_for(self, seed):
        variant = seed % self.VARIANTS
        # 6 ops: every kind meets every algorithm once.
        return [(variant, self.KINDS[i % 3], self.KEYS[i % 2][0]) for i in range(6)]

    def all_items(self):
        return [
            (v, kind, alg)
            for v in range(self.VARIANTS)
            for kind in self.KINDS
            for alg, _ in self.KEYS
        ]

    def key(self, item):
        return "v{}/{}/{}".format(*item)

    @staticmethod
    def _input_path(workdir, variant, kind):
        return Path(workdir) / f"v{variant}-{kind}.pgm"

    def prepare(self, items, workdir):
        for variant, kind in sorted({(v, k) for v, k, _ in items}):
            img = self.GENERATORS[kind](variant, self.SIDE, self.SIDE)
            imagekit.save_pgm(img, self._input_path(workdir, variant, kind))

    def load(self, items, workdir):
        self.workdir = Path(workdir)
        self.inputs = {}
        for variant, kind in {(v, k) for v, k, _ in items}:
            path = self._input_path(workdir, variant, kind)
            self.inputs[(variant, kind)] = (str(path), path.read_bytes())
        self.cipher_path = str(self.workdir / "cipher.pgm")
        self.plain_path = str(self.workdir / "decrypted.pgm")

    def call(self, item):
        variant, kind, alg = item
        key = dict(self.KEYS)[alg]
        src = self.inputs[(variant, kind)][0]
        codes = []
        for verb, inp, out in (
            ("encrypt", src, self.cipher_path),
            ("decrypt", self.cipher_path, self.plain_path),
        ):
            code, _ = run_cli([verb, "--alg", alg, "--key", key, "--in", inp, "--out", out])
            codes.append(code)
        code, stdout = run_cli(
            ["metrics", "--in", src, "--enc", self.cipher_path, "--alg", alg, "--image", kind]
        )
        codes.append(code)
        return codes, stdout

    def observe(self, item, raw):
        codes, stdout = raw
        original = self.inputs[item[:2]][1]
        return {
            "exit_codes": codes,
            "cipher_sha256": sha256(Path(self.cipher_path).read_bytes()),
            "roundtrip_identical": Path(self.plain_path).read_bytes() == original,
            "metrics_stdout": stdout,
        }


# ---------------------------------------------------------------------------
# key-search: the attack gallery.
# ---------------------------------------------------------------------------


class Gallery:
    """The inputs of one attack-gallery op, all derived from one seed."""

    ARRAYS = ("photo", "enc_photo", "board", "small", "enc_small", "const", "noise", "dwc_enc", "ecb_enc")

    def __init__(self, arrays: dict, key_hex: str, dwc_key: int):
        for name in self.ARRAYS:
            setattr(self, name, imagekit.GrayImage(arrays[name]))
        self.key_hex = key_hex
        self.dwc_key = dwc_key
        self.hill = ecchc.HillKey.from_hex(key_hex)
        self.mask16 = attacks.KeyMask.parse(key_hex[:4] + "????")
        self.mask24 = attacks.KeyMask.parse(key_hex[:2] + "??????")
        self.mask_board = attacks.KeyMask.parse(key_hex[:2] + "??" + key_hex[4:6] + "??")
        self.mask8 = attacks.KeyMask.parse(key_hex[:6] + "??")
        self.kpa_samples = [
            attacks.KpaSample(tuple(int(v) for v in p), tuple(int(v) for v in c))
            for p, c in zip(imagekit.blocks_of(self.small), imagekit.blocks_of(self.enc_small))
        ]

    @staticmethod
    def generate(g: int) -> tuple[dict, str, int]:
        """Arrays, Hill key and dwc key of gallery ``g``, as the attack demo
        script derives them: a two-party curve agreement seeded by g."""
        curve = ecgroup.DEFAULT_CURVE
        alice = ecgroup.keygen(curve, g)
        bob = ecgroup.keygen(curve, g + 1)
        shared = ecgroup.shared_point(alice.private_n, bob.public_p, curve)
        hill = ecchc.expand_key(ecgroup.derive_hill_key(shared, curve))
        dwc_key = ecgroup.splitmix64(g) & 0xFF
        photo = imagekit.gen_photo(g)
        small = imagekit.gen_drawing(g, 64, 64)
        images = {
            "photo": photo,
            "enc_photo": ecchc.ecchc_encrypt(photo, hill),
            "board": imagekit.gen_checkerboard(),
            "small": small,
            "enc_small": ecchc.ecchc_encrypt(small, hill),
            # A constant image is a fixed point of every key, so no key maps
            # it to noise: the search verifies every candidate and fails.
            "const": imagekit.gen_constant(g % 256, 64, 64),
            "noise": imagekit.gen_noise(g, 64, 64),
            "dwc_enc": dwc.dwc_encrypt(photo, dwc_key),
            "ecb_enc": ecchc.ecchc_encrypt(imagekit.gen_drawing(g), hill),
        }
        return {k: v.pixels for k, v in images.items()}, hill.key_hex, dwc_key


def outcome_fields(outcome: attacks.AttackOutcome) -> dict:
    """Every AttackOutcome field except the wall time."""
    return {
        "status": outcome.status.value,
        "recovered_key": outcome.recovered_key,
        "candidates_tested": outcome.candidates_tested,
    }


class KeySearch(Workload):
    """One op is the attack gallery for one gallery seed, called on the
    ``attacks`` module directly, as scripts/run_attacks.py does.

    An item is a gallery seed from a pool of 256; a run cycles through 16 of
    them, chosen and ordered by the workload seed.
    """

    name = "key-search"
    POOL = 256
    PER_RUN = 16

    def items_for(self, seed):
        return random.Random(seed).sample(range(self.POOL), self.PER_RUN)

    def all_items(self):
        return list(range(self.POOL))

    def key(self, item):
        return f"g{item}"

    def prepare(self, items, workdir):
        arrays, meta = {}, {}
        for g in items:
            pixels, key_hex, dwc_key = Gallery.generate(g)
            arrays.update({f"{g}/{k}": v for k, v in pixels.items()})
            meta[str(g)] = [key_hex, dwc_key]
        np.savez(Path(workdir) / "galleries.npz", **arrays)
        (Path(workdir) / "galleries.json").write_text(json.dumps(meta))

    def load(self, items, workdir):
        meta = json.loads((Path(workdir) / "galleries.json").read_text())
        with np.load(Path(workdir) / "galleries.npz") as npz:
            self.galleries = {
                g: Gallery({k: npz[f"{g}/{k}"] for k in Gallery.ARRAYS}, *meta[str(g)])
                for g in items
            }

    def call(self, item):
        g = self.galleries[item]
        raw = {
            "hill_2^16": attacks.brute_force_hill(g.photo, g.enc_photo, g.mask16),
            "hill_2^24": attacks.brute_force_hill(g.photo, g.enc_photo, g.mask24),
            "hill_checkerboard": attacks.brute_force_hill(g.board, g.board, g.mask_board),
        }
        try:
            attacks.brute_force_hill(g.const, g.noise, g.mask8)
            raw["hill_no_match"] = None
        except attacks.KeyNotFoundError as exc:
            raw["hill_no_match"] = exc
        raw["kpa"] = attacks.kpa_recover_hill_key(g.kpa_samples)
        raw["brute_dwc"] = attacks.brute_force_dwc(g.dwc_enc)
        raw["dwc_partial"] = attacks.dwc_partial_recover(g.dwc_enc)
        raw["ecb"] = attacks.ecb_repeat_detector(g.ecb_enc)
        raw["fixed_points"] = attacks.fixed_point_census(g.hill, 100_000, seed=item)
        return raw

    def observe(self, item, raw):
        no_match = raw["hill_no_match"]
        recovered, mask = raw["dwc_partial"]
        census = raw["fixed_points"]
        return {
            **{k: outcome_fields(raw[k]) for k in ("hill_2^16", "hill_2^24", "hill_checkerboard", "kpa")},
            "hill_no_match": None
            if no_match is None
            else {"error": type(no_match).__name__, "candidates_tested": no_match.candidates_tested},
            "brute_dwc_top_key": raw["brute_dwc"][0][0],
            "dwc_partial_sha256": sha256(recovered.tobytes()),
            "dwc_partial_exact_pixels": int(np.count_nonzero(mask)),
            "ecb": raw["ecb"].to_json_dict(),
            "fixed_points": {
                "diagonal_fixed": census.diagonal_fixed,
                "sampled_tested": census.sampled_tested,
                "sampled_fixed": len(census.sampled_fixed),
            },
        }


# ---------------------------------------------------------------------------
# report-sweep: the paper's table.
# ---------------------------------------------------------------------------


class ReportSweep(Workload):
    """``cli.main(["report", "--seed", s, "--format", fmt])``, stdout checked.

    An item is (report seed, format) over report seeds 0..63.  A run cycles
    through all 64 report seeds, in an order set by the workload seed, with
    csv and json alternating; which format a report seed gets therefore also
    depends on the workload seed.
    """

    name = "report-sweep"
    SEEDS = 64
    FORMATS = ("csv", "json")

    def items_for(self, seed):
        order = random.Random(seed).sample(range(self.SEEDS), self.SEEDS)
        return [(s, self.FORMATS[i % 2]) for i, s in enumerate(order)]

    def all_items(self):
        return [(s, fmt) for s in range(self.SEEDS) for fmt in self.FORMATS]

    def key(self, item):
        return "s{}/{}".format(*item)

    def call(self, item):
        seed, fmt = item
        return run_cli(["report", "--seed", str(seed), "--format", fmt])

    def observe(self, item, raw):
        code, stdout = raw
        return {"exit_code": code, "stdout_sha256": sha256(stdout.encode())}


WORKLOADS = {w.name: w for w in (BulkCipher, KeySearch, ReportSweep)}


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] != "prepare" or argv[1] not in WORKLOADS:
        print(f"usage: workloads.py prepare {{{','.join(WORKLOADS)}}} SEED DIR", file=sys.stderr)
        return 2
    workload = WORKLOADS[argv[1]]()
    start = time.perf_counter()
    workload.prepare(workload.items_for(int(argv[2])), Path(argv[3]))
    print(IMPORT_S + time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
