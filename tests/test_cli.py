import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import block_matrix

from cipher_autopsy import cli, ecgroup
from cipher_autopsy.attacks import KeyMask, KeyNotFoundError
from cipher_autopsy.dwc import dwc_encrypt
from cipher_autopsy.ecgroup import DegenerateSharedPointError
from cipher_autopsy.ecchc import HillKey, ecchc_encrypt, expand_key, hill_apply
from cipher_autopsy.imagekit import (
    GrayImage,
    blocks_of,
    gen_checkerboard,
    gen_constant,
    gen_noise,
    gen_photo,
    load_pgm,
    save_pgm,
    PgmError,
)


def run_cli(*argv):
    return cli.main(list(argv))


def run_json(capsys, *argv):
    code = run_cli(*argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- gen ---------------------------------------------------------------------


def test_gen_checkerboard(tmp_path, capsys):
    out = tmp_path / "cb.pgm"
    assert run_cli("gen", "checkerboard", "--out", str(out)) == 0
    assert load_pgm(out) == gen_checkerboard()


def test_gen_bad_cell(tmp_path, capsys):
    out = tmp_path / "cb.pgm"
    code = run_cli("gen", "checkerboard", "--cell", "3", "--out", str(out))
    assert code == cli.EXIT_FILE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError"


@pytest.mark.parametrize("kind", ["drawing", "noise", "constant", "photo"])
def test_gen_kinds(tmp_path, kind):
    out = tmp_path / f"{kind}.pgm"
    assert run_cli("gen", kind, "--seed", "4", "--out", str(out)) == 0
    img = load_pgm(out)
    assert img.width == img.height == 256


# --- encrypt / decrypt ----------------------------------------------------------


@pytest.mark.parametrize(
    "alg,key", [("ecchc", "0dc85b04"), ("dwc", "5f")]
)
def test_encrypt_decrypt_round_trip(tmp_path, alg, key):
    plain = tmp_path / "p.pgm"
    enc = tmp_path / "c.pgm"
    dec = tmp_path / "d.pgm"
    save_pgm(gen_noise(70), plain)
    assert run_cli("encrypt", "--alg", alg, "--key", key, "--in", str(plain), "--out", str(enc)) == 0
    assert run_cli("decrypt", "--alg", alg, "--key", key, "--in", str(enc), "--out", str(dec)) == 0
    assert dec.read_bytes() == plain.read_bytes()


def test_encrypt_checkerboard_ecchc_identity(tmp_path):
    plain = tmp_path / "cb.pgm"
    enc = tmp_path / "cb_enc.pgm"
    save_pgm(gen_checkerboard(), plain)
    run_cli("encrypt", "--alg", "ecchc", "--key", "a1b2c3d4", "--in", str(plain), "--out", str(enc))
    assert load_pgm(enc) == gen_checkerboard()


def test_encrypt_bad_key_exit_code(tmp_path, capsys):
    plain = tmp_path / "p.pgm"
    save_pgm(gen_noise(71), plain)
    code = run_cli("encrypt", "--alg", "dwc", "--key", "xyz", "--in", str(plain), "--out", str(tmp_path / "o.pgm"))
    assert code == cli.EXIT_KEY
    assert json.loads(capsys.readouterr().err)["code"] == cli.EXIT_KEY


@pytest.mark.parametrize(
    "parse,argv,text",
    [
        (HillKey.from_hex, ["attack", "fixed-points", "--samples", "4", "--key={}"], text)
        for text in ("-1223344", "+1223344", "1 223344", "\u0661\u0662" * 4, "\uff11\uff12" * 4)
    ]
    + [
        (KeyMask.parse, ["attack", "brute-hill", "--in", "{img}", "--enc", "{img}", "--mask={}"], text)
        for text in ("-1??????", "+1??????", "1 ??????", "\u0660\u0660??????")
    ]
    + [
        (cli._dwc_byte, ["encrypt", "--alg", "dwc", "--key={}", "--in", "{img}", "--out", "{out}"], text)
        for text in ("+f", "-0", "\u0660\u0660")
    ],
)
def test_key_text_with_a_sign_space_or_non_ascii_digit_is_rejected(
    tmp_path, capsys, parse, argv, text
):
    # int(_, 16) alone takes a sign, inner whitespace and any Unicode digit
    with pytest.raises(ValueError):
        parse(text)
    img, out = tmp_path / "a.pgm", tmp_path / "o.pgm"
    save_pgm(GrayImage(gen_checkerboard(4).pixels[:8, :8]), img)
    assert run_cli(*(arg.format(text, img=img, out=out) for arg in argv)) == cli.EXIT_KEY
    assert one_error_line(capsys, cli.EXIT_KEY).startswith("bad ")
    assert not out.exists()


def test_missing_input_exit_code(tmp_path, capsys):
    code = run_cli("encrypt", "--alg", "dwc", "--key", "00", "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm"))
    assert code == cli.EXIT_FILE
    assert str(tmp_path / "nope.pgm") in one_error_line(capsys, cli.EXIT_FILE)


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["encrypt", "--alg", "nope"])
    assert exc.value.code == 2


def test_one_parser_serves_successive_commands(tmp_path, capsys):
    # the parser is built once per process; no option leaks between calls
    a = tmp_path / "a.pgm"
    save_pgm(gen_checkerboard(), a)
    assert cli.build_parser() is cli.build_parser()
    argv = ("metrics", "--in", str(a), "--enc", str(a))
    assert run_cli(*argv, "--format", "csv", "--alg", "dwc", "--image", "board") == 0
    assert capsys.readouterr().out.splitlines()[1] == "dwc,board,1.0000,inf,0.0000"
    code, doc = run_json(capsys, "keygen", "--seed", "9")
    assert code == 0 and doc["km_self_inverse"] is True
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert (doc["algorithm"], doc["image"], doc["psnr"]) == ("-", "-", "inf")


# --- keygen -----------------------------------------------------------------------


def test_keygen_deterministic(capsys):
    code1, doc1 = run_json(capsys, "keygen", "--seed", "9")
    code2, doc2 = run_json(capsys, "keygen", "--seed", "9")
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["km_self_inverse"] is True
    assert len(doc1["key_hex"]) == 8
    km = np.array(doc1["km"], dtype=np.int64)
    assert np.array_equal((km @ km) % 256, np.eye(4, dtype=np.int64))


def test_keygen_km_is_the_block_matrix(capsys):
    for seed in range(64):
        code, doc = run_json(capsys, "keygen", "--seed", str(seed))
        assert code == 0
        assert doc["km"] == [list(row) for row in block_matrix(doc["k"])]
        assert doc["km_self_inverse"] is True


# keygen --seed s stdout, recorded before the agreement moved into
# ecgroup.agree; each is stored compact and re-indented as _emit prints it
KEYGEN_STDOUT = {
    -1: '{"curve":{"q":1009,"a":1,"b":79,"g":[1,9],"order":1009},"alice":{"private":225,"public":[577,288]},"bob":{"private":80,"public":[201,754]},"shared_point":[208,679],"k":[[227,17],[117,161]],"km":[[227,17,30,239],[117,161,139,96],[228,17,29,239],[117,162,139,95]],"key_hex":"e31175a1","km_self_inverse":true}',
    0: '{"curve":{"q":1009,"a":1,"b":79,"g":[1,9],"order":1009},"alice":{"private":80,"public":[201,754]},"bob":{"private":402,"public":[553,949]},"shared_point":[318,303],"k":[[18,77],[58,202]],"km":[[18,77,239,179],[58,202,198,55],[19,77,238,179],[58,203,198,54]],"key_hex":"124d3aca","km_self_inverse":true}',
    1: '{"curve":{"q":1009,"a":1,"b":79,"g":[1,9],"order":1009},"alice":{"private":402,"public":[553,949]},"bob":{"private":383,"public":[147,371]},"shared_point":[998,42],"k":[[217,255],[124,199]],"km":[[217,255,40,1],[124,199,132,58],[218,255,39,1],[124,200,132,57]],"key_hex":"d9ff7cc7","km_self_inverse":true}',
    2: '{"curve":{"q":1009,"a":1,"b":79,"g":[1,9],"order":1009},"alice":{"private":383,"public":[147,371]},"bob":{"private":766,"public":[695,509]},"shared_point":[727,135],"k":[[163,140],[143,9]],"km":[[163,140,94,116],[143,9,113,248],[164,140,93,116],[143,10,113,247]],"key_hex":"a38c8f09","km_self_inverse":true}',
    3: '{"curve":{"q":1009,"a":1,"b":79,"g":[1,9],"order":1009},"alice":{"private":766,"public":[695,509]},"bob":{"private":203,"public":[31,287]},"shared_point":[890,43],"k":[[206,232],[81,81]],"km":[[206,232,51,24],[81,81,175,176],[207,232,50,24],[81,82,175,175]],"key_hex":"cee85151","km_self_inverse":true}',
}


@pytest.mark.parametrize("seed", sorted(KEYGEN_STDOUT))
def test_keygen_stdout_is_pinned(capsys, seed):
    assert run_cli("keygen", f"--seed={seed}") == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(json.loads(KEYGEN_STDOUT[seed]), indent=2) + "\n"
    assert captured.err == ""


def test_keygen_agreement_mismatch_is_exit_6(capsys, monkeypatch):
    # the two sides' shared points differ: a fault, reported as curve degeneracy
    points = iter([(1, 9), (201, 754)])
    monkeypatch.setattr(ecgroup, "shared_point", lambda *args: next(points))
    assert run_cli("keygen") == cli.EXIT_CURVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        '{"error": "CliError", "message": "two-party agreement mismatch", "code": 6}\n'
    )


# --- metrics and report ---------------------------------------------------------------


def test_metrics_json(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    save_pgm(gen_checkerboard(), a)
    save_pgm(gen_checkerboard(), b)
    code, doc = run_json(capsys, "metrics", "--in", str(a), "--enc", str(b))
    assert code == 0
    assert doc["entropy"] == 1.0
    assert doc["psnr"] == "inf"
    assert doc["uaci_percent"] == 0.0


def test_metrics_csv(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    save_pgm(gen_checkerboard(), a)
    code = run_cli("metrics", "--in", str(a), "--enc", str(a), "--format", "csv", "--alg", "ecchc", "--image", "checkerboard")
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "algorithm,image,entropy,psnr,uaci_percent"
    assert out[1] == "ecchc,checkerboard,1.0000,inf,0.0000"


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
def test_a_csv_label_with_a_separator_quote_or_line_break_is_quoted(tmp_path, capsys, monkeypatch, char):
    label = f"a{char}b"
    a = tmp_path / "a.pgm"
    save_pgm(gen_checkerboard(), a)
    assert run_cli("metrics", "--in", str(a), "--enc", str(a), "--format", "csv", "--alg", label, "--image", label) == 0
    out = capsys.readouterr().out
    quoted = '"' + label.replace('"', '""') + '"'
    assert out == f"algorithm,image,entropy,psnr,uaci_percent\n{quoted},{quoted},1.0000,inf,0.0000\n"
    assert _csv_rows(out)[1] == [label, label, "1.0000", "inf", "0.0000"]

    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    save_pgm(gen_photo(8, 16, 16), fixtures / f"{label}.pgm")
    monkeypatch.setenv(cli.FIXTURES_ENV, str(fixtures))
    code, rows = run_json(capsys, "report", "--seed", "1", "--format", "json")
    assert code == 0 and sum(row["image"] == label for row in rows) == 2
    assert run_cli("report", "--seed", "1", "--format", "csv") == 0
    cells = _csv_rows(capsys.readouterr().out)[1:]
    assert [c[:2] for c in cells] == [[row["algorithm"], row["image"]] for row in rows]
    assert {len(c) for c in cells} == {5}


def test_report_contains_expected_rows(capsys, monkeypatch):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    code = run_cli("report", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "algorithm,image,entropy,psnr,uaci_percent"
    cells = [line.split(",") for line in lines[1:]]
    rows = {(c[0], c[1]): c for c in cells}
    assert set(rows) == {
        ("ecchc", "checkerboard"),
        ("ecchc", "drawing"),
        ("ecchc", "photo"),
        ("dwc", "checkerboard"),
        ("dwc", "drawing"),
        ("dwc", "photo"),
    }
    cb = rows[("ecchc", "checkerboard")]
    assert cb[2] == "1.0000" and cb[3] == "inf" and cb[4] == "0.0000"
    dwc_cb = rows[("dwc", "checkerboard")]
    assert float(dwc_cb[2]) >= 7.99
    assert abs(float(dwc_cb[3]) - 4.7623) <= 0.5
    assert abs(float(dwc_cb[4]) - 50.0) <= 2.0


def test_report_picks_up_fixture_dir(tmp_path, capsys, monkeypatch):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    save_pgm(gen_photo(8), fixtures / "sample.pgm")
    monkeypatch.setenv(cli.FIXTURES_ENV, str(fixtures))
    code = run_cli("report", "--seed", "1", "--format", "csv")
    assert code == 0
    out = capsys.readouterr().out
    assert "ecchc,sample," in out and "dwc,sample," in out


def test_report_json_rows_are_the_csv_rows(capsys, monkeypatch):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    assert run_cli("report", "--seed", "1", "--format", "csv") == 0
    csv_rows = capsys.readouterr().out.strip().splitlines()[1:]
    code, rows = run_json(capsys, "report", "--seed", "1", "--format", "json")
    assert code == 0
    columns = ("algorithm", "image", "entropy", "psnr", "uaci_percent")
    assert [list(row) for row in rows] == [[*columns, "mse"]] * 6
    cells = ([v if isinstance(v, str) else f"{v:.4f}" for v in map(row.get, columns)] for row in rows)
    assert list(map(",".join, cells)) == csv_rows
    (board,) = (row for row in rows if (row["algorithm"], row["image"]) == ("ecchc", "checkerboard"))
    assert board["psnr"] == "inf"


def test_report_skips_an_unreadable_fixture_with_a_warning(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    assert run_cli("report", "--seed", "1", "--format", "csv") == 0
    generated = capsys.readouterr().out
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "bad.pgm").write_bytes(b"P7\n")
    monkeypatch.setenv(cli.FIXTURES_ENV, str(fixtures))
    assert run_cli("report", "--seed", "1", "--format", "csv") == 0
    captured = capsys.readouterr()
    assert captured.out == generated
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"warning": "skipping fixture bad.pgm"}
    ]


def run_child(*argv, fixtures=None):
    """The CLI in a child process with 1 GiB of address space and a 60 s
    timeout, so an input read without bound fails there, not in the test."""
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # noqa: E731
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop(cli.FIXTURES_ENV, None)
    if fixtures:
        env[cli.FIXTURES_ENV] = str(fixtures)
    return subprocess.run(
        [sys.executable, "-m", "cipher_autopsy.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit, env=env,
    )


def test_report_skips_a_fifo_fixture_with_a_warning(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    os.mkfifo(fixtures / "pipe.pgm")  # opening it would wait for a writer
    generated = run_child("report", "--seed", "1", "--format", "csv")
    start = time.perf_counter()
    proc = run_child("report", "--seed", "1", "--format", "csv", fixtures=fixtures)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (0, generated.stdout)
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [
        {"warning": "skipping fixture pipe.pgm"}
    ]


# --- attacks ---------------------------------------------------------------------------


def test_attack_kpa_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(72)
    key = expand_key(((0x21, 0x43), (0x65, 0x87)))
    plains = np.array([rng.integers(0, 256, 4) for _ in range(10)], dtype=np.uint8)
    lines = [p.tobytes().hex() + c.tobytes().hex() for p, c in zip(plains, hill_apply(plains, key.k))]
    path = tmp_path / "samples.txt"
    path.write_text("# planted pairs\n" + "\n".join(lines) + "\n")
    code, doc = run_json(capsys, "attack", "kpa", "--in", str(path))
    assert code == 0
    assert doc["status"] == "unique"
    assert doc["key"] == "21436587"


def test_attack_kpa_ambiguous_exit(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    key = expand_key(((5, 6), (7, 8)))
    p = np.array([(9, 9, 9, 9)], dtype=np.uint8)
    c = hill_apply(p, key.k)
    path.write_text((p.tobytes().hex() + c.tobytes().hex() + "\n") * 3)
    code, doc = run_json(capsys, "attack", "kpa", "--in", str(path))
    assert code == cli.EXIT_ATTACK
    assert doc["status"] == "ambiguous"


def test_attack_brute_hill(tmp_path, capsys):
    rng = np.random.default_rng(73)
    key = expand_key(((0xAA, 0xBB), (0xCC, 0xDD)))
    img = gen_noise(74)
    plain = tmp_path / "p.pgm"
    enc = tmp_path / "c.pgm"
    save_pgm(img, plain)
    save_pgm(ecchc_encrypt(img, key), enc)
    code, doc = run_json(
        capsys, "attack", "brute-hill", "--in", str(plain), "--enc", str(enc), "--mask", "aa??cc??"
    )
    assert code == 0
    assert doc["status"] == "unique"
    assert doc["key"] == "aabbccdd"
    assert doc["candidates_tested"] == 65536


def test_attack_brute_hill_full_needs_flag(tmp_path, capsys):
    img = gen_noise(75)
    p = tmp_path / "p.pgm"
    save_pgm(img, p)
    code = run_cli("attack", "brute-hill", "--in", str(p), "--enc", str(p))
    assert code == cli.EXIT_ATTACK
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["encrypt", "--alg", "ecchc", "--key", "00000000", "--in", "{odd}", "--out", "{out}"],
        ["decrypt", "--alg", "dwc", "--key", "00", "--in", "{odd}", "--out", "{out}"],
        ["metrics", "--in", "{odd}", "--enc", "{even}"],
        ["attack", "brute-hill", "--in", "{odd}", "--enc", "{odd}", "--mask", "00??00??"],
        ["attack", "brute-hill", "--in", "{odd}", "--enc", "{even}", "--full"],
        ["attack", "brute-dwc", "--enc", "{odd}"],
        ["attack", "dwc-partial", "--enc", "{odd}"],
        ["attack", "ecb-scan", "--enc", "{odd}"],
    ],
)
def test_bad_dimensions_exit_3(tmp_path, capsys, argv):
    paths = {name: tmp_path / f"{name}.pgm" for name in ("odd", "even", "out")}
    paths["odd"].write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    save_pgm(gen_constant(0, 4, 4), paths["even"])
    code = run_cli(*(arg.format(**paths) for arg in argv))
    assert code == cli.EXIT_FILE
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["error"], err["code"]) == ("CliError", cli.EXIT_FILE)


def test_attack_brute_dwc(tmp_path, capsys):
    enc = tmp_path / "c.pgm"
    save_pgm(dwc_encrypt(gen_photo(9), 0x7E), enc)
    code, doc = run_json(capsys, "attack", "brute-dwc", "--enc", str(enc))
    assert code == 0
    assert doc["best_key"] == "7e"
    assert len(doc["ranking"]) == 256


def test_attack_dwc_partial(tmp_path, capsys):
    img = gen_noise(76)
    enc = tmp_path / "c.pgm"
    rec = tmp_path / "r.pgm"
    save_pgm(dwc_encrypt(img, 0x31), enc)
    code, doc = run_json(capsys, "attack", "dwc-partial", "--enc", str(enc), "--out", str(rec))
    assert code == 0
    assert doc["recovered_bytes_percent"] == 75.0
    assert doc["recovered_mask_rle"].startswith("0:1,1:3,")
    recovered = load_pgm(rec)
    assert np.array_equal(blocks_of(recovered)[:, 1:], blocks_of(img)[:, 1:])


def test_attack_ecb_scan(tmp_path, capsys):
    enc = tmp_path / "c.pgm"
    save_pgm(ecchc_encrypt(gen_checkerboard(), expand_key(((3, 1), (4, 1)))), enc)
    code, doc = run_json(capsys, "attack", "ecb-scan", "--enc", str(enc))
    assert code == 0
    assert doc["distinct_blocks"] == 2
    assert doc["largest_class_size"] == 8192


def test_attack_fixed_points(capsys):
    code, doc = run_json(capsys, "attack", "fixed-points", "--key", "00000000", "--samples", "1000")
    assert code == 0
    assert doc["diagonal_fixed"] == 256
    assert doc["sampled_tested"] == 1000


def test_attack_fixed_points_sample_stream_is_pinned(capsys):
    # the two swap-symmetric blocks among seed 2's 200,000 samples
    assert run_cli(
        "attack", "fixed-points", "--key", "00000000", "--samples", "200000", "--seed", "2"
    ) == 0
    assert capsys.readouterr().out == (
        '{\n  "diagonal_fixed": 256,\n  "sampled_tested": 200000,\n  "sampled_fixed": [\n'
        "    [\n      210,\n      207,\n      210,\n      207\n    ],\n"
        "    [\n      77,\n      214,\n      77,\n      214\n    ]\n  ]\n}\n"
    )


@pytest.mark.parametrize(
    "samples,code",
    [("-1", 2), ("1048577", 2), (str(2**40), 2), ("0", 0), ("1048576", 0)],
)
def test_attack_fixed_points_samples_range(capsys, samples, code):
    # [0, 2^20] is accepted; anything else is one JSON line and exit 2
    assert run_cli("attack", "fixed-points", "--key", "00000000", "--samples", samples) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["sampled_tested"] == int(samples)
        return
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["code"] == 2 and "--samples" in err["message"]


@pytest.mark.parametrize("key", ["00000000", "01000001", "0dc85b04"])
def test_attack_fixed_points_at_2_20_samples_peaks_under_1_mib(capsys, key):
    # the census draws its 2^20 samples a chunk at a time
    argv = ["attack", "fixed-points", "--key", key, "--samples", str(cli.MAX_SAMPLES)]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1 << 20


def test_attack_missing_argument_is_clean_error(capsys):
    code = run_cli("attack", "fixed-points")
    assert code == cli.EXIT_FILE
    err = json.loads(capsys.readouterr().err)
    assert "--key" in err["message"]


# --- the error contract: one JSON line, one table of exit codes ------------------


def one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err == {"error": "CliError", "message": err["message"], "code": code}
    return err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "--in", "{img}", "--enc", "{img}"],
        ["keygen", "--seed", "3"],
        ["report", "--seed", "1"],
        ["attack", "kpa", "--in", "{kpa}"],
        ["attack", "ecb-scan", "--enc", "{img}"],
        ["attack", "brute-dwc", "--enc", "{img}"],
        ["attack", "brute-hill", "--in", "{img}", "--enc", "{img}", "--mask", "00??00??"],
        ["attack", "fixed-points", "--key", "00000000", "--samples", "4"],
        ["attack", "dwc-partial", "--enc", "{img}"],
        ["gen", "noise"],
        ["encrypt", "--alg", "dwc", "--key", "00", "--in", "{img}"],
    ],
)
@pytest.mark.parametrize("out", ["{dir}/missing/x", "{dir}"])
def test_unwritable_out_is_exit_3(tmp_path, capsys, monkeypatch, argv, out):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    paths = {"dir": tmp_path, "img": tmp_path / "a.pgm", "kpa": tmp_path / "pairs.txt"}
    save_pgm(GrayImage(gen_checkerboard(4).pixels[:8, :8]), paths["img"])  # every Hill key fits it
    paths["kpa"].write_text("0011223344556677\n")
    out = out.format(**paths)
    code = run_cli(*(arg.format(**paths) for arg in argv), "--out", out)
    assert code == cli.EXIT_FILE
    captured = capsys.readouterr()
    # dwc-partial prints its summary after writing the recovered image
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["code"] == cli.EXIT_FILE and out in err["message"]


def test_kpa_file_that_is_not_utf8_is_exit_3(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_bytes(b"0011223344556677\n\xff\xfe\x00\x9c\n")
    assert run_cli("attack", "kpa", "--in", str(path)) == cli.EXIT_FILE
    assert one_error_line(capsys, cli.EXIT_FILE).startswith(f"{path}:2:")


def test_kpa_file_of_only_comments_and_blank_lines_is_exit_3(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("# no pairs yet\n\n   \n# still none\n")
    assert run_cli("attack", "kpa", "--in", str(path)) == cli.EXIT_FILE
    assert one_error_line(capsys, cli.EXIT_FILE) == f"{path}: no sample pairs"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_kpa_from_the_zero_device_is_exit_3():
    proc = run_child("attack", "kpa", "--in", "/dev/zero")
    assert (proc.returncode, proc.stdout) == (cli.EXIT_FILE, "")
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["message"] == f"/dev/zero:1: line reaches {cli.LINE_CAP} characters"


def test_kpa_line_at_the_cap_is_exit_3(tmp_path, capsys):
    # a comment one character under the cap, its break counted, is read; a 2 MiB line is not
    path = tmp_path / "pairs.txt"
    path.write_text("#" * (cli.LINE_CAP - 2) + "\n0011223344556677\n" + "0" * (2 << 20) + "\n")
    assert run_cli("attack", "kpa", "--in", str(path)) == cli.EXIT_FILE
    assert one_error_line(capsys, cli.EXIT_FILE) == f"{path}:3: line reaches {cli.LINE_CAP} characters"


def test_p2_sample_that_is_not_a_number_is_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 x 4\n")
    assert run_cli("metrics", "--in", str(path), "--enc", str(path)) == cli.EXIT_FILE
    assert one_error_line(capsys, cli.EXIT_FILE) == f"{path}: non-numeric sample"


def test_kpa_line_that_decodes_short_is_exit_3(tmp_path, capsys):
    # 16 characters, but the inner spaces leave 7 bytes: not a sample pair
    path = tmp_path / "pairs.txt"
    path.write_text("0011 2233 445566\n")
    assert run_cli("attack", "kpa", "--in", str(path)) == cli.EXIT_FILE
    assert one_error_line(capsys, cli.EXIT_FILE).startswith(f"{path}:1:")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--seed", "-1"],
        ["attack", "fixed-points", "--key", "00000000", "--seed", "-1"],
        ["gen", "noise", "--seed", "-1", "--out", "{out}"],
        ["gen", "constant", "--value", "256", "--out", "{out}"],
    ],
)
def test_option_value_the_library_rejects_is_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    out = tmp_path / "o.pgm"
    assert run_cli(*(arg.format(out=out) for arg in argv)) == cli.EXIT_USAGE
    one_error_line(capsys, cli.EXIT_USAGE)
    assert not out.exists()


def test_keygen_accepts_a_negative_seed(capsys):
    # splitmix64 takes any integer; only numpy's generators reject negatives
    code, doc = run_json(capsys, "keygen", "--seed", "-1")
    assert code == 0 and doc["km_self_inverse"] is True


@pytest.mark.parametrize(
    "data",
    [b"P5\n4 4\n255\n" + bytes(7), b"P5\n4 4\n16\n" + bytes(16), b"P7\n", b""],
)
def test_malformed_pgm_error_names_the_file(tmp_path, capsys, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    assert run_cli("attack", "ecb-scan", "--enc", str(path)) == cli.EXIT_FILE
    assert one_error_line(capsys, cli.EXIT_FILE).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["encrypt", "--alg", "nope"],
        [],
        ["report", "--seed", "x"],
        ["attack", "brute-dwc", "--bogus"],
        ["gen", "square", "--out", "x.pgm"],
    ],
)
def test_usage_error_is_one_json_line_and_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert one_error_line(capsys, cli.EXIT_USAGE).startswith("cipher-autopsy")


@pytest.mark.parametrize(
    "exc,code",
    [
        (FileNotFoundError(2, "No such file or directory", "x.pgm"), 3),
        (UnicodeEncodeError("utf-8", "\udcff", 0, 1, "surrogates not allowed"), 3),
        (PgmError("expected 16 pixels, got 3"), 3),
        (KeyNotFoundError("no key matches the image pair"), 5),
        (DegenerateSharedPointError("shared point is the identity"), 6),
        (ValueError("expected non-negative integer"), 2),
    ],
)
def test_library_exception_takes_the_code_of_its_nearest_listed_class(
    tmp_path, capsys, monkeypatch, exc, code
):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.attacks, "brute_force_dwc", fail)
    enc = tmp_path / "c.pgm"
    save_pgm(gen_constant(0, 4, 4), enc)
    assert run_cli("attack", "brute-dwc", "--enc", str(enc)) == code
    assert one_error_line(capsys, code) == str(exc)


def test_exception_outside_the_table_is_not_turned_into_an_exit_code(tmp_path, monkeypatch):
    # a programming error stays a traceback instead of posing as a usage error
    def fail(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(cli.attacks, "brute_force_dwc", fail)
    enc = tmp_path / "c.pgm"
    save_pgm(gen_constant(0, 4, 4), enc)
    with pytest.raises(TypeError, match="bug"):
        run_cli("attack", "brute-dwc", "--enc", str(enc))


def test_report_skips_what_a_cipher_rejects(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    assert run_cli("report", "--seed", "2", "--format", "csv") == 0
    generated = capsys.readouterr().out.splitlines()
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "wide.pgm").write_bytes(b"P5\n5 4\n255\n" + bytes(range(20)))
    (fixtures / "tiny.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    monkeypatch.setenv(cli.FIXTURES_ENV, str(fixtures))
    assert run_cli("report", "--seed", "2", "--format", "csv") == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    extra = [line for line in lines if line not in generated]
    assert [line.split(",")[:2] for line in extra] == [["dwc", "wide"]]
    assert [line for line in lines if line in generated] == generated
    warnings = [json.loads(line)["warning"] for line in captured.err.splitlines()]
    assert sorted(w.split(" (")[0] for w in warnings) == [
        "tiny: skipped for dwc",
        "tiny: skipped for ecchc",
        "wide: skipped for ecchc",
    ]
