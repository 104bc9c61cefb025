"""The CLI error contract, fuzzed.

Whatever the input, a command exits with a documented code, and stderr is
either empty or exactly one JSON line {"error", "message", "code"} whose
code is the exit code.  No input ends in a Python traceback: in process,
that is any exception other than argparse's SystemExit leaving main().
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cipher_autopsy import cli
from cipher_autopsy.imagekit import gen_noise, save_pgm

DOCUMENTED = {0, 2, 3, 4, 5, 6}

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(autouse=True)
def _no_fixture_photos(monkeypatch):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)


def fill(argv, paths):
    """Put the paths into argv's {name} slots (str.replace: fuzzed text may hold braces)."""
    out = []
    for arg in argv:
        for name, path in paths.items():
            arg = arg.replace("{" + name + "}", str(path))
        out.append(arg)
    return out


def run_contract(capsys, argv) -> int:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through SystemExit
        code = exc.code
    captured = capsys.readouterr()
    assert code in DOCUMENTED
    assert "Traceback" not in captured.err
    if captured.err:
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "message", "code"}
        assert err["code"] == code != 0
    return code


# --- malformed PGM bytes ------------------------------------------------------


def _header(magic, width, height, maxval, comment):
    parts = [magic, comment, width, height, maxval]
    return b"\n".join(p for p in parts if p is not None) + b"\n"


_dims = st.one_of(st.integers(-2, 12).map(lambda n: str(n).encode()), st.sampled_from([b"x", b"", b"1e3"]))
_pgm_headers = st.builds(
    _header,
    st.sampled_from([b"P5", b"P2", b"P6", b"P", b"", b"#P5"]),
    _dims,
    _dims,
    st.sampled_from([b"255", b"0", b"1", b"256", b"65535", b"-1", b"ff", b""]),
    st.sampled_from([None, b"# comment", b"#"]),
)
_p2_samples = st.lists(st.integers(-5, 300), max_size=40).map(
    lambda vs: b" ".join(str(v).encode() for v in vs)
)
_pgm_bytes = st.one_of(
    st.binary(max_size=64),
    st.tuples(_pgm_headers, st.one_of(st.binary(max_size=160), _p2_samples)).map(b"".join),
    # a valid 8x8 image cut short anywhere
    st.integers(0, 75).map(lambda n: (b"P5\n8 8\n255\n" + bytes(range(64)))[:n]),
)

_FILE_COMMANDS = [
    ["encrypt", "--alg", "ecchc", "--key", "0dc85b04", "--in", "{bad}", "--out", "{out}"],
    ["decrypt", "--alg", "dwc", "--key", "5f", "--in", "{bad}", "--out", "{out}"],
    ["metrics", "--in", "{bad}", "--enc", "{good}"],
    ["metrics", "--in", "{good}", "--enc", "{bad}"],
    ["attack", "brute-hill", "--in", "{bad}", "--enc", "{bad}", "--mask", "00??00??"],
    ["attack", "brute-hill", "--in", "{good}", "--enc", "{bad}", "--full"],
    ["attack", "brute-dwc", "--enc", "{bad}"],
    ["attack", "dwc-partial", "--enc", "{bad}", "--out", "{out}"],
    ["attack", "ecb-scan", "--enc", "{bad}"],
    ["attack", "kpa", "--in", "{bad}"],
]


@FUZZ
@given(data=_pgm_bytes, argv=st.sampled_from(_FILE_COMMANDS))
def test_malformed_files_give_a_file_error_or_a_result(tmp_path, capsys, data, argv):
    paths = {name: tmp_path / f"{name}.pgm" for name in ("bad", "good", "out")}
    paths["bad"].write_bytes(data)
    save_pgm(gen_noise(1, 8, 8), paths["good"])
    code = run_contract(capsys, fill(argv, paths))
    # every other argument is valid, so the only failures are the file's
    # (3) or, for the searches, no key or a refused search (5)
    assert code in {0, 3, 5}


# --- argument combinations ------------------------------------------------------

_keys = st.one_of(
    st.sampled_from(["0dc85b04", "5f", "00", "ff", "zz", "", "0dc85b0", "+f", "??", "0dc85b04ff"]),
    st.text(max_size=10),
)
_masks = st.one_of(st.sampled_from(["00??00??", "????????", "ab??cd", "zz??zz??"]), st.text(max_size=9))
_seeds = st.one_of(st.integers(-3, 3), st.sampled_from([2**40, -(2**70)])).map(str)


@st.composite
def _argvs(draw):
    out = draw(st.sampled_from(["{dir}/o.out", "{dir}/missing/o.out", "{dir}"]))
    img = draw(st.sampled_from(["{img}", "{dir}/nope.pgm"]))
    candidates = [
        ["keygen", "--seed", draw(_seeds), "--out", out],
        [draw(st.sampled_from(["encrypt", "decrypt"])), "--alg", draw(st.sampled_from(["ecchc", "dwc"])),
         "--key", draw(_keys), "--in", img, "--out", out],
        ["metrics", "--in", img, "--enc", "{img}", "--format", draw(st.sampled_from(["csv", "json"])), "--out", out],
        ["report", "--seed", draw(_seeds), "--out", out],
        ["gen", draw(st.sampled_from(["checkerboard", "drawing", "noise", "constant", "photo"])),
         "--seed", draw(_seeds), "--cell", str(draw(st.integers(-8, 300))),
         "--value", str(draw(st.integers(-300, 300))), "--out", out],
        ["attack", draw(st.sampled_from(["kpa", "brute-hill", "brute-dwc", "dwc-partial", "ecb-scan", "fixed-points"])),
         "--in", draw(st.sampled_from([img, "{kpa}"])), "--enc", img, "--mask", draw(_masks),
         "--key", draw(_keys), "--samples", str(draw(st.integers(-3, 300))), "--seed", draw(_seeds),
         "--out", out],
    ]
    argv = draw(st.sampled_from(candidates))
    # drop a few tokens: missing arguments, dangling flags, unknown words
    drop = draw(st.sets(st.integers(0, len(argv) - 1), max_size=2))
    return [arg for i, arg in enumerate(argv) if i not in drop]


@FUZZ
@given(argv=_argvs())
def test_argument_combinations_keep_the_contract(tmp_path, capsys, argv):
    paths = {"dir": tmp_path, "img": tmp_path / "img.pgm", "kpa": tmp_path / "pairs.txt"}
    save_pgm(gen_noise(2, 8, 8), paths["img"])
    paths["kpa"].write_text("0011223344556677\n")
    run_contract(capsys, fill(argv, paths))
