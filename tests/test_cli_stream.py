"""The CLI's P5 stream.

encrypt, decrypt, metrics and the attacks brute-hill, brute-dwc and
dwc-partial read a large P5 file one chunk at a time; the image outputs
rewrite an existing file in place, then trim it.  The output bytes, exit
codes and messages are those of the whole-image library path; an error
raised before the first write leaves an existing output untouched; and the
memory a command takes does not grow with the image.
"""

import contextlib
import json
import os
import re
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import rle

from cipher_autopsy import attacks, cli, dwc, ecchc, metrics
from cipher_autopsy.imagekit import (
    MAP_CHUNK,
    PGM_READ,
    GrayImage,
    PgmError,
    gen_photo,
    load_pgm,
    open_pgm,
    read_pgm,
    save_pgm,
)

KEYS = {"ecchc": "0dc85b04", "dwc": "5f"}
HILL = ecchc.HillKey.from_hex(KEYS["ecchc"])
LIBRARY = {
    ("encrypt", "ecchc"): lambda img: ecchc.ecchc_encrypt(img, HILL),
    ("decrypt", "ecchc"): lambda img: ecchc.ecchc_encrypt(img, HILL),
    ("encrypt", "dwc"): lambda img: dwc.dwc_encrypt(img, 0x5F),
    ("decrypt", "dwc"): lambda img: dwc.dwc_decrypt(img, 0x5F),
}
# (height, width): one that fits in the first read, and one streamed in
# three full chunks and a short one
SHAPES = [(8, 8), (402, 1000)]
assert 3 * 4 * MAP_CHUNK < 402 * 1000 < 4 * 4 * MAP_CHUNK


def _image(shape, seed=0):
    return GrayImage(np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8))


def _p5(img, header=b"P5\n%d %d\n255\n"):
    return header % (img.width, img.height) + img.tobytes()


# a comment that runs past the first read: read_pgm reads this header, open_pgm does not
LONG_HEADER = b"P5\n" + b"#" * (2 * PGM_READ) + b"\n%d %d\n255\n"


def _run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _error(err):
    (line,) = err.splitlines()
    doc = json.loads(line)
    return doc["code"], doc["message"]


# --- the stream writes the bytes of the whole-image path ------------------------


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("verb,alg", list(LIBRARY))
@pytest.mark.parametrize("header", [b"P5\n%d %d\n255\n", b"P5 # padded\n#\n  %d\t%d # x\n255\r"])
def test_cipher_output_is_the_library_output(tmp_path, capsys, shape, verb, alg, header):
    img = _image(shape)
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(_p5(img, header))
    assert _run(capsys, verb, "--alg", alg, "--key", KEYS[alg], "--in", src, "--out", out) == (0, "", "")
    assert out.read_bytes() == _p5(LIBRARY[verb, alg](img))


@pytest.mark.parametrize("shape", SHAPES + [(3, 5)])
def test_metrics_output_is_the_library_output(tmp_path, capsys, shape):
    plain, enc = _image(shape, 1), _image(shape, 2)
    paths = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for img, path in zip((plain, enc), paths):
        path.write_bytes(_p5(img))
    row = {"algorithm": "-", "image": "-", **metrics.evaluate_pair(plain, enc).to_json_dict()}
    assert _run(capsys, "metrics", "--in", paths[0], "--enc", paths[1]) == (0, json.dumps(row, indent=2) + "\n", "")


def test_metrics_dimension_mismatch_is_checked_before_any_pixel_is_read(tmp_path, capsys):
    paths = tmp_path / "a.pgm", tmp_path / "b.pgm"
    paths[0].write_bytes(_p5(_image((402, 1000))))
    paths[1].write_bytes(_p5(_image((1000, 402))))
    code, out, err = _run(capsys, "metrics", "--in", paths[0], "--enc", paths[1])
    assert (code, out, _error(err)) == (3, "", (3, "1000x402 vs 402x1000"))


# --- an existing output ---------------------------------------------------------


def _bad_inputs(shape, path):
    """(name, file bytes, alg, key, expected exit code, expected message)."""
    h, w = shape
    good = _p5(_image(shape))
    n = h * w
    odd = _image((h - 1, w))  # ecchc needs even sides; (h-1)*w is still a multiple of 4 for both shapes
    unblockable = _image((h - 1, w - 1))  # (h-1)*(w-1) is odd
    return [
        ("truncated", good[:-5], "ecchc", KEYS["ecchc"], 3, f"{path}: expected {n} pixels, got {n - 5}"),
        ("maxval", good.replace(b"\n255\n", b"\n16\n", 1), "dwc", KEYS["dwc"], 3, f"{path}: maxval 16 unsupported, need 255"),
        ("magic", b"P6" + good[2:], "dwc", KEYS["dwc"], 3, f"{path}: not a PGM: magic b'P6'"),
        ("header longer than the first read", _p5(_image(shape), LONG_HEADER), "dwc", KEYS["dwc"], 3,
         f"{path}: unterminated comment"),
        ("hill key", good, "ecchc", "zz", 4, "bad hill key 'zz': hill key must be 8 hex digits (k11 k12 k21 k22)"),
        ("dwc key", good, "dwc", "zz", 4, "bad dwc key 'zz': want 2 hex digits"),
        ("odd sides", _p5(odd), "ecchc", KEYS["ecchc"], 3, f"{w}x{h - 1}: both dimensions must be even"),
        ("unblockable", _p5(unblockable), "dwc", KEYS["dwc"], 3, f"pixel count {(h - 1) * (w - 1)} is not a multiple of 4"),
    ]


@pytest.mark.parametrize("verb", ["encrypt", "decrypt"])
@pytest.mark.parametrize("shape", SHAPES)
def test_an_error_leaves_an_existing_output_untouched(tmp_path, capsys, verb, shape):
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    before = os.urandom(3 * 4 * MAP_CHUNK)
    for name, data, alg, key, code, message in _bad_inputs(shape, src):
        src.write_bytes(data)
        out.write_bytes(before)
        result = _run(capsys, verb, "--alg", alg, "--key", key, "--in", src, "--out", out)
        assert (result[0], result[1], _error(result[2])) == (code, "", (code, message)), name
        assert out.read_bytes() == before, name


def test_errors_come_input_then_key_then_dimensions_then_output(tmp_path, capsys):
    src, good, odd = tmp_path / "bad.pgm", tmp_path / "good.pgm", tmp_path / "odd.pgm"
    src.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    good.write_bytes(_p5(_image((402, 1000))))
    odd.write_bytes(_p5(_image((401, 1000))))
    cases = [
        (src, "zz", tmp_path, 3, f"{src}: expected 16 pixels, got 3"),
        (odd, "zz", tmp_path, 4, "bad hill key 'zz': hill key must be 8 hex digits (k11 k12 k21 k22)"),
        (odd, KEYS["ecchc"], tmp_path, 3, "1000x401: both dimensions must be even"),
        (good, KEYS["ecchc"], tmp_path, 3, f"[Errno 21] Is a directory: '{tmp_path}'"),
    ]
    for inp, key, out, code, message in cases:
        result = _run(capsys, "encrypt", "--alg", "ecchc", "--key", key, "--in", inp, "--out", out)
        assert (result[0], _error(result[2])) == (code, (code, message))


@pytest.mark.parametrize("alg", ["ecchc", "dwc"])
@pytest.mark.parametrize("shape", SHAPES)
def test_a_longer_existing_output_is_trimmed(tmp_path, capsys, alg, shape):
    img = _image(shape)
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(_p5(img))
    out.write_bytes(os.urandom(len(_p5(img)) + 4 * MAP_CHUNK + 3))
    assert _run(capsys, "encrypt", "--alg", alg, "--key", KEYS[alg], "--in", src, "--out", out)[0] == 0
    assert out.read_bytes() == _p5(LIBRARY["encrypt", alg](img))


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("verb,alg", list(LIBRARY))
def test_out_to_the_null_device(tmp_path, capsys, verb, alg):
    src = tmp_path / "in.pgm"
    src.write_bytes(_p5(_image((402, 1000))))
    assert _run(capsys, verb, "--alg", alg, "--key", KEYS[alg], "--in", src, "--out", os.devnull) == (0, "", "")


def _p2(img, header=b"P2\n# ascii\n%d %d\n255\n"):
    return header % (img.width, img.height) + b" ".join(b"%d" % v for v in img.pixels.ravel())


@pytest.mark.parametrize("alg", ["ecchc", "dwc"])
@pytest.mark.parametrize(
    "data",
    [
        _p5(_image((402, 1000))),
        _p5(_image((402, 1000)), b"P5\n" + b"# padding\n" * 300 + b"%d   %d\n255\n"),
        _p2(_image((40, 100))),
    ],
    ids=["p5", "p5-padded-header", "p2"],
)
def test_out_may_be_the_input(tmp_path, capsys, alg, data):
    src, other = tmp_path / "in.pgm", tmp_path / "other.pgm"
    src.write_bytes(data)
    argv = ["encrypt", "--alg", alg, "--key", KEYS[alg], "--in", src, "--out"]
    assert _run(capsys, *argv, other)[0] == 0
    assert _run(capsys, *argv, src)[0] == 0
    assert src.read_bytes() == other.read_bytes()


# --- the source's paths -----------------------------------------------------------


# the third shape's file, 125 KiB of pixels, fits in the first read whole
@pytest.mark.parametrize("shape", SHAPES + [(256, 500)])
@pytest.mark.parametrize(
    "header",
    [
        b"P5\n%d %d\n255\n",
        b"P5\n#\n%d %d # pad\n255\n",
        b"P2\n# ascii\n%d %d\n255\n",
    ],
    ids=["canonical", "padded", "p2"],
)
def test_chunks_and_image_are_the_pixels_read_pgm_reads(tmp_path, shape, header):
    img = _image(shape)
    path = tmp_path / "in.pgm"
    encode = _p2 if header.startswith(b"P2") else _p5
    path.write_bytes(encode(img, header) + b" trailing")
    with open_pgm(path) as src:
        assert (src.width, src.height, src.size) == (img.width, img.height, img.size)
        # a streamed chunk is valid until the next one: copy each
        assert np.array_equal(np.concatenate([c.copy() for c in src.chunks()]), img.pixels.ravel())
        assert src.image() == read_pgm(path.read_bytes()) == img
    assert load_pgm(path) == img


@pytest.mark.parametrize("shape", [(3, 3), (402, 1000)])
@pytest.mark.parametrize("header", [b"P5\n%d %d\n255\n", b"P5\n#\n%d %d # pad\n255\n"], ids=["canonical", "padded"])
def test_chunks_of_any_size_are_the_pixels_of_the_image_chunks(tmp_path, shape, header):
    img = _image(shape)
    path = tmp_path / "in.pgm"
    path.write_bytes(_p5(img, header))
    with open_pgm(path) as src:
        for pixels in [1, 3, 1 << 15, 4 * MAP_CHUNK]:
            streamed = [c.copy() for c in src.chunks(pixels)]
            in_memory = list(img.chunks(pixels))
            assert [len(c) for c in streamed] == [len(c) for c in in_memory], pixels
            assert np.array_equal(np.concatenate(streamed), np.concatenate(in_memory)), pixels


def test_image_after_a_partly_read_chunks_is_a_fresh_array(tmp_path):
    img = _image((402, 1000))
    path = tmp_path / "in.pgm"
    path.write_bytes(_p5(img))
    with open_pgm(path) as src:
        first = next(src.chunks())
        whole = src.image()
        assert whole == img and not np.shares_memory(whole.pixels, first)
        for chunk in src.chunks():
            chunk[:] = 0
        assert whole == img


def test_a_pipe_is_read_whole(tmp_path):
    img = _image((402, 1000))
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=lambda: path.write_bytes(_p5(img)))
    writer.start()
    try:
        with open_pgm(path) as src:
            assert src.image() == img
    finally:
        writer.join()


# 16 extra bytes, or more so that the first read fills: the 3x3 image then
# lies wholly inside it, and nothing more is read
@pytest.mark.parametrize("shape", [(3, 3), (402, 1000)])
def test_a_p5_pipe_is_read_only_as_far_as_its_header_declares(tmp_path, shape):
    img = _image(shape)
    path = tmp_path / "fifo"
    os.mkfifo(path)
    done = threading.Event()

    def write():
        with open(path, "wb", buffering=0) as fh:
            data = _p5(img)
            # the reader may close before the last extra bytes are written
            with contextlib.suppress(BrokenPipeError):
                fh.write(data + bytes(max(16, PGM_READ + 16 - len(data))))
            done.wait(5)  # the write end stays open

    writer = threading.Thread(target=write)
    writer.start()
    try:
        start = time.perf_counter()
        with open_pgm(path) as src:
            assert src.image() == img
        assert time.perf_counter() - start < 1
    finally:
        done.set()
        writer.join()


def test_a_small_image_opens_while_its_writer_holds_the_pipe_open(tmp_path):
    # far less than the first read's 128 KiB arrives, and no EOF until the writer closes
    img = _image((3, 3))
    path = tmp_path / "fifo"
    os.mkfifo(path)
    done = threading.Event()

    def write():
        with open(path, "wb", buffering=0) as fh:
            fh.write(_p5(img))
            done.wait(2)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        start = time.perf_counter()
        with open_pgm(path) as src:
            assert src.image() == img
        assert time.perf_counter() - start < 0.5
    finally:
        done.set()
        writer.join()


def test_a_pipe_that_sends_less_than_its_header_declares_is_a_truncation_error(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=lambda: path.write_bytes(b"P5\n1000 1000\n255\n" + bytes(9)))
    writer.start()
    try:
        with pytest.raises(PgmError, match=f"^{path}: expected 1000000 pixels, got 9$"):
            open_pgm(path)
    finally:
        writer.join()


def _padded(img, header_length, maxval=b"255"):
    """img as P5 whose header, padded with a comment, is header_length bytes."""
    tail = b"\n%d %d\n%s\n" % (img.width, img.height, maxval)
    return b"P5\n#" + b"x" * (header_length - 4 - len(tail)) + tail + img.tobytes()


@pytest.mark.parametrize(
    "data,error",
    [
        (_padded(_image((402, 1000)), PGM_READ), None),
        (_padded(_image((402, 1000)), PGM_READ + 4), (PgmError, "truncated header")),
        (_p5(_image((402, 1000)), LONG_HEADER), (PgmError, "unterminated comment")),
    ],
    ids=["ends-in-the-first-read", "ends-past-the-first-read", "comment-past-the-first-read"],
)
def test_a_header_must_end_in_the_first_read(tmp_path, data, error):
    img = _image((402, 1000))
    path = tmp_path / "in.pgm"
    path.write_bytes(data)
    assert read_pgm(data) == img
    if error:
        with pytest.raises(error[0], match=f"^{re.escape(str(path))}: {error[1]}$"):
            open_pgm(path)
        return
    with open_pgm(path) as src:
        assert src.image() == img
        os.truncate(path, 2 * PGM_READ)  # pixels read from the file now run short
        with pytest.raises(PgmError, match=f"^{re.escape(str(path))}: file shrank while it was read$"):
            src.image()


def test_a_maxval_token_cut_by_the_first_read_is_read_whole(tmp_path):
    # the first read ends after "2", "25" or "255" of "255", or after "255" of
    # "2555": the file is read on, and read_pgm's checks decide
    img = _image((402, 1000))
    path = tmp_path / "in.pgm"
    for extra in (1, 2, 3):
        data = _padded(img, PGM_READ + extra)
        path.write_bytes(data)
        with open_pgm(path) as src:
            assert src.image() == read_pgm(data) == img
    path.write_bytes(_padded(img, PGM_READ + 2, maxval=b"2555"))
    with pytest.raises(PgmError, match=f"^{re.escape(str(path))}: maxval 2555 unsupported, need 255$"):
        open_pgm(path)


def _image_through_a_fifo(path, data):
    """open_pgm(path).image() while a writer sends data into a FIFO at path,
    all but its last byte, then that byte after a 0.1 s pause."""
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb", buffering=0) as fh:
            fh.write(data[:-1])
            time.sleep(0.1)
            fh.write(data[-1:])

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with open_pgm(path) as src:
            return src.image()
    finally:
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))  # a writer still waiting to open ends
        writer.join()


@pytest.mark.parametrize("maxval", [b"255", b"0255", b"+255", b"2_55", b"2555", b"25"])
@pytest.mark.parametrize("length", range(PGM_READ - 1, PGM_READ + 5), ids=lambda n: f"PGM_READ{n - PGM_READ:+d}")
def test_a_file_and_a_pipe_read_a_header_by_one_rule(tmp_path, length, maxval):
    # each gives read_pgm's image or message, or a truncated header if the
    # maxval token starts past the first read; a pipe whose maxval the first
    # read cuts is read to the last byte, which comes after the pause
    img = _image((8, 8))
    data = _padded(img, length, maxval)
    try:
        expected = read_pgm(data)
    except PgmError as exc:
        expected = str(exc)
    if length - 1 - len(maxval) >= PGM_READ:
        expected = "truncated header"
    file = tmp_path / "in.pgm"
    file.write_bytes(data)
    opens = {file: load_pgm, tmp_path / "fifo": lambda path: _image_through_a_fifo(path, data)}
    for path, open_image in opens.items():
        if isinstance(expected, str):
            with pytest.raises(PgmError, match=f"^{re.escape(f'{path}: {expected}')}$"):
                open_image(path)
        else:
            assert open_image(path) == expected == img


def _no_room(path, n):
    return f"^{re.escape(str(path))}: {n} pixels declared, more than the [0-9]+ bytes free to spool them$"


def test_a_pipe_that_declares_more_pixels_than_the_free_space_is_refused(tmp_path):
    # 10^20 pixels declared: refused before anything is read past the header
    path = tmp_path / "fifo"
    with pytest.raises(PgmError, match=_no_room(path, 10**20)):
        _image_through_a_fifo(path, b"P5\n%d %d\n255\n" % (10**10, 10**10) + bytes(9))


def test_no_spool_outlives_its_call(tmp_path, monkeypatch):
    # a spool dropped without being closed fails here too, as an unraisable ResourceWarning
    spools = tmp_path / "spools"
    spools.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spools))
    img = _image((402, 1000))
    assert _image_through_a_fifo(tmp_path / "p5", _p5(img)) == img
    p2 = _p2(_image((40, 100)))
    assert _image_through_a_fifo(tmp_path / "p2", p2) == read_pgm(p2)
    short, huge = tmp_path / "short", tmp_path / "huge"
    with pytest.raises(PgmError, match=f"^{re.escape(str(short))}: expected 1000000 pixels, got 9$"):
        _image_through_a_fifo(short, b"P5\n1000 1000\n255\n" + bytes(9))
    with pytest.raises(PgmError, match=_no_room(huge, 10**20)):
        _image_through_a_fifo(huge, b"P5\n%d %d\n255\n" % (10**10, 10**10) + bytes(9))
    assert os.listdir(spools) == []


@pytest.mark.parametrize("verb", ["metrics", "encrypt"])
@pytest.mark.parametrize("source", ["dev-zero", "zero-file"])
def test_zero_bytes_are_one_short_error_line_in_under_a_second(tmp_path, capsys, verb, source):
    if source == "dev-zero":
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        src = "/dev/zero"
    else:
        src = tmp_path / "zero.pgm"
        src.write_bytes(bytes(4 << 20))
    argv = ["metrics", "--in", src, "--enc", src] if verb == "metrics" else [
        "encrypt", "--alg", "dwc", "--key", KEYS["dwc"], "--in", src, "--out", tmp_path / "out.pgm"]
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, _error(err)) == (3, "", (3, f"{src}: not a PGM: magic {bytes(16)!r}"))
    assert len(err.encode()) < 512


def test_open_pgm_of_a_zero_file_peaks_under_1_mib(tmp_path):
    path = tmp_path / "zero.pgm"
    path.write_bytes(bytes(4 << 20))
    tracemalloc.start()
    try:
        message = f"^{re.escape(str(path))}: not a PGM: magic {re.escape(repr(bytes(16)))}$"
        with pytest.raises(PgmError, match=message):
            open_pgm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_file_that_shrinks_while_it_is_read_is_a_truncation_error(tmp_path):
    path = tmp_path / "in.pgm"
    path.write_bytes(_p5(_image((402, 1000))))
    with open_pgm(path) as src:
        os.truncate(path, 3 * 4 * MAP_CHUNK)
        with pytest.raises(PgmError, match=f"^{re.escape(str(path))}: file shrank while it was read$"):
            list(src.chunks())


# --- memory ---------------------------------------------------------------------


COMMANDS_2048 = {
    "encrypt-ecchc": ["encrypt", "--alg", "ecchc", "--key", KEYS["ecchc"], "--in", "{plain}", "--out", "{out}"],
    "decrypt-ecchc": ["decrypt", "--alg", "ecchc", "--key", KEYS["ecchc"], "--in", "{plain}", "--out", "{out}"],
    "encrypt-dwc": ["encrypt", "--alg", "dwc", "--key", KEYS["dwc"], "--in", "{plain}", "--out", "{out}"],
    "decrypt-dwc": ["decrypt", "--alg", "dwc", "--key", KEYS["dwc"], "--in", "{plain}", "--out", "{out}"],
    "metrics": ["metrics", "--in", "{plain}", "--enc", "{other}"],
    "brute-hill": ["attack", "brute-hill", "--in", "{plain}", "--enc", "{hill}", "--mask", KEYS["ecchc"][:4] + "????"],
    "brute-dwc": ["attack", "brute-dwc", "--enc", "{plain}"],
}


def _inputs_2048():
    """The P5 bytes of the 2048² inputs COMMANDS_2048 name."""
    plain = gen_photo(0, 2048, 2048)
    hill = LIBRARY["encrypt", "ecchc"](plain)  # a pair that the key fits
    return {"plain": _p5(plain), "other": _p5(gen_photo(1, 2048, 2048)), "hill": _p5(hill)}


def _second_call_peak(run):
    """The traced peak of run()'s second call; the first builds the dwc
    tables and the parser.  Each call must return 0."""
    assert run() == 0
    tracemalloc.start()
    try:
        assert run() == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(COMMANDS_2048))
def test_a_2048_square_command_peaks_under_1_mib(tmp_path, capsys, name):
    paths = {"out": tmp_path / "out.pgm"}
    for key, data in _inputs_2048().items():
        paths[key] = tmp_path / f"{key}.pgm"
        paths[key].write_bytes(data)
    argv = [arg.format(**paths) for arg in COMMANDS_2048[name]]
    peak = _second_call_peak(lambda: cli.main(argv))
    capsys.readouterr()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["encrypt-ecchc", "metrics", "brute-hill"])
def test_a_2048_square_command_on_fifos_peaks_under_1_mib(tmp_path, capsys, name):
    inputs, paths = _inputs_2048(), {"out": tmp_path / "out.pgm"}
    for key in inputs:
        paths[key] = tmp_path / key
        os.mkfifo(paths[key])
    argv = [arg.format(**paths) for arg in COMMANDS_2048[name]]
    feeds = {paths[key]: data for key, data in inputs.items() if str(paths[key]) in argv}

    def write(path, data):
        with contextlib.suppress(BrokenPipeError):
            path.write_bytes(data)

    def run():
        writers = [threading.Thread(target=write, args=feed) for feed in feeds.items()]
        for writer in writers:
            writer.start()
        try:
            return cli.main(argv)
        finally:
            for path in feeds:
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))  # a writer still waiting to open ends
            for writer in writers:
                writer.join()

    peak = _second_call_peak(run)
    capsys.readouterr()
    assert peak < 1 << 20


def test_a_2048_square_file_whose_maxval_the_first_read_cuts_streams_under_1_mib(tmp_path):
    path = tmp_path / "in.pgm"
    path.write_bytes(_padded(_image((2048, 2048)), PGM_READ + 2))
    tracemalloc.start()
    try:
        with open_pgm(path) as src:
            for _ in src.chunks():
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_2048_square_dwc_partial_peaks_under_20_mib(tmp_path, capsys):
    # the recovered image streams; the stdout line, an 8 MiB run-length
    # code held by the capture, is the rest
    paths = {name: tmp_path / f"{name}.pgm" for name in ("enc", "out", "decrypted")}
    save_pgm(gen_photo(0, 2048, 2048), paths["enc"])
    argv = ["attack", "dwc-partial", "--enc", paths["enc"], "--out", paths["out"]]
    assert _run(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        assert cli.main([str(a) for a in argv]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 20 << 20
    argv = ["decrypt", "--alg", "dwc", "--key", "00", "--in", paths["enc"], "--out", paths["decrypted"]]
    assert _run(capsys, *argv) == (0, "", "")
    assert paths["out"].read_bytes() == paths["decrypted"].read_bytes()


# --- the attacks' summaries and errors -------------------------------------------


def test_dwc_partial_rle_is_the_run_length_code_of_the_mask(tmp_path, capsys):
    # (height, width): 4x1, 2x2, 6x2, 3x4 and 1x8 in width x height, then one streamed
    for shape in [(1, 4), (2, 2), (2, 6), (4, 3), (8, 1), (402, 1000)]:
        img = _image(shape)
        enc, out = tmp_path / "enc.pgm", tmp_path / "out.pgm"
        enc.write_bytes(_p5(img))
        recovered, mask = attacks.dwc_partial_recover(img)
        code, stdout, err = _run(capsys, "attack", "dwc-partial", "--enc", enc)
        doc = json.loads(stdout)
        assert (code, err, list(doc)) == (0, "", ["recovered_bytes_percent", "recovered_mask_rle", "elapsed_ms"])
        assert (doc["recovered_bytes_percent"], doc["recovered_mask_rle"]) == (75.0, rle(mask)), shape
        assert sorted(os.listdir(tmp_path)) == ["enc.pgm"]  # without --out, no image
        assert _run(capsys, "attack", "dwc-partial", "--enc", enc, "--out", out)[0] == 0
        assert out.read_bytes() == _p5(recovered)
        out.unlink()


def test_brute_dwc_on_a_streamed_file_is_the_in_memory_ranking(tmp_path, capsys):
    enc = dwc.dwc_encrypt(gen_photo(0, 1000, 402), 0x5F)
    path = tmp_path / "enc.pgm"
    path.write_bytes(_p5(enc, b"P5\n#\n%d %d # pad\n255\n"))
    code, stdout, err = _run(capsys, "attack", "brute-dwc", "--enc", path)
    ranking = attacks.brute_force_dwc(enc)
    expected = {
        "ranking": [{"key": f"{k:02x}", "score": score} for k, score in ranking],
        "best_key": "5f",
        "elapsed_ms": 0,
    }
    assert ranking[0][0] == 0x5F
    assert (code, err, json.loads(stdout) | {"elapsed_ms": 0}) == (0, "", expected)


def test_attack_errors_come_input_cipher_mask_dimensions_refusal_blockability(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.pgm" for name in ("good", "wide", "odd", "short")}
    paths["good"].write_bytes(_p5(_image((402, 1000))))
    paths["wide"].write_bytes(_p5(_image((1000, 402))))
    paths["odd"].write_bytes(_p5(_image((401, 999))))
    paths["short"].write_bytes(_p5(_image((402, 1000)))[:-7])
    short = f"{paths['short']}: expected 402000 pixels, got 401993"
    missing = f"[Errno 2] No such file or directory: '{tmp_path / 'missing.pgm'}'"
    directory = f"[Errno 21] Is a directory: '{tmp_path}'"
    odd = "pixel count 400599 is not a multiple of 4"
    cases = [
        (["brute-hill", "--in", "{short}", "--enc", "{missing}", "--mask", "zz"], 3, short),
        (["brute-hill", "--in", "{good}", "--enc", "{short}", "--mask", "zz"], 3, short),
        (["brute-hill", "--in", "{good}", "--enc", "{wide}", "--mask", "zz"], 4,
         "bad mask 'zz': mask must be 8 characters (4 byte slots)"),
        (["brute-hill", "--in", "{good}", "--enc", "{wide}"], 3, "plaintext/ciphertext size mismatch"),
        (["brute-hill", "--in", "{odd}", "--enc", "{odd}"], 5, "full 2^32 search refused; pass allow_full_search=True"),
        (["brute-hill", "--in", "{odd}", "--enc", "{odd}", "--full", "--out", "{dir}"], 3, odd),
        (["brute-hill", "--in", "{good}", "--enc", "{good}", "--mask", "01??02??"], 5, "no key matches the image pair"),
        (["brute-dwc", "--enc", "{missing}", "--out", "{dir}"], 3, missing),
        (["brute-dwc", "--enc", "{odd}", "--out", "{dir}"], 3, odd),
        (["brute-dwc", "--enc", "{good}", "--out", "{dir}"], 3, directory),
        (["dwc-partial", "--enc", "{short}", "--out", "{dir}"], 3, short),
        (["dwc-partial", "--enc", "{odd}", "--out", "{dir}"], 3, odd),
        (["dwc-partial", "--enc", "{good}", "--out", "{dir}"], 3, directory),
    ]
    names = {**paths, "missing": tmp_path / "missing.pgm", "dir": tmp_path}
    for argv, code, message in cases:
        result = _run(capsys, "attack", *(arg.format(**names) for arg in argv))
        assert (result[0], result[1], _error(result[2])) == (code, "", (code, message)), argv
