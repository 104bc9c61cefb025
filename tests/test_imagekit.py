import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cipher_autopsy import imagekit
from cipher_autopsy.imagekit import (
    MAP_CHUNK,
    PGM_READ,
    BadDimensionsError,
    GrayImage,
    PgmError,
    blocks_of,
    gen_checkerboard,
    gen_constant,
    gen_drawing,
    gen_noise,
    gen_photo,
    map_blocks,
    map_chunks,
    open_pgm,
    save_pgm,
)
from cipher_autopsy.metrics import evaluate_pair


def _saved_bytes(img):
    """The bytes of the file save_pgm writes for img."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "img.pgm"
        save_pgm(img, path)
        return path.read_bytes()


def _image(data: bytes, width: int, height: int) -> GrayImage:
    return GrayImage(np.frombuffer(data, dtype=np.uint8).reshape(height, width))


def _random_image(seed, w, h):
    return GrayImage(np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8))


# --- block codec ------------------------------------------------------------


def test_blocks_count_256x256():
    assert blocks_of(gen_noise(0)).shape == (16384, 4)


def test_blocks_smallest_case():
    img = _image(bytes([7, 9, 11, 13]), 2, 2)
    assert [tuple(b) for b in blocks_of(img)] == [(7, 9, 11, 13)]


def test_blocks_reject_non_multiple_of_4():
    img = _image(bytes(6), 3, 2)
    with pytest.raises(BadDimensionsError):
        blocks_of(img)


def test_images_of_the_same_bytes_in_two_shapes_are_unequal():
    data = bytes(range(8))
    assert _image(data, 4, 2) != _image(data, 2, 4)
    assert _image(data, 4, 2) == _image(data, 4, 2)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    w=st.integers(1, 24),
    h=st.integers(1, 24),
)
def test_blocks_bijection(seed, w, h):
    if (w * h) % 4:
        w *= 4
    img = _random_image(seed, w, h)
    assert map_blocks(img, lambda blocks, _: blocks) == img


# --- PGM codec ---------------------------------------------------------------


def _read(path, data):
    """open_pgm's image of a file at path holding data; a PgmError loses
    its path prefix."""
    path.write_bytes(data)
    try:
        with open_pgm(path) as src:
            return src.image()
    except PgmError as exc:
        prefix, message = f"{path}: ", str(exc)
        assert message.startswith(prefix)
        raise PgmError(message[len(prefix) :]) from None


# each example rewrites the one file in tmp_path
_ONE_FILE = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


@settings(_ONE_FILE, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_pgm_round_trip(tmp_path, seed):
    img = _random_image(seed, 16, 8)
    assert _read(tmp_path / "in.pgm", _saved_bytes(img)) == img


def test_pgm_p2_and_p5_parse_identically(tmp_path):
    img = _random_image(11, 5, 3)
    p5 = _saved_bytes(img)
    samples = " ".join(str(v) for v in img.pixels.ravel())
    p2 = f"P2\n5 3\n255\n{samples}\n".encode()
    assert _read(tmp_path / "p2.pgm", p2) == _read(tmp_path / "p5.pgm", p5)


def test_pgm_comments_tolerated(tmp_path):
    data = b"P5 # binary gray\n# another comment\n2 2\n# and one more\n255\n\x01\x02\x03\x04"
    img = _read(tmp_path / "in.pgm", data)
    assert img.tobytes() == b"\x01\x02\x03\x04"


def test_pgm_hand_written_minimal_header(tmp_path):
    # single-space separators throughout, written by hand
    img = _read(tmp_path / "in.pgm", b"P5 2 2 255 \x0a\x0b\x0c\x0d")
    assert img.width == 2 and img.height == 2
    assert img.tobytes() == b"\x0a\x0b\x0c\x0d"


def test_pgm_rejects_wide_maxval(tmp_path):
    with pytest.raises(PgmError, match="^maxval 65535 unsupported, need 255$"):
        _read(tmp_path / "in.pgm", b"P5\n2 2\n65535\n" + bytes(8))


def test_pgm_rejects_bad_magic(tmp_path):
    with pytest.raises(PgmError, match="^not a PGM: magic b'P6'$"):
        _read(tmp_path / "in.pgm", b"P6\n2 2\n255\n" + bytes(12))


def test_pgm_rejects_truncation(tmp_path):
    with pytest.raises(PgmError, match="^expected 16 pixels, got 3$"):
        _read(tmp_path / "in.pgm", b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PgmError, match="^expected 4 samples, got 3$"):
        _read(tmp_path / "in.pgm", b"P2\n2 2\n255\n1 2 3\n")


def test_pgm_rejects_out_of_range_ascii_sample(tmp_path):
    with pytest.raises(PgmError, match="^sample out of range for maxval 255$"):
        _read(tmp_path / "in.pgm", b"P2\n2 1\n255\n12 999\n")


def test_write_is_canonical_p5():
    img = _image(bytes([0, 128, 255, 7]), 2, 2)
    assert _saved_bytes(img) == b"P5\n2 2\n255\n\x00\x80\xff\x07"


def test_save_pgm_writes_the_bytes_of_write_pgm(tmp_path):
    img = _random_image(12, 7, 5)
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    assert path.read_bytes() == b"P5\n7 5\n255\n" + img.tobytes()
    with open_pgm(path) as src:
        assert src.image() == img


def test_pgm_accepts_the_forms_int_accepts(tmp_path):
    # a sign, leading zeros and digit-group underscores in the samples; the
    # header takes ASCII digits only, leading zeros included
    img = _read(tmp_path / "in.pgm", b"P2\n3 001\n0255\n007 +5 1_0\n")
    assert img.tobytes() == bytes([7, 5, 10])


@pytest.mark.parametrize(
    "header",
    [b"P2 3 1 +255", b"P2 3 1 2_55", b"P2 +3 1 255", b"P2 3 1_0 255", b"P5 3 1 \xd9\xa5", b"P5 3 1 " + b"0" * 4298 + b"255"],
    ids=["plus-maxval", "underscore-maxval", "plus-width", "underscore-height", "arabic-indic-digits", "4301-digits"],
)
def test_pgm_header_numbers_are_ascii_decimal_digits(tmp_path, header):
    data = header + b"\n007 +5 1_0\n"
    with pytest.raises(PgmError, match="^non-numeric header field$"):
        _read(tmp_path / "in.pgm", data)
    assert _read(tmp_path / "in.pgm", b"P5 3 1 " + b"0" * 4297 + b"255\n" + bytes(3)).tobytes() == bytes(3)  # 4,300 digits


@pytest.mark.parametrize("kind", ["whitespace", "one token", "comments"])
def test_pgm_junk_header_is_rejected_fast(tmp_path, kind):
    # 4 MiB of header took 1.4-2.8 s to reject when it was read a byte at a
    # time; open_pgm reads at most PGM_READ bytes of it, and of the comments
    # that read ends on a '#'
    message = "unterminated comment" if kind == "comments" else "truncated header"
    n = 4 << 20
    junk = {"whitespace": b" " * n, "one token": b" " + b"x" * n, "comments": b"\n" + b"#\n" * (n // 2)}
    data = b"P5" + junk[kind]
    start = time.perf_counter()
    with pytest.raises(PgmError, match=f"^{message}$"):
        _read(tmp_path / "in.pgm", data)
    assert time.perf_counter() - start < (1.0 if kind == "comments" else 0.25)


# --- PGM reader against the byte-at-a-time oracle ------------------------------


def _parse_outcome(parse, data):
    try:
        img = parse(data)
    except PgmError as exc:
        return type(exc), str(exc)
    return img.pixels.shape, img.tobytes()


_ws = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"])
_comment = st.builds(
    lambda text, end: b"#" + text + end,
    st.lists(st.sampled_from([b"a", b" ", b"#", b"\r", b"7", b"\x0c"]), max_size=4).map(b"".join),
    st.sampled_from([b"\n"] * 6 + [b"\r", b""]),
)
_gap = st.lists(st.one_of(_ws, _comment), max_size=3).map(b"".join)
_sep = st.one_of(st.just(b" "), st.builds(bytes.__add__, _ws, _gap), _gap)  # _gap may be empty
_dim = st.sampled_from([b"1", b"2", b"3", b"4"] * 6 + [b"+2", b"02", b"1_0", b"0", b"-1", b"x", b"1e3"])
_sample = st.one_of(
    st.integers(-3, 300).map(lambda v: str(v).encode()),
    st.sampled_from([b"+5", b"007", b"000255", b"1_0", b"x", b"5#6", b"\xff", b"9" * 20]),
)


def _p2_body(draw, n):
    """About n samples, so a lost one shows, with separators after each."""
    count = max(0, n + draw(st.integers(-1, 1)))
    return b"".join(draw(_sample) + draw(_sep) for _ in range(count))


@st.composite
def _pgm_inputs(draw):
    """Headers built from whitespace, comments and numeric forms, then a P5
    or P2 body, sometimes cut short anywhere."""
    magic = draw(st.sampled_from([b"P5", b"P2"] * 4 + [b"P6", b"P5#", b"#P5"]))
    maxval = draw(st.sampled_from([b"255"] * 4 + [b"+255", b"0255", b"2_55", b"256", b"ff"]))
    width, height = draw(_dim), draw(_dim)
    head = draw(_sep) + magic
    for field in (width, height, maxval):
        head += draw(_sep) + field
    head += draw(_ws)
    if magic == b"P2":
        body = _p2_body(draw, int(width) * int(height) if (width + height).isdigit() else 4)
    else:
        body = draw(st.binary(min_size=draw(st.integers(0, 16)), max_size=20))
    data = head + body
    if draw(st.sampled_from([False, False, False, True])):
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data


@settings(_ONE_FILE, max_examples=400)
@given(data=st.one_of(_pgm_inputs(), st.binary(max_size=40)))
@example(data=b"P2\n2 2\n255\n1 2 x 4\n")  # PgmError("non-numeric sample")
def test_open_pgm_matches_the_byte_at_a_time_oracle(tmp_path, data):
    # the same image, or the same error class and message
    path = tmp_path / "in.pgm"
    assert _parse_outcome(lambda d: _read(path, d), data) == _parse_outcome(oracles.read_pgm, data)


def _p2_samples(*samples):
    return b"P2 %d 1 255\n" % len(samples) + b" ".join(samples) + b"\n"


@pytest.mark.parametrize(
    "data",
    [
        _p2_samples(b"9" * 4300),
        _p2_samples(b"9" * 4301),
        _p2_samples(b"+" + b"9" * 4300),
        _p2_samples(b"-" + b"0" * 4301),
        _p2_samples(b"9_" * 4299 + b"9"),
        _p2_samples(b"9_" * 4300 + b"9"),
        _p2_samples(b"00" * 4000, b"1"),
        _p2_samples(*[b"7"] * ((PGM_READ - 3000) // 2), b"1" * 4301, b"7"),
        _p2_samples(*[b"7"] * ((PGM_READ - 3000) // 2), b"1" * 4300, b"7"),
        _p2_samples(b"7", b"9" * (PGM_READ + 10)),
    ],
    ids=["4300", "4301", "plus-4300", "minus-4301-zeros", "underscored-4300", "underscored-4301",
         "8000-zeros", "4301-across-a-read", "4300-across-a-read", "longer-than-a-read"],
)
@pytest.mark.parametrize("limit", [4300, 640, 0], ids=["limit-4300", "limit-640", "limit-off"])
def test_a_p2_sample_past_4300_digits_is_non_numeric_whatever_the_digit_limit(tmp_path, data, limit):
    # int() counts digits without the sign and underscores; the oracle
    # counts them in the samples it splits out
    with oracles.int_digit_limit(limit):
        assert _parse_outcome(lambda d: _read(tmp_path / "in.pgm", d), data) == _parse_outcome(oracles.read_pgm, data)


def test_long_p2_samples_are_refused_at_once_with_the_digit_limit_off(tmp_path):
    # int() took about 0.2 s over each of these with its limit off
    data = _p2_samples(*[b"9" * 131_000] * 20)
    with oracles.int_digit_limit(0):
        start = time.perf_counter()
        with pytest.raises(PgmError, match="^non-numeric sample$"):
            _read(tmp_path / "in.pgm", data)
        assert time.perf_counter() - start < 1


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_p2_pixels_of_a_body_cut_anywhere_match_the_oracle(data):
    width, height = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    head = b"P2 %d %d 255\n" % (width, height)
    body = _p2_body(data.draw, width * height)
    if data.draw(st.booleans()):  # an ending that cuts a token or a comment
        body += data.draw(st.sampled_from([b"7", b"#", b"#a"]))
    expected = _parse_outcome(oracles.read_pgm, head + body)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(body)), max_size=4)))
    drawn = [body[i:j] for i, j in zip([0, *cuts], [*cuts, len(body)])]
    each_byte = [body[i : i + 1] for i in range(len(body))]
    for pieces in (drawn, each_byte):
        try:
            outcome = (height, width), b"".join(imagekit._p2_pixels(iter(pieces), width * height))
        except PgmError as exc:
            outcome = type(exc), str(exc)
        assert outcome == expected, pieces


# --- generators ---------------------------------------------------------------


def test_checkerboard_entropy_exactly_one():
    board = gen_checkerboard()
    assert evaluate_pair(board, board).entropy_bits == 1.0


def test_checkerboard_blocks_are_constant():
    blocks = blocks_of(gen_checkerboard())
    assert bool(np.all((blocks == 0).all(axis=1) | (blocks == 255).all(axis=1)))


def test_checkerboard_top_left_black():
    assert gen_checkerboard().pixels[0, 0] == 0


@pytest.mark.parametrize("cell", [3, 6, 0, 12, 40])
def test_checkerboard_bad_cells(cell):
    # 12 and 40 are multiples of 4 but do not divide 256
    message = f"^cell {cell} must be a positive multiple of 4 dividing 256x256$"
    with pytest.raises(BadDimensionsError, match=message):
        gen_checkerboard(cell=cell)


def test_constant_properties():
    img = gen_constant(0)
    assert evaluate_pair(img, img).entropy_bits == 0.0
    assert img.pixels.min() == img.pixels.max() == 0
    with pytest.raises(ValueError):
        gen_constant(256)


def test_noise_determinism_and_entropy():
    assert gen_noise(9) == gen_noise(9)
    assert gen_noise(9) != gen_noise(10)
    noise = gen_noise(9)
    assert evaluate_pair(noise, noise).entropy_bits >= 7.99


@pytest.mark.parametrize("width,height", [(17, 18), (18, 17), (12, 12)])
def test_drawing_below_18_pixels_is_rejected_before_drawing(width, height):
    # seed -1 would make numpy's generator raise; the size check comes first
    with pytest.raises(ValueError, match="at least 18x18") as exc:
        gen_drawing(-1, width, height)
    assert f"{width}x{height}" in str(exc.value)


def test_drawing_at_18_pixels():
    img = gen_drawing(5, 18, 18)
    assert (img.width, img.height) == (18, 18)
    assert img == gen_drawing(5, 18, 18)


def test_open_pgm_error_starts_with_the_path(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PgmError, match="expected 16 pixels, got 3") as exc:
        open_pgm(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_drawing_regime():
    for seed in range(4):
        img = gen_drawing(seed)
        assert img == gen_drawing(seed)
        background = np.count_nonzero(img.pixels == 255) / img.size
        assert background >= 0.90
        assert evaluate_pair(img, img).entropy_bits < 2.0
        assert len(np.unique(img.pixels)) <= 4  # background plus 3 ink levels


def test_photo_determinism_and_shape():
    img = gen_photo(3)
    assert img == gen_photo(3)
    assert img.width == img.height == 256
    # photograph-like: lots of levels, mid-heavy histogram
    assert len(np.unique(img.pixels)) > 128
    assert 5.5 < evaluate_pair(img, img).entropy_bits < 8.0


# --- generators against the full-grid formulas ---------------------------------


def _oracle_checkerboard(cell):
    y, x = np.mgrid[:256, :256]
    board = (((x // cell) + (y // cell)) % 2) * np.uint8(255)
    return board.astype(np.uint8)


def _oracle_drawing(seed, width, height):
    rng = np.random.default_rng(seed)
    canvas = np.full((height, width), 255, dtype=np.uint8)
    for _ in range(2):
        w = int(rng.integers(width // 10, width // 5))
        h = int(rng.integers(height // 12, height // 6))
        x0 = int(rng.integers(0, width - w))
        y0 = int(rng.integers(0, height - h))
        canvas[y0 : y0 + h, x0 : x0 + w] = (0, 96, 176)[int(rng.integers(3))]
    cx = int(rng.integers(width // 4, 3 * width // 4))
    cy = int(rng.integers(height // 4, 3 * height // 4))
    rx = int(rng.integers(width // 16, width // 9))
    ry = int(rng.integers(height // 16, height // 9))
    yy, xx = np.mgrid[:height, :width]
    mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    canvas[mask] = (0, 96, 176)[int(rng.integers(3))]
    for _ in range(6):
        ink = (0, 96, 176)[int(rng.integers(3))]
        if rng.integers(2):
            r = int(rng.integers(height))
            x0, x1 = sorted(rng.integers(0, width, size=2))
            canvas[r, x0:x1] = ink
        else:
            c = int(rng.integers(width))
            y0, y1 = sorted(rng.integers(0, height, size=2))
            canvas[y0:y1, c] = ink
    return canvas


def _oracle_photo(seed, width, height):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[:height, :width].astype(np.float64)
    phase_x = rng.uniform(0, 2 * np.pi)
    phase_y = rng.uniform(0, 2 * np.pi)
    base = (
        128.0
        + 85.0
        * np.sin(2 * np.pi * xx / width + phase_x)
        * np.cos(2 * np.pi * yy / height + phase_y)
        + 44.0 * (xx / width - 0.5)
        + 30.0 * (yy / height - 0.5)
    )
    noise = rng.normal(0.0, 9.0, size=(height, width))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 96), height=st.integers(1, 96))
def test_photo_matches_full_grid_formula(seed, width, height):
    assert np.array_equal(gen_photo(seed, width, height).pixels, _oracle_photo(seed, width, height))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(18, 96), height=st.integers(18, 96))
def test_drawing_matches_full_grid_formula(seed, width, height):
    assert np.array_equal(gen_drawing(seed, width, height).pixels, _oracle_drawing(seed, width, height))


def test_checkerboard_matches_full_grid_formula():
    for cell in (4, 8, 16, 32, 64, 128, 256):  # every cell the 256x256 board takes
        assert np.array_equal(gen_checkerboard(cell).pixels, _oracle_checkerboard(cell))


@pytest.mark.parametrize("seed", [0, 7])
def test_generators_match_full_grid_formulas_on_a_large_image(seed):
    # gen_photo draws 2^14-pixel row bands: 1000x131 ends on a part band,
    # a (2^16 + 3)-wide image takes one row per band, and 2048^2 takes 256
    for width, height in [(1024, 512), (1000, 131), ((1 << 16) + 3, 2), (2048, 2048)]:
        assert np.array_equal(gen_photo(seed, width, height).pixels, _oracle_photo(seed, width, height))
    for width, height in [(1024, 512), (2048, 2048)]:
        assert np.array_equal(gen_drawing(seed, width, height).pixels, _oracle_drawing(seed, width, height))


@pytest.mark.parametrize("gen", [gen_photo, gen_drawing])
def test_generators_at_2048_peak_at_the_image_plus_2_mib(gen):
    gen(0, 2048, 2048)
    tracemalloc.start()
    try:
        gen(0, 2048, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2048 * 2048 + (2 << 20)


@pytest.mark.parametrize("width, height", [(0, 5), (5, 0), (-1, 5)])
def test_photo_of_an_empty_or_negative_size_raises_value_error(width, height):
    with pytest.raises(ValueError):
        gen_photo(0, width, height)


# --- block map ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, MAP_CHUNK, MAP_CHUNK + 1, 2 * MAP_CHUNK + 3])
def test_map_blocks_feeds_consecutive_chunks_in_order(n):
    img = GrayImage((np.arange(4 * n) % 256).astype(np.uint8).reshape(-1, 4))
    calls = []

    def kernel(chunk, start):
        calls.append((start, len(chunk)))
        return 255 - chunk

    out = map_blocks(img, kernel)
    assert out.pixels.shape == img.pixels.shape
    assert np.array_equal(out.pixels, 255 - img.pixels)
    assert calls == [(s, min(MAP_CHUNK, n - s)) for s in range(0, n, MAP_CHUNK)]
    blocks = MAP_CHUNK // 2  # the brute-dwc ranking's chunk
    calls.clear()
    assert np.array_equal(np.concatenate(list(map_chunks(img, kernel, blocks))), 255 - blocks_of(img))
    assert calls == [(s, min(blocks, n - s)) for s in range(0, n, blocks)]


def test_map_blocks_rejects_unblockable_before_calling_the_kernel():
    def kernel(chunk, start):
        raise AssertionError("kernel called")

    with pytest.raises(BadDimensionsError):
        map_blocks(GrayImage(np.zeros((3, 3), dtype=np.uint8)), kernel)
