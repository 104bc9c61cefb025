"""Image container, bit-exact PGM I/O, the block codec both ciphers share,
and deterministic generators for the demonstration images.

The canonical block order is defined once, here: the raster is flattened
row-major and cut into consecutive groups of 4 pixels, so a block index
means the same thing in every cipher and attack.  map_chunks, the one walk
that gives a kernel its blocks' offsets, feeds it the block sequence in
chunks: of an image in memory (map_blocks reassembles the raster) or of a
PGM file opened with open_pgm (its header in the first PGM_READ bytes,
128 KiB, bar a maxval's tail), whose pixels can go from file to kernel to
write_pgm one chunk at a time: from the input itself if it is a regular
P5 file, or else from a spool, an unlinked temporary file in TMPDIR that
open_pgm, the one PGM reader, puts the pixels into (a P2 body parsed piece
by piece) if the free space there holds them.  Each command names its chunk
size: the ciphers and ecb-scan MAP_CHUNK blocks (128 KiB), metrics 2^15
pixels, brute-dwc half a MAP_CHUNK; only report's fixtures are read whole.
Of the generators, gen_photo fills its raster in row bands of 2^14 pixels,
so its float64 work is one band at any image size.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
import tempfile
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np


class PgmError(ValueError):
    """A PGM input open_pgm refuses: a malformed header or sample, a
    maxval other than 255, fewer pixels than the header declares, or more
    than the free space for a spool holds."""


class BadDimensionsError(ValueError):
    """Image sizes the call refuses: a pixel count not blockable, sizes
    outside a cipher's domain, two images of different sizes, or a
    checkerboard cell that is not a positive multiple of 4 dividing 256."""


MAP_CHUNK = 1 << 15  # blocks per kernel call: 128 KiB, so temporaries stay in L2
PGM_READ = 1 << 17  # bytes per open_pgm read; a header must end in the first
_DIGITS = 4300  # the most digits a header number or a sample may have: int()'s default limit
_SAFE = 640  # the lowest digit limit int() takes: this many digits it reads, and writes, at any setting
_INT = re.compile(rb"[+-]?[0-9](?:_?[0-9])*")  # what int() reads in base 10 from a P2 field


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale raster; pixels shape (height, width), read-only.
    Never empty, as no PGM is: no metric, cipher or attack meets one."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def size(self) -> int:
        return self.pixels.size

    def tobytes(self) -> bytes:
        return self.pixels.tobytes()

    def chunks(self, pixels: int = 4 * MAP_CHUNK) -> Iterator[np.ndarray]:
        """The pixels in raster order, that many at a time, as flat views."""
        flat = self.pixels.reshape(-1)
        return (flat[s : s + pixels] for s in range(0, flat.size, pixels))

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


def blocks_of(img: GrayImage) -> np.ndarray:
    """Split into the canonical block sequence: (n, 4) uint8 array."""
    return img.pixels.reshape(block_count(img), 4)


def block_count(img) -> int:
    """The number of canonical blocks of a GrayImage or PgmSource."""
    if img.size % 4 != 0:
        raise BadDimensionsError(
            f"pixel count {img.size} is not a multiple of 4"
        )
    return img.size // 4


Kernel = Callable[[np.ndarray, int], np.ndarray]


def map_chunks(img, kernel: Kernel, blocks: int = MAP_CHUNK) -> Iterator[np.ndarray]:
    """Apply a block cipher kernel over the canonical block sequence of a
    GrayImage or PgmSource whose pixel count is a multiple of 4.

    kernel(chunk, start) maps the (m, 4) uint8 blocks start .. start+m-1 to
    their (m, 4) output; it is called on consecutive chunks of `blocks`
    blocks (MAP_CHUNK for the ciphers, half that for the brute-dwc
    ranking), and the outputs are yielded in order.
    """
    start = 0
    for pixels in img.chunks(4 * blocks):
        chunk = pixels.reshape(-1, 4)
        yield kernel(chunk, start)
        start += len(chunk)


def map_blocks(img: GrayImage, kernel: Kernel) -> GrayImage:
    """map_chunks over an image in memory, reassembled into a raster."""
    out = np.empty_like(blocks_of(img))
    for start, chunk in zip(range(0, len(out), MAP_CHUNK), map_chunks(img, kernel)):
        out[start : start + MAP_CHUNK] = chunk
    return GrayImage(out.reshape(img.height, img.width))


# ---------------------------------------------------------------------------
# PGM codec: binary P5 and ASCII P2, maxval 255 only, comments tolerated.
# ---------------------------------------------------------------------------

# Whitespace and whole '#' comments (a comment starts only where a token could
# and runs to the next '\n'), then the token if there is one.
_TOKEN = re.compile(
    rb"[ \t\n\r\x0b\x0c]*(?:#[^\n]*\n[ \t\n\r\x0b\x0c]*)*([^ \t\n\r\x0b\x0c#][^ \t\n\r\x0b\x0c]*)?"
)
_RUN = re.compile(rb"[^ \t\n\r\x0b\x0c]*")  # a P2 body's token, or the empty run at whitespace


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated tokens, skipping '#' comments.

    Returns the tokens and the offset one byte past the whitespace byte
    that terminated the last token.  Each token is one _TOKEN match (it
    cannot fail: the token is optional), so any header is read at C speed.
    """
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        m = _TOKEN.match(data, pos)
        if m[1] is None:  # at the end of data, or at a comment with no '\n'
            comment = data[m.end() : m.end() + 1] == b"#"
            raise PgmError("unterminated comment" if comment else "truncated header")
        tokens.append(m[1])
        pos = m.end() + 1  # consume the single whitespace byte ending the token
    return tokens, pos


def _read_header(data: bytes) -> tuple[bytes, int, int, int]:
    """The magic, width, height and pixel offset of a PGM header, each checked."""
    magic, _ = _header_tokens(data, 1)
    if magic[0] not in (b"P5", b"P2"):
        raise PgmError(f"not a PGM: magic {magic[0][:16]!r}")
    tokens, offset = _header_tokens(data, 4)
    if not all(t.isdigit() and len(t) <= _DIGITS for t in tokens[1:4]):  # ASCII digits only
        raise PgmError("non-numeric header field")
    # compared by their significant digits, so int() reads at most _SAFE
    # digits and the size's messages write at most _SAFE, whatever its limit
    width, height, maxval = (t.lstrip(b"0") for t in tokens[1:4])
    if not width or not height:
        raise PgmError("non-positive dimensions")
    if maxval != b"255":
        raise PgmError(f"maxval {maxval.decode() or 0} unsupported, need 255")
    if len(width) + len(height) > _SAFE:
        raise PgmError(
            f"dimensions of {len(width)} and {len(height)} digits: at least 10^{_SAFE - 1} pixels declared"
        )
    return tokens[0], int(width), int(height), offset


def _check_payload(n: int, got: int) -> None:
    if got < n:
        raise PgmError(f"expected {n} pixels, got {max(0, got)}")


def _short_sample(field: bytes) -> bytes:
    """A field of at most 4 bytes that int() reads as it reads `field`
    under its default limit: b"x" where it raises (not a number, or more
    than _DIGITS digits, counted without sign and underscores), else its
    minus sign and significant digits, or b"256" for any value past 3 digits."""
    if not _INT.fullmatch(field):
        return b"x"
    digits = field.lstrip(b"+-").replace(b"_", b"")
    if len(digits) > _DIGITS:
        return b"x"
    significant = digits.lstrip(b"0")
    sign = b"-" if field.startswith(b"-") else b""
    return b"256" if len(significant) > 3 else sign + (significant or b"0")


def _p2_pixels(pieces: Iterable[bytes], n: int) -> Iterator[bytes]:
    """The first n samples of a P2 body, in pieces of at most PGM_READ
    bytes, as pixel bytes.  Each piece is parsed up to its last whitespace
    byte outside a comment, the rest carried into the next: a partial token
    whole (up to PGM_READ bytes, else as b"x"), an open comment as its '#'
    alone.  A sample of more than _DIGITS digits is non-numeric, whatever
    int()'s digit limit: int() sees no sample of more than _SAFE bytes,
    but the short form of its value (_short_sample).  No piece is taken once n
    samples are in.  Errors come in this order: too few samples, a
    non-numeric one among the first n, one out of range."""
    got, error, carry = 0, None, b""
    for piece in chain(pieces, [None]):  # None: the end, where the carry is parsed whole
        data, carry = carry + (piece or b""), b""
        if piece is not None:
            eol = max(data.rfind(b"\n"), data.rfind(b"\r"))
            end = data.find(b"#", eol + 1) % (len(data) + 1)  # an open comment's '#', else len(data)
            cut = 1 + max(data.rfind(c, 0, end) for c in b" \t\n\r\x0b\x0c")
            token = data[cut:end] if end - cut <= PGM_READ else b"x"  # int() refuses "x" and what follows
            data, carry = data[:cut], token + data[end : end + 1]
        # a '#' starts a comment wherever it stands, and a CR or LF ends it
        data = re.sub(rb"#[^\r\n]*", b"", data)
        fields = data.split()[: n - got]
        # a token longer than _SAFE covers one offset in each _SAFE + 1: those
        # tokens are measured back from their ends
        ends = (_RUN.match(data, k).end() for k in range(_SAFE, len(data), _SAFE + 1))
        if any(e > _SAFE and _RUN.fullmatch(data, e - _SAFE - 1, e) for e in ends):
            fields = [f if len(f) <= _SAFE else _short_sample(f) for f in fields]
        got += len(fields)
        try:
            pixels = bytes(map(int, fields))
        except ValueError:  # a non-numeric sample, or one out of range
            try:
                list(map(int, fields))
                error = error or "sample out of range for maxval 255"
            except ValueError:
                error = "non-numeric sample"
        else:
            if error is None:
                yield pixels
        if got == n:
            break
    if got < n:
        raise PgmError(f"expected {n} samples, got {got}")
    if error:
        raise PgmError(error)


class PgmSource:
    """A PGM opened by open_pgm: header, size and truncation checked.

    chunks(pixels) yields the pixels in raster order, that many at a time
    (by default MAP_CHUNK blocks, 128 KiB), read into one buffer per call:
    a chunk is valid only until the next one.  image() is the one-chunk
    call, so its array is its own.  The pixels are read from a seekable
    file: a regular P5 input itself, or else the spool open_pgm copied the
    input's pixels into, so memory does not grow with the image.  Use it
    as a context manager; leaving it closes the file.
    """

    def __init__(self, fh, path, width: int, height: int, offset: int):
        self._fh, self._path, self._offset = fh, path, offset
        self.width, self.height = width, height

    @property
    def size(self) -> int:
        return self.width * self.height

    def chunks(self, pixels: int = 4 * MAP_CHUNK) -> Iterator[np.ndarray]:
        buf = np.empty(min(pixels, self.size), dtype=np.uint8)
        self._fh.seek(self._offset)
        for start in range(0, self.size, buf.size):
            out = buf[: self.size - start]
            if self._fh.readinto(out) != out.size:
                raise PgmError(f"{self._path}: file shrank while it was read")
            yield out

    def image(self) -> GrayImage:
        """All the pixels in memory."""
        (pixels,) = self.chunks(self.size)
        return GrayImage(pixels.reshape(self.height, self.width))

    def __enter__(self) -> "PgmSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()


def open_pgm(path) -> PgmSource:
    """Open a PGM file and check its header, read whole once: in the first
    PGM_READ bytes, bar the rest of a maxval token that starts there.  A
    regular P5 file is served as it is.  Any other input (P2, a pipe, a
    device) has its pixels put into a spool, a temporary file in TMPDIR
    unlinked on creation, piece by piece up to the last pixel, so it is
    checked in full before the call returns; a declared size larger than
    the free space there is refused.  A PgmError's message starts with the path."""
    fh = open(path, "rb")
    try:
        head, cap = b"", PGM_READ  # in read1 pieces, which a held-open pipe returns, until the header ends
        while len(head) < cap and (piece := fh.read1(min(PGM_READ, cap - len(head)))):  # each at most PGM_READ, as is then a P2 body's first piece
            head += piece
            with contextlib.suppress(PgmError):
                if _header_tokens(head, 4)[1] <= len(head):
                    break
                cap = 2 * PGM_READ  # the maxval token runs on: to its end, or past _DIGITS
        magic, width, height, offset = _read_header(head)
        n, st = width * height, os.fstat(fh.fileno())
        if magic == b"P5" and stat.S_ISREG(st.st_mode):
            _check_payload(n, st.st_size - offset)
            return PgmSource(fh, path, width, height, offset)
        with fh, contextlib.ExitStack() as on_error:
            spool = on_error.enter_context(tempfile.TemporaryFile())
            st = os.fstatvfs(spool.fileno())
            if n > (free := st.f_bavail * st.f_frsize):
                raise PgmError(f"{n} pixels declared, more than the {free} bytes free to spool them")
            if magic == b"P5":  # to the declared end and no further: a writer may hold a pipe open
                got = spool.write(head[offset : offset + n])
                while got < n and (piece := fh.read1(min(PGM_READ, n - got))):  # not read(n): it allocates n
                    got += spool.write(piece)
                _check_payload(n, got)
            else:
                pieces = chain([head[offset:]], iter(lambda: fh.read1(PGM_READ), b""))
                spool.writelines(_p2_pixels(pieces, n))
            on_error.pop_all()
            return PgmSource(spool, path, width, height, 0)
    except BaseException as exc:
        fh.close()
        if isinstance(exc, PgmError):
            raise PgmError(f"{path}: {exc}") from None
        raise


def _keep_contents(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_pgm(path, width: int, height: int, chunks: Iterable) -> None:
    """Write canonical binary P5 (single separators, no comments) from the
    pixel chunks in raster order.

    An existing file is rewritten in place and then trimmed to the new
    length, never truncated to zero first: on ext4 (auto_da_alloc) a
    truncate to zero makes close start writeback of the whole file.  Only
    a regular file is trimmed, so /dev/null works.  The header written is
    the shortest a PGM of these dimensions can have, so when the chunks are
    read from the same file, each write lands behind the reads still to
    come: the output may be the input.
    """
    with open(os.fspath(path), "wb", opener=_keep_contents) as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        for chunk in chunks:
            fh.write(chunk)
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
            fh.truncate()


def save_pgm(img: GrayImage, path) -> None:
    """write_pgm of an image in memory."""
    write_pgm(path, img.width, img.height, (img.pixels,))


# ---------------------------------------------------------------------------
# Deterministic generators.
# ---------------------------------------------------------------------------


def gen_checkerboard(cell: int = 32) -> GrayImage:
    """Alternating 0/255 cells on a 256x256 board, top-left black.

    The cell width must be a multiple of 4 so every canonical block falls
    inside one cell; that is what makes the board invariant under the
    Hill-cipher layer.
    """
    if cell <= 0 or cell % 4 != 0 or 256 % cell != 0:
        raise BadDimensionsError(f"cell {cell} must be a positive multiple of 4 dividing 256x256")
    parity = (np.arange(256) // cell % 2).astype(np.uint8)
    return GrayImage((parity[:, None] ^ parity) * np.uint8(255))


def gen_constant(value: int, width: int = 256, height: int = 256) -> GrayImage:
    """Single-color fill."""
    if not 0 <= value <= 255:
        raise ValueError("pixel value out of range")
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def gen_noise(seed: int, width: int = 256, height: int = 256) -> GrayImage:
    """Seeded uniform bytes."""
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, 256, size=(height, width), dtype=np.uint8))


_INK = (0, 96, 176)  # three ink levels on a white background
# Pixels per gen_photo band.  Its float64 temporaries stay at 128 KiB, which
# malloc keeps from call to call; two of 512 KiB leave a heap top that glibc
# trims after each call and faults back in on the next.
_PHOTO_BAND = 1 << 14


def gen_drawing(seed: int = 0, width: int = 256, height: int = 256) -> GrayImage:
    """Synthetic line drawing: white background, a few filled shapes and
    1-pixel strokes in at most three gray levels.

    Mimics the uniform-color-area images that defeat codebook-style
    encryption; the background dominates (well over 90% of pixels).
    Both sides must be at least 18 pixels (the ellipse radius ranges are
    empty below that); smaller sizes raise ValueError before any draw.
    """
    if width < 18 or height < 18:
        raise ValueError(f"drawing needs at least 18x18 pixels, got {width}x{height}")
    rng = np.random.default_rng(seed)
    canvas = np.full((height, width), 255, dtype=np.uint8)

    # two filled rectangles
    for _ in range(2):
        w = int(rng.integers(width // 10, width // 5))
        h = int(rng.integers(height // 12, height // 6))
        x0 = int(rng.integers(0, width - w))
        y0 = int(rng.integers(0, height - h))
        canvas[y0 : y0 + h, x0 : x0 + w] = _INK[int(rng.integers(len(_INK)))]

    # one filled ellipse
    cx = int(rng.integers(width // 4, 3 * width // 4))
    cy = int(rng.integers(height // 4, 3 * height // 4))
    rx = int(rng.integers(width // 16, width // 9))
    ry = int(rng.integers(height // 16, height // 9))
    # tested on its bounding box only, which lies inside the canvas
    # (cx >= width//4 > width//9 > rx, and so for y): no pixel outside it
    # can pass, and the offsets are the ones the whole-canvas test sees
    yy, xx = np.ogrid[-ry : ry + 1, -rx : rx + 1]
    mask = (xx / rx) ** 2 + (yy / ry) ** 2 <= 1.0
    box = canvas[cy - ry : cy + ry + 1, cx - rx : cx + rx + 1]
    box[mask] = _INK[int(rng.integers(len(_INK)))]

    # a handful of 1-pixel strokes
    for _ in range(6):
        ink = _INK[int(rng.integers(len(_INK)))]
        if rng.integers(2):
            r = int(rng.integers(height))
            x0, x1 = sorted(rng.integers(0, width, size=2))
            canvas[r, x0:x1] = ink
        else:
            c = int(rng.integers(width))
            y0, y1 = sorted(rng.integers(0, height, size=2))
            canvas[y0:y1, c] = ink

    return GrayImage(canvas)


def gen_photo(seed: int = 0, width: int = 256, height: int = 256) -> GrayImage:
    """Seeded stand-in for a photograph: smooth low-frequency shading plus
    mild pixel noise, values spread around mid-gray.

    Used wherever a test needs photograph-like redundancy without shipping
    copyrighted test images.
    """
    raster = np.empty((height, width), dtype=np.uint8)  # a negative size raises here
    rng = np.random.default_rng(seed)
    # a row of x and a column of y, broadcast: the same per-pixel arithmetic
    # as full coordinate grids, without building them
    xx = np.arange(width, dtype=np.float64)
    phase_x = rng.uniform(0, 2 * np.pi)
    phase_y = rng.uniform(0, 2 * np.pi)
    # Amplitudes picked so the value spread around mid-gray lands in the
    # same UACI-against-noise regime as the usual photographic test images
    # (about 28%), while neighboring pixels stay within a few gray levels.
    # Each band is summed in place in the order 128 + shading + ramps +
    # noise, and the bands' normal draws follow each other in one stream,
    # so every pixel is the whole-grid formula's.
    shading_x = 85.0 * np.sin(2 * np.pi * xx / width + phase_x)
    ramp_x = 44.0 * (xx / width - 0.5)
    rows = max(1, _PHOTO_BAND // max(width, 1))  # width 0 gets to GrayImage's refusal
    for top in range(0, height, rows):
        yy = np.arange(top, min(top + rows, height), dtype=np.float64)[:, None]
        band = shading_x * np.cos(2 * np.pi * yy / height + phase_y)
        band += 128.0
        band += ramp_x
        band += 30.0 * (yy / height - 0.5)
        band += rng.normal(0.0, 9.0, size=band.shape)
        raster[top : top + rows] = np.clip(band, 0, 255, out=band)
    return GrayImage(raster)
