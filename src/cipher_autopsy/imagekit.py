"""Image container, bit-exact PGM I/O, the block codec both ciphers share,
and deterministic generators for the demonstration images.

The canonical block order is defined once, here: the raster is flattened
row-major and cut into consecutive groups of 4 pixels, so a block index
means the same thing in every cipher and attack.  map_chunks, the one walk
that gives a kernel its blocks' offsets, feeds it the block sequence in
chunks: of an image in memory (map_blocks reassembles the raster) or of a
PGM file opened with open_pgm (its header within the first PGM_READ bytes,
128 KiB), whose pixels can go from file to kernel to write_pgm one chunk
at a time.  Each consumer names its chunk size: the cipher kernels
MAP_CHUNK blocks (128 KiB), metrics 2^15 pixels and the brute-dwc ranking
half a MAP_CHUNK.
Of the generators, gen_photo fills its raster in row bands of 2^14 pixels,
so its float64 work is one band at any image size.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import stat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np


class PgmError(ValueError):
    """A PGM input the codec refuses: a malformed header or sample, a
    maxval other than 255, or fewer pixels than the header declares."""


class BadDimensionsError(ValueError):
    """Image sizes the call refuses: a pixel count not blockable, sizes
    outside a cipher's domain, two images of different sizes, or a
    checkerboard cell that is not a positive multiple of 4 dividing 256."""


MAP_CHUNK = 1 << 15  # blocks per kernel call: 128 KiB, so temporaries stay in L2
PGM_READ = 1 << 17  # bytes per open_pgm read; a header must end in the first


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


def _read_header(data: bytes, partial: bool = False) -> tuple[bytes, int, int, int]:
    """The magic, width, height and pixel offset of a PGM header.  If data
    is partial, a maxval token that runs to its end may go on past it, so
    it is not checked."""
    magic, _ = _header_tokens(data, 1)
    if magic[0] not in (b"P5", b"P2"):
        raise PgmError(f"not a PGM: magic {magic[0][:16]!r}")
    tokens, offset = _header_tokens(data, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise PgmError("non-numeric header field") from exc
    if width <= 0 or height <= 0:
        raise PgmError("non-positive dimensions")
    if maxval != 255 and not (partial and offset > len(data)):
        raise PgmError(f"maxval {maxval} unsupported, need 255")
    return tokens[0], width, height, offset


def _check_payload(n: int, got: int) -> None:
    if got < n:
        raise PgmError(f"expected {n} pixels, got {got}")


def read_pgm(data: bytes) -> GrayImage:
    """Parse a P5 (binary) or P2 (ASCII) PGM with maxval 255."""
    magic, width, height, offset = _read_header(data)
    n = width * height
    if magic == b"P5":
        _check_payload(n, max(0, len(data) - offset))
        # P5 pixels are a read-only view of the payload in `data`, not a copy.
        pixels = np.frombuffer(data, dtype=np.uint8, count=n, offset=offset)
        return GrayImage(pixels.reshape(height, width))
    # ASCII samples; any '#' starts a comment that runs to the line's end.
    fields = re.sub(rb"#[^\r\n]*", b"", data[offset:]).split()
    if len(fields) < n:
        raise PgmError(f"expected {n} samples, got {len(fields)}")
    try:
        values = [int(f) for f in fields[:n]]
    except ValueError as exc:
        raise PgmError("non-numeric sample") from exc
    if any(v < 0 or v > 255 for v in values):
        raise PgmError("sample out of range for maxval 255")
    return GrayImage(np.frombuffer(bytes(values), dtype=np.uint8).reshape(height, width))


class PgmSource:
    """A PGM file opened by open_pgm: header, size and truncation checked.

    chunks(pixels) yields the pixels in raster order, that many at a time
    (by default MAP_CHUNK blocks, 128 KiB), read into one buffer per call:
    a chunk is valid only until the next one.  image() is the one-chunk
    call, so its array is its own.  A regular P5 file is read from the
    file, so memory does not grow with the image; P2, or a pipe or device
    (P5 only as far as its header declares, in pieces as the data comes),
    is read whole and served from memory.  Use it as a context manager.
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
    """Open a PGM file and run read_pgm's checks, the header's on the first
    PGM_READ bytes read alone; a PgmError's message starts with the path."""
    fh = open(path, "rb")
    try:
        head = b""  # in read1 pieces, which a held-open pipe returns, until the header ends
        while len(head) < PGM_READ and (piece := fh.read1(PGM_READ - len(head))):
            head += piece
            with contextlib.suppress(PgmError):
                if _header_tokens(head, 4)[1] <= len(head):
                    break
        magic, width, height, offset = _read_header(head, partial=True)
        st = os.fstat(fh.fileno())
        # stream a regular P5 file if the whitespace ending its maxval is in head
        if magic == b"P5" and stat.S_ISREG(st.st_mode) and offset <= len(head):
            _check_payload(width * height, st.st_size - offset)
            return PgmSource(fh, path, width, height, offset)
        end = offset + width * height if magic == b"P5" else float("inf")  # P2 to EOF
        data = bytearray(head)
        while len(data) < end and (piece := fh.read1(PGM_READ)):  # not read(n): it allocates n
            data += piece
        fh.close()
        return PgmSource(io.BytesIO(read_pgm(data).pixels), path, width, height, 0)
    except BaseException as exc:
        fh.close()
        if isinstance(exc, PgmError):
            raise PgmError(f"{path}: {exc}") from None
        raise


def load_pgm(path) -> GrayImage:
    """The image of a PGM file; a PgmError's message starts with the path."""
    with open_pgm(path) as src:
        return src.image()


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
