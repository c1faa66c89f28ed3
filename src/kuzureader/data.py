"""Page IO and the seeded synthetic document generator.

Synthetic documents stand in for a real corpus at desk scale: glyphs are
procedurally generated stroke bitmaps (distinct per token, seeded), and
documents stamp them into vertical columns read right to left, top to
bottom within a column. The generator is bit-deterministic per
(spec, seed) and keeps a placement log of where every character landed.

A page in memory is an H x W x 1 numpy array with at least one pixel, each
a finite real value in [0, 1] with dark ink mapped high (ink = 1.0,
background = 0.0); ``check_page`` is that rule, and ``write_pgm`` and
``encode`` run it. On disk a page is a binary P5 graymap that stores ink as
dark pixels (PGM value 0).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import DatasetError, DimensionError, NumericError
from .vocab import Vocabulary

# 46 visually distinct token names for synthetic glyph classes
GLYPH_ALPHABET = tuple("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJ")


# ---------------------------------------------------------------------------
# portable graymap IO (binary P5), bit-exact round trip


def check_size(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer >= ``minimum``, else ``DimensionError`` naming it."""
    try:
        if isinstance(value, bool):  # True is an int to Python, but no size or seed
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise DimensionError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise DimensionError(f"{name} must be >= {minimum}, got {number}")
    return number


def seeded_rng(*entropy) -> np.random.Generator:
    """The generator of one seeded draw; every entropy value must be an integer >= 0."""
    return np.random.default_rng(np.random.SeedSequence([check_size("seed", v, 0) for v in entropy]))


def check_real(name: str, value) -> np.ndarray:
    """``value`` as a float64 array if it is real-valued (bool, integer or float) and finite.

    Anything else (a string, a complex or object array, a NaN or an
    infinity) is a ``NumericError`` naming it.
    """
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise NumericError(f"{name} is not real-valued ({array.dtype})")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise NumericError(f"{name} has non-finite values")
    return array


def check_page(image) -> np.ndarray:
    """``image`` as a float64 page: an H x W x 1 numpy array with pixels, each in [0, 1].

    Any other object or shape is a ``DimensionError`` naming its type and
    shape; a pixel ``check_real`` refuses, or one outside [0, 1], is a
    ``NumericError``.
    """
    if not (isinstance(image, np.ndarray) and image.ndim == 3 and image.shape[2] == 1 and image.size):
        raise DimensionError(f"a page is an H x W x 1 numpy array with pixels, got "
                             f"{type(image).__name__} of shape {getattr(image, 'shape', None)}")
    page = check_real("page", image)
    if page.min() < 0.0 or page.max() > 1.0:
        raise NumericError("page has pixels outside [0, 1]")
    return page


def write_pgm(path, image: np.ndarray) -> None:
    """Write a page, checked (``check_page``) before the file is opened: a refused one leaves none."""
    gray = np.round((1.0 - check_page(image)[:, :, 0]) * 255.0).astype(np.uint8)  # ink -> dark
    h, w = gray.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 graymap back into H x W x 1 ink-high floats."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos == len(raw):
            raise DatasetError(f"{path}: truncated header")
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise DatasetError(f"{path}: not a binary P5 graymap")
    if not all(f.isdigit() for f in fields[1:]):
        raise DatasetError(f"{path}: non-numeric header fields {fields[1:]}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise DatasetError(f"{path}: unsupported maxval {maxval}")
    if w == 0 or h == 0:
        raise DatasetError(f"{path}: no pixels in a {w} x {h} graymap")
    data = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
    if data.size != w * h:
        raise DatasetError(f"{path}: truncated pixel data")
    # (255 - gray) / 255 reproduces k/255 bit-exactly for grid values
    gray = data.reshape(h, w).astype(np.float64)
    return ((255.0 - gray) / 255.0)[:, :, None]


# ---------------------------------------------------------------------------
# synthetic glyphs and documents


@dataclass
class Sample:
    image: np.ndarray           # H x W x 1 floats in [0, 1], ink high
    target: tuple[int, ...]     # vocabulary indices, no reserved tokens


@dataclass
class Placement:
    """Where one character was stamped, in reading order."""
    token_index: int
    top: int
    left: int
    bottom: int  # exclusive
    right: int   # exclusive


@dataclass(frozen=True)
class SynthSpec:
    """Layout ranges whose every document fits, proved at build (else ``DimensionError``).

    Each glyph must fit the smallest cell, ``canvas[0] // chars[1]`` by
    ``canvas[1] // lines[1]``, with ``(cell - glyph) // 2 >= jitter`` on both
    axes, and no two tokens may share one bitmap. ``build_spec`` holds the defaults.
    """
    canvas: tuple[int, int]                  # (height, width) pixels
    glyphs: dict[str, np.ndarray]            # token -> binary glyph bitmap
    lines: tuple[int, int]                   # columns per document, inclusive
    chars: tuple[int, int]                   # characters per column, inclusive
    jitter: int                              # max +/- pixel offset per glyph
    noise: float                             # per-pixel speckle probability
    seed: int

    def __post_init__(self):
        for name, pair in (("canvas", self.canvas), ("lines", self.lines), ("chars", self.chars)):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise DimensionError(f"{name} must be two integers, got {pair!r}")
            low, high = (check_size(name, value, 1) for value in pair)
            if name != "canvas" and low > high:
                raise DimensionError(f"empty {name} range {pair}")
        check_size("jitter", self.jitter, 0)
        check_size("seed", self.seed, 0)
        noise = self.noise
        if isinstance(noise, bool) or not isinstance(noise, numbers.Real) or not 0 <= noise <= 1:
            raise DimensionError(f"noise must be a real number within [0, 1], got {noise!r}")
        if not self.glyphs:
            raise DimensionError("glyph set is empty")
        cell = (self.canvas[0] // self.chars[1], self.canvas[1] // self.lines[1])
        first_token: dict[tuple, str] = {}  # a bitmap's (shape, bytes) -> its first token
        for token, glyph in self.glyphs.items():
            if min((c - g) // 2 for c, g in zip(cell, glyph.shape)) < self.jitter:
                raise DimensionError(f"glyph {token!r} {glyph.shape} with jitter {self.jitter} "
                                     f"does not fit the smallest {cell[0]}x{cell[1]} cell")
            first = first_token.setdefault((glyph.shape, glyph.tobytes()), token)
            if first != token:
                raise DimensionError(f"glyphs {first!r} and {token!r} share one bitmap")

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.glyphs.keys())

    def vocabulary(self) -> Vocabulary:
        return Vocabulary.from_characters(self.tokens)


def make_glyphs(tokens: Sequence[str], size: int, seed: int) -> dict[str, np.ndarray]:
    """Binary stroke bitmaps, one per token, deterministic per seed (``SynthSpec`` refuses twins)."""
    check_size("glyph_size", size, 3)  # strokes run between interior pixels 1..size-2
    glyphs: dict[str, np.ndarray] = {}
    for class_index, token in enumerate(tokens):
        rng = seeded_rng(seed, 0x617, class_index)
        bitmap = np.zeros((size, size))
        for _ in range(rng.integers(3, 6)):
            y0, x0, y1, x1 = rng.integers(1, size - 1, size=4)
            steps = 2 * size
            ys = np.round(np.linspace(y0, y1, steps)).astype(int)
            xs = np.round(np.linspace(x0, x1, steps)).astype(int)
            bitmap[ys, xs] = 1.0
            bitmap[np.minimum(ys + 1, size - 1), xs] = 1.0  # 2 px stroke width
        glyphs[token] = bitmap
    return glyphs


def build_spec(num_classes: int = 10, canvas: tuple[int, int] = (96, 64),
               lines: tuple[int, int] = (2, 2), chars: tuple[int, int] = (3, 3),
               glyph_size: int = 20, jitter: int = 2, noise: float = 0.0,
               seed: int = 0) -> SynthSpec:
    """Convenience factory: procedural glyphs over the default alphabet."""
    if check_size("num_classes", num_classes, 1) > len(GLYPH_ALPHABET):
        raise DimensionError(f"num_classes must be within 1..{len(GLYPH_ALPHABET)}")
    tokens = GLYPH_ALPHABET[:num_classes]
    glyphs = make_glyphs(tokens, glyph_size, seed)
    return SynthSpec(canvas=canvas, glyphs=glyphs, lines=lines, chars=chars,
                     jitter=jitter, noise=noise, seed=seed)


def generate_document_with_layout(spec: SynthSpec, seed: int) -> tuple[Sample, list[Placement]]:
    """One synthetic document plus its per-character placement log.

    Columns are laid out right to left; characters run top to bottom
    within a column, and the transcription follows the same order.
    """
    rng = seeded_rng(spec.seed, 0xD0C, seed)
    height, width = spec.canvas
    vocabulary = spec.vocabulary()
    tokens = spec.tokens

    n_cols = int(rng.integers(spec.lines[0], spec.lines[1] + 1))
    col_width = width // n_cols
    image = np.zeros((height, width, 1))
    target: list[int] = []
    placements: list[Placement] = []

    for col in range(n_cols):  # col 0 is the rightmost
        x_right = width - col * col_width
        x_left = x_right - col_width
        n_chars = int(rng.integers(spec.chars[0], spec.chars[1] + 1))
        cell_height = height // n_chars
        for row in range(n_chars):
            token = tokens[int(rng.integers(len(tokens)))]
            glyph = spec.glyphs[token]
            gh, gw = glyph.shape
            dy = int(rng.integers(-spec.jitter, spec.jitter + 1)) if spec.jitter else 0
            dx = int(rng.integers(-spec.jitter, spec.jitter + 1)) if spec.jitter else 0
            top = row * cell_height + (cell_height - gh) // 2 + dy  # centred, then jittered
            left = x_left + (col_width - gw) // 2 + dx
            region = image[top:top + gh, left:left + gw, 0]
            np.maximum(region, glyph, out=region)
            target.append(vocabulary.index(token))
            placements.append(Placement(token_index=target[-1], top=top, left=left,
                                        bottom=top + gh, right=left + gw))

    if spec.noise > 0:
        speckle = rng.random((height, width)) < spec.noise
        image[:, :, 0] = np.maximum(image[:, :, 0], speckle.astype(np.float64))

    # keep values on the 1/255 grid so the graymap round trip is bit-exact
    image = np.round(image * 255.0) / 255.0
    sample = Sample(image=image, target=tuple(target))
    return sample, placements


def generate_document(spec: SynthSpec, seed: int) -> Sample:
    sample, _ = generate_document_with_layout(spec, seed)
    return sample
