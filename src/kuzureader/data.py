"""Dataset ingestion and the seeded synthetic document generator.

Synthetic documents stand in for a real corpus at desk scale: glyphs are
procedurally generated stroke bitmaps (distinct per token, seeded), and
documents stamp them into vertical columns read right to left, top to
bottom within a column. The generator is bit-deterministic per
(spec, seed) and keeps a placement log of where every character landed.

On-disk layout of a dataset directory:

    root/labels.tsv          one row per sample: image path <TAB> tokens
    root/images/<id>.pgm     binary P5 graymap, lossless
    root/vocab.txt           vocabulary file
    root/split.json          train/validation/test manifest, written separately
                             by ``SplitManifest.save``

Images store ink as dark pixels (PGM value 0); in memory pixels live in
[0, 1] with dark ink mapped high (ink = 1.0, background = 0.0).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_origin

import numpy as np

from .autodiff import DatasetError, DimensionError, NumericError
from .vocab import Vocabulary, read_text

logger = logging.getLogger(__name__)

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


def check_pixels(pixels: np.ndarray) -> None:
    """Raise ``NumericError`` unless every pixel is a finite value in [0, 1]."""
    if not np.isfinite(pixels).all():
        raise NumericError("image has non-finite pixels")
    if np.min(pixels, initial=0.0) < 0.0 or np.max(pixels, initial=1.0) > 1.0:
        raise NumericError("image has pixels outside [0, 1]")


def _pgm_bytes(image: np.ndarray) -> bytes:
    """The P5 graymap of an H x W or H x W x 1 array of [0, 1] ink-high values.

    Any other shape, and an image with no pixels (which ``read_pgm`` would
    refuse), raises ``DimensionError``.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim != 2:
        raise DimensionError(f"expected a single-channel H x W or H x W x 1 image, "
                             f"got shape {np.shape(image)}")
    if arr.size == 0:
        raise DimensionError(f"image has no pixels: shape {np.shape(image)}")
    check_pixels(arr)
    gray = np.round((1.0 - arr) * 255.0).astype(np.uint8)  # ink -> dark
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes()


def write_pgm(path, image: np.ndarray) -> None:
    """Write an H x W or H x W x 1 array of [0, 1] ink-high values.

    The shape and the pixels are checked before the file is opened, so a
    refused image leaves no file.
    """
    Path(path).write_bytes(_pgm_bytes(image))


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
    id: str


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
            if len(pair) != 2:
                raise DimensionError(f"{name} must be two integers, got {pair!r}")
            low, high = (check_size(name, value, 1) for value in pair)
            if name != "canvas" and low > high:
                raise DimensionError(f"empty {name} range {pair}")
        check_size("jitter", self.jitter, 0)
        check_size("seed", self.seed, 0)
        if not 0 <= self.noise <= 1:
            raise DimensionError(f"noise must be within [0, 1], got {self.noise}")
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
    sample = Sample(image=image, target=tuple(target), id=f"doc{seed:05d}")
    return sample, placements


def generate_document(spec: SynthSpec, seed: int) -> Sample:
    sample, _ = generate_document_with_layout(spec, seed)
    return sample


# ---------------------------------------------------------------------------
# splits and other JSON records


def _is_json(value, kind) -> bool:
    return not isinstance(value, bool) and isinstance(value, kind)


_ITEM_NAMES = {int: "integers", str: "strings"}


def parse_json_object(text: str, what: str, fields: dict) -> dict:
    """The JSON object in ``text``, checked against the field table ``fields``.

    ``fields`` maps every required field to its JSON type: a Python type,
    a tuple of them, or ``list[item]``, a list of ``int`` or ``str`` items.
    A boolean is never a number. Anything else raises ``DatasetError``
    naming ``what`` and the fault.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{what} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DatasetError(f"{what} must be a JSON object, got {type(payload).__name__}")
    for name, kind in fields.items():
        if name not in payload:
            raise DatasetError(f"{what} has no field {name!r}")
        value = payload[name]
        if not _is_json(value, get_origin(kind) or kind):
            raise DatasetError(f"{what} field {name!r} has the wrong type: {value!r}")
        for item in get_args(kind):
            if not all(_is_json(v, item) for v in value):
                raise DatasetError(f"{what} field {name!r} must hold {_ITEM_NAMES[item]}: {value!r}")
    return payload


_SPLIT_FIELDS = {"train": list[str], "validation": list[str], "test": list[str],
                 "ratio": list[int], "holdout_rule": str}  # JSON types of SplitManifest's fields


@dataclass
class SplitManifest:
    train: list[str]
    validation: list[str]
    test: list[str]
    ratio: tuple[int, int]
    holdout_rule: str

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["ratio"] = list(self.ratio)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SplitManifest":
        """Read back ``to_json``'s text; anything else raises ``DatasetError`` naming the fault."""
        payload = parse_json_object(text, "split manifest", _SPLIT_FIELDS)
        if len(payload["ratio"]) != 2:
            raise DatasetError(f"split manifest field 'ratio' must hold two integers: "
                               f"{payload['ratio']!r}")
        return cls(train=payload["train"], validation=payload["validation"],
                   test=payload["test"], ratio=tuple(payload["ratio"]),
                   holdout_rule=payload["holdout_rule"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SplitManifest":
        return cls.from_json(read_text(path))


def make_split(ids: Sequence[str], ratio: tuple[int, int] = (9, 1),
               holdout_tag: str | None = None, seed: int = 0) -> SplitManifest:
    """Split sample ids into train/validation/test.

    Ids whose first path segment equals ``holdout_tag`` form the test
    set; the remainder is shuffled (seeded) and split train:validation
    by ``ratio``. Empty, duplicate or all-holdout ids raise
    ``DatasetError``; a ratio that is not two integers, or is negative or
    all zero, raises ``DimensionError``.
    """
    if not ids:
        raise DatasetError("cannot split an empty id list")
    if len(set(ids)) != len(ids):
        raise DatasetError("sample ids must be unique")
    if len(ratio) != 2 or sum(check_size("ratio", part, 0) for part in ratio) == 0:
        raise DimensionError(f"bad ratio {ratio}")

    if holdout_tag is None:
        test, rest = [], list(ids)
    else:
        test = [i for i in ids if i.split("/")[0] == holdout_tag]
        rest = [i for i in ids if i.split("/")[0] != holdout_tag]
    if not rest:
        raise DatasetError(f"every sample matches holdout tag {holdout_tag!r}; "
                           "nothing left to train on")

    rng = seeded_rng(seed, 0x5B7)
    order = rng.permutation(len(rest))
    shuffled = [rest[i] for i in order]
    n_val = int(len(shuffled) * ratio[1] / (ratio[0] + ratio[1]))
    rule = (f"first path segment == {holdout_tag!r} -> test"
            if holdout_tag is not None else "no holdout tag; test set empty")
    return SplitManifest(
        train=shuffled[n_val:],
        validation=shuffled[:n_val],
        test=sorted(test),
        ratio=(int(ratio[0]), int(ratio[1])),
        holdout_rule=rule,
    )


# ---------------------------------------------------------------------------
# dataset directories


def _inside_root(rel) -> bool:
    """Whether a dataset-relative path stays under the root: not absolute, no ``..`` segment."""
    path = Path(rel)
    return not path.is_absolute() and ".." not in path.parts


def _image_path(sample_id: str) -> Path:
    """The dataset-relative image path ``save_dataset`` writes a sample id to."""
    return Path(f"images/{sample_id}.pgm")


def _sample_id(rel) -> str:
    """The sample id ``load_dataset`` reads from a dataset-relative image path.

    The id is the path without its suffix and without a leading ``images``
    folder.
    """
    parts = Path(rel).with_suffix("").parts
    if parts[0] == "images" and len(parts) > 1:
        parts = parts[1:]
    return "/".join(parts)


def save_dataset(samples: Iterable[Sample], root, vocabulary: Vocabulary) -> None:
    """Write labels.tsv, images/ and vocab.txt under ``root``.

    Every id and target is checked, and every image encoded, before the
    first write, so a refused save writes nothing. An id whose image would
    leave ``root`` (a ``..`` segment), an id that names another sample's
    image, an id that ``load_dataset`` would read back as another id (such
    as ``./x``, ``a//b`` or ``c/``), an id holding a tab or a line break
    (``labels.tsv`` could not hold its row) or a NUL byte (no file system
    can name its image), and a target outside the vocabulary raise
    ``DatasetError``.
    """
    root = Path(root)
    images: dict[Path, bytes] = {}
    rows = []
    for sample in samples:
        rel = _image_path(sample.id)
        if not _inside_root(rel):
            raise DatasetError(f"sample id {sample.id!r} leaves the dataset root")
        if rel in images:
            raise DatasetError(f"sample id {sample.id!r} names the same image as an earlier one")
        if _sample_id(rel) != sample.id:
            raise DatasetError(f"sample id {sample.id!r} would load back as {_sample_id(rel)!r}")
        path = rel.as_posix()
        if "\t" in path or path.splitlines() != [path]:
            raise DatasetError(f"sample id {sample.id!r} holds a tab or a line break")
        if "\0" in path:
            raise DatasetError(f"sample id {sample.id!r} holds a NUL byte")
        tokens = " ".join(vocabulary.token(i) for i in sample.target)
        images[rel] = _pgm_bytes(sample.image)
        rows.append(f"{path}\t{tokens}")
    (root / "images").mkdir(parents=True, exist_ok=True)
    for rel, payload in images.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(payload)
    (root / "labels.tsv").write_text("\n".join(rows) + ("\n" if rows else ""),
                                     encoding="utf-8")
    vocabulary.save(root / "vocab.txt")


def load_dataset(root, vocabulary: Vocabulary) -> list[Sample]:
    """Read a dataset directory; malformed rows are reported with line numbers.

    An image path must stay under ``root``: an absolute path or a ``..``
    segment is a malformed row. So is a row whose image path gives the
    same sample id as an earlier row's, such as a second row naming the
    same image.
    """
    root = Path(root)
    labels = root / "labels.tsv"
    if not labels.is_file():
        raise DatasetError(f"{labels}: labels file not found")
    samples: list[Sample] = []
    problems: list[str] = []
    first_line: dict[str, int] = {}  # sample id -> the line that named it first
    lines = read_text(labels).splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            problems.append(f"line {lineno}: expected 'path<TAB>tokens', got {line!r}")
            continue
        rel, token_text = parts
        if not _inside_root(rel):
            problems.append(f"line {lineno}: image path {rel!r} leaves the dataset root")
            continue
        image_path = root / rel
        if not image_path.is_file():
            problems.append(f"line {lineno}: image file {rel!r} missing")
            continue
        try:
            target = vocabulary.encode(token_text.split())
        except DatasetError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        sample_id = _sample_id(rel)
        first = first_line.setdefault(sample_id, lineno)
        if first != lineno:
            problems.append(f"line {lineno}: image {rel!r} gives sample id {sample_id!r}, "
                            f"as line {first} does")
            continue
        samples.append(Sample(image=read_pgm(image_path), target=target, id=sample_id))
    if problems:
        raise DatasetError(f"{labels}: " + "; ".join(problems))
    if not samples:
        logger.warning("%s: no samples found", labels)
    return samples
