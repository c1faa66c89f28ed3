"""Token vocabulary with reserved start/end markers.

On disk a vocabulary is UTF-8 text with one token per line: line 1 is the
literal ``<S>``, line 2 is ``<E>``, and every following line is one
character token. A token's index is its line number minus one. A token
is one word: it holds no whitespace, so a transcription written as
space-separated tokens splits back into the same tokens.
"""

from __future__ import annotations

import hashlib
import operator
from pathlib import Path
from typing import Iterable, Sequence

from .autodiff import DatasetError

START_TOKEN = "<S>"
END_TOKEN = "<E>"
START = 0
END = 1


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; other bytes raise ``DatasetError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


class Vocabulary:
    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if len(tokens) < 2 or tokens[0] != START_TOKEN or tokens[1] != END_TOKEN:
            raise DatasetError(f"vocabulary must begin with {START_TOKEN!r}, {END_TOKEN!r}")
        if len(set(tokens)) != len(tokens):
            raise DatasetError("vocabulary tokens must be unique")
        if any(t.split() != [t] for t in tokens):  # one line to load, one word to split
            raise DatasetError("tokens must be non-empty, newline-free and hold no other whitespace")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def from_characters(cls, characters: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from content tokens, prepending the markers."""
        return cls((START_TOKEN, END_TOKEN, *characters))

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise DatasetError(f"token {token!r} not in vocabulary") from None

    def token(self, index: int) -> str:
        try:
            index = operator.index(index)
        except TypeError:
            raise DatasetError(f"token index {index!r} is not an integer") from None
        if not 0 <= index < len(self.tokens):
            raise DatasetError(f"token index {index} outside 0..{len(self.tokens) - 1}")
        return self.tokens[index]

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(t) for t in tokens)

    def decode(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.token(i) for i in indices)

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls(read_text(path).splitlines())
