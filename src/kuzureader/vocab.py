"""Token vocabulary with reserved start/end markers.

A vocabulary is a sequence of unique string tokens: index 0 is the start
marker ``<S>``, index 1 is the end marker ``<E>``, and every following
token is one character token. A token is one word: it holds no
whitespace, so a transcription written as space-separated tokens splits
back into the same tokens. A token index is an integer (a bool is not).
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable, Sequence

from .autodiff import DatasetError

START_TOKEN = "<S>"
END_TOKEN = "<E>"
START = 0
END = 1


class Vocabulary:
    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if len(tokens) < 2 or tokens[0] != START_TOKEN or tokens[1] != END_TOKEN:
            raise DatasetError(f"vocabulary must begin with {START_TOKEN!r}, {END_TOKEN!r}")
        if any(not isinstance(t, str) or t.split() != [t] for t in tokens):  # one line, one word
            raise DatasetError("tokens must be non-empty, newline-free strings with no other whitespace")
        if len(set(tokens)) != len(tokens):
            raise DatasetError("vocabulary tokens must be unique")
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
            if isinstance(index, bool):  # True is an int to Python, but no token index
                raise TypeError
            index = operator.index(index)
        except TypeError:
            raise DatasetError(f"token index {index!r} is not an integer") from None
        if not 0 <= index < len(self.tokens):
            raise DatasetError(f"token index {index} outside 0..{len(self.tokens) - 1}")
        return self.tokens[index]

    def decode(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.token(i) for i in indices)

    def sha256(self) -> str:
        """Hex SHA-256 of the tokens, one a line in index order: the same list, the same digest."""
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()
