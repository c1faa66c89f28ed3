"""Character and sequence error rates over token sequences.

Tokens compare by vocabulary index (exact match). CER is the summed edit
distance divided by the total number of target tokens, so it can exceed
1 when hypotheses run long; SER is the fraction of sequences that are
not exact matches. An ``EvalReport`` is written out as JSON or as
key=value text; the package never reads a report back.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .autodiff import DatasetError


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimal number of insertions, deletions and substitutions (unit costs)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,            # delete from a
                current[j - 1] + 1,         # insert into a
                previous[j - 1] + (x != y)  # substitute
            ))
        previous = current
    return previous[len(b)]


@dataclass
class EvalReport:
    cer: float
    ser: float
    total_target_chars: int
    num_sequences: int
    distances: list[int]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        """key=value lines, one metric per line."""
        return (f"cer={self.cer:.6f}\n"
                f"ser={self.ser:.6f}\n"
                f"total_target_chars={self.total_target_chars}\n"
                f"num_sequences={self.num_sequences}\n")


def evaluate(pairs: Sequence[tuple[Sequence, Sequence]]) -> EvalReport:
    """Score (target, hypothesis) pairs.

    Raises ``DatasetError`` on an empty pair list or when the targets
    contain no tokens at all (the character rate would divide by zero).
    """
    if not pairs:
        raise DatasetError("evaluate needs at least one (target, hypothesis) pair")
    total_chars = sum(len(target) for target, _ in pairs)
    if total_chars == 0:
        raise DatasetError("targets contain no tokens; character error rate undefined")
    distances = [levenshtein(target, hypothesis) for target, hypothesis in pairs]
    return EvalReport(
        cer=sum(distances) / total_chars,
        ser=sum(d > 0 for d in distances) / len(pairs),  # distance 0 iff equal
        total_target_chars=total_chars,
        num_sequences=len(pairs),
        distances=distances,
    )
