"""Character and sequence error rates over token sequences.

Tokens compare by vocabulary index (exact match). CER is the summed edit
distance divided by the total number of target tokens, so it can exceed
1 when hypotheses run long; SER is the fraction of sequences that are
not exact matches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, get_args, get_origin

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


def _is_json(value, kind) -> bool:
    return not isinstance(value, bool) and isinstance(value, kind)


_ITEM_NAMES = {int: "integers"}


def parse_json_object(text: str, what: str, fields: dict) -> dict:
    """The JSON object in ``text``, checked against the field table ``fields``.

    ``fields`` maps every required field to its JSON type: a Python type,
    a tuple of them, or ``list[int]``, a list of integers. A boolean is
    never a number. Anything else raises ``DatasetError`` naming ``what``
    and the fault.
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


_REPORT_FIELDS = {"cer": (int, float), "ser": (int, float), "total_target_chars": int,
                  "num_sequences": int, "distances": list[int]}  # JSON types of EvalReport's fields


@dataclass
class EvalReport:
    cer: float
    ser: float
    total_target_chars: int
    num_sequences: int
    distances: list[int]

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in _REPORT_FIELDS}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Read back ``to_json``'s text; anything else raises ``DatasetError`` naming the fault.

        Besides its type, each field must hold what ``evaluate`` can report:
        a finite rate >= 0, a count or distance >= 0, and one distance per
        sequence.
        """
        what = "evaluation report"
        payload = parse_json_object(text, what, _REPORT_FIELDS)
        for name in ("cer", "ser"):
            if not 0 <= payload[name] < math.inf:  # false for NaN too
                raise DatasetError(f"{what} field {name!r} must be a finite rate >= 0, "
                                   f"got {payload[name]!r}")
        for name in ("total_target_chars", "num_sequences"):
            if payload[name] < 0:
                raise DatasetError(f"{what} field {name!r} must be a count >= 0, "
                                   f"got {payload[name]!r}")
        distances = payload["distances"]
        if any(d < 0 for d in distances):
            raise DatasetError(f"{what} field 'distances' must hold distances >= 0: {distances!r}")
        if len(distances) != payload["num_sequences"]:
            raise DatasetError(f"{what} field 'distances' holds {len(distances)} distances for "
                               f"'num_sequences' {payload['num_sequences']}")
        return cls(**{name: payload[name] for name in _REPORT_FIELDS})

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
