import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzureader.autodiff import DatasetError
from kuzureader.metrics import EvalReport, evaluate, levenshtein


def edit_script_oracle(a, b):
    """Brute force: smallest k admitting an edit script of cost k.

    Enumerates scripts by iterative deepening, entirely independent of
    the dynamic-programming implementation.
    """
    a, b = tuple(a), tuple(b)

    def within(x, y, budget):
        if budget < 0:
            return False
        if not x:
            return len(y) <= budget
        if not y:
            return len(x) <= budget
        if x[0] == y[0] and within(x[1:], y[1:], budget):
            return True
        return (within(x[1:], y[1:], budget - 1)   # substitute
                or within(x[1:], y, budget - 1)    # delete
                or within(x, y[1:], budget - 1))   # insert

    k = 0
    while not within(a, b, k):
        k += 1
    return k


def evaluate_oracle(pairs):
    """Second implementation of the report arithmetic, single pass."""
    total = 0
    errors = 0
    bad = 0
    for target, hyp in pairs:
        total += len(target)
        errors += edit_script_oracle(target, hyp)
        bad += int(tuple(target) != tuple(hyp))
    return errors / total, bad / len(pairs)


sequences = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=8)


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0
        assert levenshtein((), ()) == 0

    def test_empty_versus_length_n(self):
        assert levenshtein((), (1, 2, 3, 4)) == 4
        assert levenshtein("abcde", "") == 5

    def test_against_edit_script_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = tuple(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = tuple(rng.integers(0, 4, size=rng.integers(0, 9)))
            assert levenshtein(a, b) == edit_script_oracle(a, b)

    @given(sequences, sequences)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d <= max(len(a), len(b))
        assert d >= abs(len(a) - len(b))
        assert (d == 0) == (a == b)

    @given(sequences, sequences, sequences)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestEvaluate:
    def test_all_exact(self):
        report = evaluate([((1, 2), (1, 2)), ((3,), (3,))])
        assert report.cer == 0.0
        assert report.ser == 0.0
        assert report.total_target_chars == 3
        assert report.num_sequences == 2

    def test_one_exact_one_single_edit(self):
        report = evaluate([((1, 2, 3), (1, 2, 3)), ((4, 5, 6), (4, 9, 6))])
        assert report.ser == 0.5
        assert report.cer == pytest.approx(1 / 6)
        assert report.distances == [0, 1]

    def test_cer_can_exceed_one(self):
        report = evaluate([((1,), (2, 3, 4, 5))])
        assert report.cer == 4.0

    def test_against_second_implementation(self):
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(40):
            target = tuple(rng.integers(0, 5, size=rng.integers(1, 8)))
            hyp = tuple(rng.integers(0, 5, size=rng.integers(0, 8)))
            pairs.append((target, hyp))
        report = evaluate(pairs)
        cer, ser = evaluate_oracle(pairs)
        assert report.cer == pytest.approx(cer, abs=1e-12)
        assert report.ser == pytest.approx(ser, abs=1e-12)

    @given(st.lists(st.tuples(
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        st.lists(st.integers(0, 3), min_size=0, max_size=6)),
        min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, pairs):
        base = evaluate(pairs)
        shuffled = evaluate(pairs[::-1])
        assert base.cer == shuffled.cer
        assert base.ser == shuffled.ser
        assert sorted(base.distances) == sorted(shuffled.distances)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DatasetError, match="at least one"):
            evaluate([])
        with pytest.raises(DatasetError, match="no tokens"):
            evaluate([((), (1, 2))])

    def test_json_roundtrip(self):
        report = evaluate([((1, 2, 3), (1, 2)), ((4,), (4,))])
        again = EvalReport.from_json(report.to_json())
        assert again == report

    @pytest.mark.parametrize("text,match", [
        ("not json", "not JSON"),
        ("{}", "no field 'cer'"),
        ("[]", "JSON object"),
        ('{"cer": 0.5, "ser": 1.0, "total_target_chars": 4, "num_sequences": 2, "distances": 5}',
         "'distances' has the wrong type"),
        ('{"cer": 0.5, "ser": 1.0, "total_target_chars": 4, "num_sequences": 2, "distances": ["2"]}',
         "'distances' must hold integers"),
    ], ids=["not-json", "empty-object", "array", "distances-not-a-list", "distance-not-an-integer"])
    def test_malformed_json_raises_dataset_error(self, text, match):
        with pytest.raises(DatasetError, match=match):
            EvalReport.from_json(text)

    @pytest.mark.parametrize("field, value, match", [
        ("distances", [1, True], "'distances' must hold integers"),
        ("cer", None, "'cer' has the wrong type"),
        ("cer", True, "'cer' has the wrong type"),
        ("ser", "1.0", "'ser' has the wrong type"),
        ("total_target_chars", 4.0, "'total_target_chars' has the wrong type"),
        ("num_sequences", False, "'num_sequences' has the wrong type"),
        ("distances", "missing", "no field 'distances'"),
    ], ids=["distance-a-boolean", "cer-null", "cer-a-boolean", "ser-a-string", "count-a-float",
            "sequences-a-boolean", "no-distances"])
    def test_a_field_of_the_wrong_kind_is_a_dataset_error_naming_it(self, field, value, match):
        payload = json.loads(evaluate([((1, 2, 3), (1, 2)), ((4,), (4,))]).to_json())
        if value == "missing":
            del payload[field]
        else:
            payload[field] = value
        with pytest.raises(DatasetError, match=match):
            EvalReport.from_json(json.dumps(payload))

    # each a report evaluate could not write: the text parses and every
    # field has its JSON type, but one value contradicts what it measures
    @pytest.mark.parametrize("field, value, match", [
        ("cer", float("nan"), "'cer' must be a finite rate >= 0, got nan"),
        ("cer", float("inf"), "'cer' must be a finite rate >= 0, got inf"),
        ("ser", -3, "'ser' must be a finite rate >= 0, got -3"),
        ("ser", -0.5, "'ser' must be a finite rate >= 0"),
        ("total_target_chars", -1, "'total_target_chars' must be a count >= 0, got -1"),
        ("num_sequences", -2, "'num_sequences' must be a count >= 0, got -2"),
        ("distances", [1, -2], r"'distances' must hold distances >= 0: \[1, -2\]"),
        ("distances", [1], "'distances' holds 1 distances for 'num_sequences' 2"),
        ("num_sequences", 3, "'distances' holds 2 distances for 'num_sequences' 3"),
    ], ids=["cer-nan", "cer-infinite", "ser-negative-integer", "ser-negative", "chars-negative",
            "sequences-negative", "distance-negative", "too-few-distances", "too-many-sequences"])
    def test_a_contradictory_value_is_a_dataset_error_naming_its_field(self, field, value, match):
        payload = json.loads(evaluate([((1, 2, 3), (1, 2)), ((4,), (4,))]).to_json())
        payload[field] = value
        with pytest.raises(DatasetError, match=match):
            EvalReport.from_json(json.dumps(payload))

    def test_the_contradictory_report_is_refused(self):
        text = ('{"cer": NaN, "ser": -3, "total_target_chars": -1, "num_sequences": 5,'
                ' "distances": [-2]}')
        with pytest.raises(DatasetError, match="'cer'"):
            EvalReport.from_json(text)

    def test_integer_rates_read_back_as_numbers(self):
        text = ('{"cer": 0, "ser": 1, "total_target_chars": 4, "num_sequences": 2,'
                ' "distances": [0, 0]}')
        assert EvalReport.from_json(text) == EvalReport(0, 1, 4, 2, [0, 0])

    def test_text_report_lines(self):
        report = evaluate([((1, 2), (1, 2))])
        lines = report.to_text().strip().splitlines()
        assert lines[0] == "cer=0.000000"
        assert lines[1] == "ser=0.000000"
        assert all("=" in line for line in lines)
