import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzureader.autodiff import DatasetError
from kuzureader.metrics import evaluate, levenshtein


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


REPORT_CASES = {
    "all-exact": [((1, 2), (1, 2)), ((3,), (3,))],
    "one-edit": [((1, 2, 3), (1, 2, 3)), ((4, 5, 6), (4, 9, 6))],
    "cer-above-one": [((1,), (2, 3, 4, 5))],
    "empty-hypothesis": [((1, 2, 3), ())],
    "empty-target-among-others": [((), (1,)), ((2, 3), (2, 3))],
    "mixed": [((1, 2, 3), (1, 2)), ((4,), (4,)), ((5, 6), (7,))],
}


def assert_report_holds_what_it_measures(report, pairs):
    assert report.num_sequences == len(pairs) == len(report.distances)
    assert report.total_target_chars == sum(len(t) for t, _ in pairs) > 0
    assert report.distances == [levenshtein(t, h) for t, h in pairs]
    assert all(type(d) is int and d >= 0 for d in report.distances)
    assert 0 <= report.cer < math.inf
    assert report.cer == sum(report.distances) / report.total_target_chars
    assert 0 <= report.ser <= 1
    assert report.ser == sum(tuple(t) != tuple(h) for t, h in pairs) / len(pairs)


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

    @pytest.mark.parametrize("pairs", REPORT_CASES.values(), ids=REPORT_CASES.keys())
    def test_json_is_the_report_as_a_dict(self, pairs):
        report = evaluate(pairs)
        text = report.to_json()
        assert json.loads(text) == asdict(report)
        assert list(json.loads(text)) == sorted(asdict(report))
        assert text.endswith("\n")

    def test_json_text_is_unchanged(self):
        report = evaluate(REPORT_CASES["mixed"])
        assert report.to_json() == (
            '{\n  "cer": 0.5,\n  "distances": [\n    1,\n    0,\n    2\n  ],\n'
            '  "num_sequences": 3,\n  "ser": 0.6666666666666666,\n  "total_target_chars": 6\n}\n')

    # what a report says must agree with what it measures: finite rates,
    # non-negative counts, one distance per sequence
    @pytest.mark.parametrize("pairs", REPORT_CASES.values(), ids=REPORT_CASES.keys())
    def test_a_report_holds_what_it_measures(self, pairs):
        assert_report_holds_what_it_measures(evaluate(pairs), pairs)

    @given(st.lists(st.tuples(
        st.lists(st.integers(0, 3), min_size=0, max_size=6),
        st.lists(st.integers(0, 3), min_size=0, max_size=6)),
        min_size=1, max_size=8).filter(lambda pairs: any(t for t, _ in pairs)))
    @settings(max_examples=50, deadline=None)
    def test_any_report_holds_what_it_measures(self, pairs):
        assert_report_holds_what_it_measures(evaluate(pairs), pairs)

    @pytest.mark.parametrize("pairs", REPORT_CASES.values(), ids=REPORT_CASES.keys())
    def test_text_report_is_the_report_rounded(self, pairs):
        report = evaluate(pairs)
        fields = dict(line.split("=") for line in report.to_text().splitlines())
        assert list(fields) == ["cer", "ser", "total_target_chars", "num_sequences"]
        assert float(fields["cer"]) == pytest.approx(report.cer, abs=5e-7)
        assert float(fields["ser"]) == pytest.approx(report.ser, abs=5e-7)
        assert int(fields["total_target_chars"]) == report.total_target_chars
        assert int(fields["num_sequences"]) == report.num_sequences

    def test_text_report_lines(self):
        report = evaluate([((1, 2), (1, 2))])
        lines = report.to_text().strip().splitlines()
        assert lines[0] == "cer=0.000000"
        assert lines[1] == "ser=0.000000"
        assert all("=" in line for line in lines)
