import dataclasses
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzureader.autodiff import DimensionError, NumericError
from kuzureader.data import (
    DatasetError,
    Sample,
    SplitManifest,
    SynthSpec,
    build_spec,
    generate_document,
    generate_document_with_layout,
    load_dataset,
    make_glyphs,
    make_split,
    read_pgm,
    save_dataset,
    write_pgm,
)
from kuzureader.vocab import Vocabulary


GOOD_MANIFEST = {"train": ["a"], "validation": [], "test": [], "ratio": [9, 1],
                 "holdout_rule": "no holdout tag; test set empty"}


class TestPgm:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        image = np.round(rng.random((5, 7, 1)) * 255) / 255
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        again = read_pgm(path)
        assert np.array_equal(again, image)

    def test_ink_polarity(self, tmp_path):
        # ink-high in memory maps to dark pixels on disk
        image = np.zeros((1, 2, 1))
        image[0, 0, 0] = 1.0
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        raw = path.read_bytes()
        assert raw.endswith(bytes([0, 255]))

    @pytest.mark.parametrize("shape, message", [
        ((2, 2, 3), "single-channel"), ((4,), "single-channel"), ((1, 2, 1, 1), "single-channel"),
        ((0, 3), "no pixels"), ((2, 0, 1), "no pixels"),
    ], ids=["three-channels", "1-d", "4-d", "0x3", "2x0x1"])
    def test_write_refuses_a_shape_it_cannot_store_and_creates_no_file(self, tmp_path, shape,
                                                                       message):
        path = tmp_path / "img.pgm"
        with pytest.raises(DimensionError, match=message):
            write_pgm(path, np.zeros(shape))
        assert not path.exists()

    @pytest.mark.parametrize("bad, message", [
        (2.0, "outside"), (255.0, "outside"), (-0.5, "outside"), (np.nan, "non-finite"),
    ], ids=["above-one", "0-255-scale", "negative", "nan"])
    def test_write_refuses_a_pixel_it_would_wrap_and_creates_no_file(self, tmp_path, bad, message):
        image = np.zeros((2, 3, 1))
        image[1, 2, 0] = bad
        path = tmp_path / "img.pgm"
        with pytest.raises(NumericError, match=message):
            write_pgm(path, image)
        assert not path.exists()

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(DatasetError):
            read_pgm(path)

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n4", "truncated header"),
        (b"P5\nfour 1\n255\n\x00\x00\x00\x00", "non-numeric"),
    ], ids=["truncated", "non-numeric-width"])
    def test_malformed_header_raises_dataset_error(self, tmp_path, raw, message):
        path = tmp_path / "img.pgm"
        path.write_bytes(raw)
        with pytest.raises(DatasetError, match=message):
            read_pgm(path)

    @pytest.mark.parametrize("raw", [b"P5\n0 5\n255\n", b"P5\n5 0\n255\n"],
                             ids=["zero-width", "zero-height"])
    def test_empty_graymap_raises_dataset_error(self, tmp_path, raw):
        path = tmp_path / "img.pgm"
        path.write_bytes(raw)
        with pytest.raises(DatasetError, match="no pixels"):
            read_pgm(path)


class TestGlyphs:
    def test_deterministic_and_distinct(self):
        a = make_glyphs(("x", "y", "z"), 16, seed=3)
        b = make_glyphs(("x", "y", "z"), 16, seed=3)
        for token in a:
            assert np.array_equal(a[token], b[token])
        assert not np.array_equal(a["x"], a["y"])
        assert not np.array_equal(a["y"], a["z"])

    def test_binary_values(self):
        glyphs = make_glyphs(("p",), 12, seed=4)
        assert set(np.unique(glyphs["p"])) <= {0.0, 1.0}

    def test_smallest_glyph_size_is_three(self):
        assert make_glyphs(("p",), 3, seed=4)["p"].shape == (3, 3)
        with pytest.raises(DimensionError, match="glyph_size"):
            make_glyphs(("p",), 2, seed=4)
        with pytest.raises(DimensionError, match="glyph_size"):
            build_spec(glyph_size=2)


class TestGenerate:
    def test_single_char_document(self):
        spec = build_spec(num_classes=3, canvas=(32, 32), lines=(1, 1),
                          chars=(1, 1), glyph_size=12, jitter=0, seed=5)
        sample, placements = generate_document_with_layout(spec, seed=0)
        assert len(sample.target) == 1
        assert len(placements) == 1
        box = placements[0]
        # glyph centered in the single column
        assert (box.top, box.left) == (10, 10)
        assert sample.image[box.top:box.bottom, box.left:box.right, 0].max() == 1.0

    def test_deterministic_per_spec_and_seed(self):
        spec = build_spec(num_classes=5, jitter=2, noise=0.02, seed=6)
        a = generate_document(spec, seed=11)
        b = generate_document(spec, seed=11)
        assert np.array_equal(a.image, b.image)
        assert a.target == b.target
        assert a.id == b.id
        c = generate_document(spec, seed=12)
        assert not np.array_equal(a.image, c.image) or a.target != c.target

    def test_reading_order_right_to_left_top_to_bottom(self):
        spec = build_spec(num_classes=8, canvas=(96, 64), lines=(2, 2),
                          chars=(3, 3), glyph_size=18, jitter=1, seed=7)
        sample, placements = generate_document_with_layout(spec, seed=1)
        assert len(sample.target) == 6
        assert [p.token_index for p in placements] == list(sample.target)
        right_column = placements[:3]
        left_column = placements[3:]
        assert all(p.left >= 32 for p in right_column)
        assert all(p.left < 32 for p in left_column)
        for column in (right_column, left_column):
            tops = [p.top for p in column]
            assert tops == sorted(tops)

    def test_values_stay_in_unit_range_with_noise(self):
        spec = build_spec(num_classes=4, noise=0.2, seed=8)
        sample = generate_document(spec, seed=2)
        assert sample.image.min() >= 0.0
        assert sample.image.max() <= 1.0

    def test_no_reserved_tokens_in_target(self):
        spec = build_spec(num_classes=4, seed=9)
        sample = generate_document(spec, seed=3)
        assert all(t >= 2 for t in sample.target)

    def test_glyph_overflow_raises(self):
        glyphs = make_glyphs(("a", "b"), 30, seed=10)
        with pytest.raises(DimensionError, match="does not fit the smallest 32x32 cell"):
            SynthSpec(canvas=(64, 64), glyphs=glyphs, lines=(2, 2), chars=(2, 2), jitter=2,
                      seed=10)

    @pytest.mark.parametrize("field, value", [("chars", (1, 3)), ("lines", (1, 3))])
    def test_worst_case_overflow_is_refused_at_build(self, field, value):
        # one character in one column fits; the most of either does not
        kwargs = dict(canvas=(64, 64), glyphs=make_glyphs(("a",), 20, seed=12),
                      lines=(1, 1), chars=(1, 1), jitter=2)
        SynthSpec(**kwargs)
        kwargs[field] = value
        with pytest.raises(DimensionError, match="does not fit"):
            SynthSpec(**kwargs)

    def test_fit_rule_is_exact_at_its_edge(self):
        # cells of 14 px at the most chars and lines: (14 - 10) // 2 == jitter
        glyphs = make_glyphs(("a", "b", "c"), 10, seed=13)
        spec = SynthSpec(canvas=(42, 28), glyphs=glyphs, lines=(1, 2), chars=(1, 3),
                         jitter=2, seed=13)
        vocabulary = spec.vocabulary()
        for seed in range(50):
            sample, placements = generate_document_with_layout(spec, seed)
            for box in placements:
                assert 0 <= box.top and box.bottom <= 42 and 0 <= box.left and box.right <= 28
                stamped = sample.image[box.top:box.bottom, box.left:box.right, 0]
                assert (stamped >= glyphs[vocabulary.token(box.token_index)]).all()
        # one pixel less on either axis leaves a margin of jitter - 1
        for canvas in ((39, 28), (42, 26)):
            with pytest.raises(DimensionError, match="does not fit"):
                dataclasses.replace(spec, canvas=canvas)

    def test_oversized_glyph_rejected_at_spec_build(self):
        glyphs = make_glyphs(("a",), 40, seed=11)
        with pytest.raises(DimensionError, match="does not fit"):
            SynthSpec(canvas=(64, 64), glyphs=glyphs, lines=(2, 2), chars=(1, 1))

    @pytest.mark.parametrize("field, value", [("lines", (0, 1)), ("chars", (3, 2)),
                                              ("jitter", -1), ("noise", 1.5)])
    def test_bad_spec_settings_are_dimension_errors(self, field, value):
        kwargs = dict(canvas=(64, 64), glyphs=make_glyphs(("a",), 10, seed=11),
                      lines=(1, 1), chars=(1, 1))
        kwargs[field] = value
        with pytest.raises(DimensionError):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("num_classes", [0, 10_000])
    def test_class_count_out_of_range(self, num_classes):
        with pytest.raises(DimensionError, match="num_classes"):
            build_spec(num_classes=num_classes)


class TestSplit:
    def test_untagged_ninety_ten(self):
        ids = [f"doc{i:03d}" for i in range(100)]
        manifest = make_split(ids, ratio=(9, 1), holdout_tag=None, seed=0)
        assert len(manifest.train) == 90
        assert len(manifest.validation) == 10
        assert manifest.test == []

    def test_holdout_tag_goes_to_test(self):
        ids = [f"book{b}/doc{i}" for b in (1, 2, 3) for i in range(10)]
        manifest = make_split(ids, ratio=(9, 1), holdout_tag="book3", seed=1)
        assert sorted(manifest.test) == sorted(i for i in ids if i.startswith("book3/"))
        assert all(not i.startswith("book3/") for i in manifest.train + manifest.validation)
        assert "book3" in manifest.holdout_rule

    def test_all_holdout_is_an_error(self):
        with pytest.raises(DatasetError, match="holdout"):
            make_split(["b/1", "b/2"], holdout_tag="b", seed=2)

    def test_empty_ids_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            make_split([], seed=3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError, match="unique"):
            make_split(["a", "b", "a"], seed=4)

    @pytest.mark.parametrize("ratio", [(-1, 2), (0, 0), (1,), (1, 1, 1)])
    def test_bad_ratio_is_a_dimension_error(self, ratio):
        with pytest.raises(DimensionError, match="bad ratio"):
            make_split(["a", "b"], ratio=ratio, seed=5)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_disjoint_and_covering(self, count, seed):
        ids = [f"s{i}" for i in range(count)]
        manifest = make_split(ids, ratio=(9, 1), holdout_tag=None, seed=seed)
        combined = manifest.train + manifest.validation + manifest.test
        assert sorted(combined) == sorted(ids)
        assert len(set(combined)) == len(combined)

    def test_seeded_shuffle_deterministic(self):
        ids = [f"d{i}" for i in range(50)]
        a = make_split(ids, seed=7)
        b = make_split(ids, seed=7)
        assert a == b

    def test_manifest_json_roundtrip(self, tmp_path):
        manifest = make_split([f"d{i}" for i in range(20)], seed=8)
        path = tmp_path / "split.json"
        manifest.save(path)
        assert SplitManifest.load(path) == manifest

    @pytest.mark.parametrize("text, match", [
        ("nope", "not JSON"),
        ("[]", "JSON object"),
        ("{}", "no field 'train'"),
        (json.dumps({**GOOD_MANIFEST, "ratio": [1]}), "'ratio' must hold two integers"),
        (json.dumps({**GOOD_MANIFEST, "ratio": [9, True]}), "'ratio' must hold integers"),
        (json.dumps({**GOOD_MANIFEST, "test": "b"}), "'test' has the wrong type"),
        (json.dumps({**GOOD_MANIFEST, "train": ["a", 2]}), "'train' must hold strings"),
        (json.dumps({**GOOD_MANIFEST, "holdout_rule": None}), "'holdout_rule' has the wrong type"),
    ], ids=["not-json", "array", "empty-object", "one-ratio", "boolean-ratio", "test-not-a-list",
            "id-not-a-string", "rule-null"])
    def test_malformed_manifest_is_a_dataset_error_naming_the_field(self, text, match):
        assert SplitManifest.from_json(json.dumps(GOOD_MANIFEST)).ratio == (9, 1)
        with pytest.raises(DatasetError, match=match):
            SplitManifest.from_json(text)


class TestDatasetIO:
    def test_save_load_roundtrip(self, tmp_path):
        spec = build_spec(num_classes=6, seed=12)
        vocabulary = spec.vocabulary()
        samples = [generate_document(spec, seed=i) for i in range(5)]
        save_dataset(samples, tmp_path, vocabulary)
        loaded = load_dataset(tmp_path, vocabulary)
        assert [s.id for s in loaded] == [s.id for s in samples]
        for original, again in zip(samples, loaded):
            assert again.target == original.target
            assert np.array_equal(again.image, original.image)

    @pytest.mark.parametrize("name, load", [
        ("vocab.txt", Vocabulary.load),
        ("labels.tsv", lambda path: load_dataset(path.parent, Vocabulary.from_characters("a"))),
        ("split.json", SplitManifest.load),
    ], ids=["vocabulary", "labels", "split-manifest"])
    def test_text_that_is_not_utf8_is_a_dataset_error(self, tmp_path, name, load):
        path = tmp_path / name
        path.write_bytes(b"<S>\n<E>\n\xff\n")
        with pytest.raises(DatasetError, match="not UTF-8"):
            load(path)

    def test_empty_labels_warns(self, tmp_path, caplog):
        (tmp_path / "labels.tsv").write_text("", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            samples = load_dataset(tmp_path, Vocabulary.from_characters("ab"))
        assert samples == []
        assert any("no samples" in record.message for record in caplog.records)

    def test_unknown_token_reports_line(self, tmp_path):
        spec = build_spec(num_classes=3, seed=13)
        vocabulary = spec.vocabulary()
        save_dataset([generate_document(spec, seed=0)], tmp_path, vocabulary)
        labels = tmp_path / "labels.tsv"
        labels.write_text(labels.read_text() + "images/doc00000.pgm\tQ Q\n",
                          encoding="utf-8")
        with pytest.raises(DatasetError, match=r"line 2.*'Q'"):
            load_dataset(tmp_path, vocabulary)

    def test_missing_image_reports_line(self, tmp_path):
        (tmp_path / "labels.tsv").write_text("images/nope.pgm\ta\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1.*missing"):
            load_dataset(tmp_path, Vocabulary.from_characters("a"))

    def test_image_path_outside_the_root_reports_line(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        outside = tmp_path / "outside.pgm"
        write_pgm(outside, np.zeros((2, 2, 1)))
        (root / "labels.tsv").write_text(f"../outside.pgm\ta\n{outside}\ta\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1: .*leaves the dataset root.*"
                                              "line 2: .*leaves the dataset root"):
            load_dataset(root, Vocabulary.from_characters("a"))

    def test_id_that_leaves_the_root_is_refused_and_nothing_is_written(self, tmp_path):
        image = np.zeros((2, 2, 1))
        root = tmp_path / "a" / "ds"
        samples = [Sample(image, (0,), "good"), Sample(image, (0,), "../../escaped")]
        with pytest.raises(DatasetError, match="leaves the dataset root"):
            save_dataset(samples, root, Vocabulary.from_characters("a"))
        assert sorted(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("ids", [("x", "x"), ("x", "./x"), ("sub/x", "sub//x")],
                             ids=["same", "dot-segment", "double-slash"])
    def test_ids_naming_one_image_are_refused_and_nothing_is_written(self, tmp_path, ids):
        samples = [Sample(np.full((2, 2, 1), k / 2), (0,), i) for k, i in enumerate(ids)]
        with pytest.raises(DatasetError, match="same image"):
            save_dataset(samples, tmp_path, Vocabulary.from_characters("a"))
        assert sorted(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("sample_id, loaded", [("/abs", "abs"), ("./x", "x"), ("a//b", "a/b"),
                                                   ("c/", "c/.pgm")])
    def test_id_that_would_load_as_another_is_refused_and_nothing_is_written(self, tmp_path,
                                                                            sample_id, loaded):
        image = np.zeros((2, 2, 1))
        samples = [Sample(image, (0,), "good"), Sample(image, (0,), sample_id)]
        with pytest.raises(DatasetError, match=f"would load back as '{loaded}'"):
            save_dataset(samples, tmp_path, Vocabulary.from_characters("a"))
        assert sorted(tmp_path.rglob("*")) == []

    def test_rows_naming_one_image_report_both_lines(self, tmp_path):
        vocabulary = Vocabulary.from_characters("a")
        save_dataset([Sample(np.zeros((2, 2, 1)), (2,), "x")], tmp_path, vocabulary)
        labels = tmp_path / "labels.tsv"
        labels.write_text(labels.read_text() + "images/y.pgm\ta\nimages/./x.pgm\ta\n",
                          encoding="utf-8")
        write_pgm(tmp_path / "images" / "y.pgm", np.zeros((2, 2, 1)))
        with pytest.raises(DatasetError, match=r"line 3: .*'x', as line 1 does"):
            load_dataset(tmp_path, vocabulary)

    @pytest.mark.parametrize("sample_id", ["x\ty", "x\ny", "x\r", "x\u2028y"])
    def test_id_the_labels_file_cannot_hold_is_refused_and_nothing_is_written(self, tmp_path,
                                                                             sample_id):
        image = np.zeros((2, 2, 1))
        samples = [Sample(image, (0,), "good"), Sample(image, (0,), sample_id)]
        with pytest.raises(DatasetError, match="tab or a line break"):
            save_dataset(samples, tmp_path, Vocabulary.from_characters("a"))
        assert sorted(tmp_path.rglob("*")) == []

    def test_id_holding_a_nul_byte_is_refused_and_nothing_is_written(self, tmp_path):
        image = np.zeros((2, 2, 1))
        samples = [Sample(image, (0,), "good"), Sample(image, (0,), "a\x00b")]
        with pytest.raises(DatasetError, match="NUL byte"):
            save_dataset(samples, tmp_path, Vocabulary.from_characters("a"))
        assert sorted(tmp_path.rglob("*")) == []

    def test_refused_target_writes_nothing(self, tmp_path):
        image = np.zeros((2, 2, 1))
        samples = [Sample(image, (0,), "good"), Sample(image, (-1,), "bad")]
        with pytest.raises(DatasetError, match="token index -1"):
            save_dataset(samples, tmp_path, Vocabulary.from_characters("a"))
        assert sorted(tmp_path.rglob("*")) == []

    def test_malformed_row_reports_line(self, tmp_path):
        (tmp_path / "labels.tsv").write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(tmp_path, Vocabulary.from_characters("a"))

    def test_missing_labels_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nowhere", Vocabulary.from_characters("a"))
