import dataclasses

import numpy as np
import pytest

from kuzureader.autodiff import DimensionError, NumericError
from kuzureader.data import (
    DatasetError,
    SynthSpec,
    build_spec,
    check_pixels,
    check_size,
    generate_document,
    generate_document_with_layout,
    make_glyphs,
    read_pgm,
    seeded_rng,
    write_pgm,
)


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

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n2 1\n15\n\x00\x0f", "unsupported maxval 15"),
        (b"P5\n2 1\n65535\n\x00\x00\xff\xff", "unsupported maxval 65535"),
        (b"P5\n2 2\n255\n\x00\x00\x00", "truncated pixel data"),
        (b"P5\n2 2", "truncated header"),
        (b"P5\n# only a comment\n", "truncated header"),
        (b"P5\n-2 1\n255\n\x00\x00", "non-numeric"),
    ], ids=["maxval-15", "maxval-65535", "short-pixels", "no-maxval", "comment-only",
            "negative-width"])
    def test_unreadable_graymap_is_a_dataset_error_naming_the_fault(self, tmp_path, raw, message):
        path = tmp_path / "img.pgm"
        path.write_bytes(raw)
        with pytest.raises(DatasetError, match=message):
            read_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5 2 1 255\n", b"P5\n# made by hand\n2 1\n255\n", b"P5\t2\r\n1 255\n",
        b"P5\n2 1 # width height\n255\n",
    ], ids=["one-line", "comment-line", "tab-and-crlf", "trailing-comment"])
    def test_header_whitespace_and_comments_are_skipped(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes([0, 255]))
        assert np.array_equal(read_pgm(path), np.array([[[1.0], [0.0]]]))

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["clean", "speckled"])
    def test_generated_pages_round_trip_bit_exact(self, tmp_path, noise):
        spec = build_spec(num_classes=6, noise=noise, seed=12)
        path = tmp_path / "page.pgm"
        for seed in range(5):
            page = generate_document(spec, seed=seed).image
            write_pgm(path, page)
            assert np.array_equal(read_pgm(path), page)


class TestChecks:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 1.0 + 2 ** -52, -2 ** -1074],
                             ids=["inf", "minus-inf", "just-above-one", "just-below-zero"])
    def test_a_pixel_outside_the_closed_unit_range_is_a_numeric_error(self, bad):
        pixels = np.zeros((2, 2, 1))
        pixels[0, 1, 0] = bad
        with pytest.raises(NumericError):
            check_pixels(pixels)

    def test_pixels_at_zero_and_one_pass(self):
        check_pixels(np.array([[0.0, 1.0], [-0.0, 0.5]]))

    @pytest.mark.parametrize("value, message", [
        (0, r"n must be >= 1, got 0"), ("3", "n must be an integer"), (3.0, "n must be an integer"),
    ], ids=["below-minimum", "string", "float"])
    def test_check_size_names_the_setting_it_refuses(self, value, message):
        with pytest.raises(DimensionError, match=message):
            check_size("n", value, 1)

    def test_seeded_rng_draws_as_a_seed_sequence_of_its_entropy(self):
        expected = np.random.default_rng(np.random.SeedSequence([0xD0C, 7])).random(4)
        assert np.array_equal(seeded_rng(0xD0C, np.int64(7)).random(4), expected)


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

    @pytest.mark.parametrize("glyph_size, twins", [(6, "'1' and '3'"), (5, "'3' and '4'")])
    def test_a_spec_whose_tokens_share_a_bitmap_is_refused(self, glyph_size, twins):
        with pytest.raises(DimensionError, match=f"glyphs {twins} share one bitmap"):
            build_spec(num_classes=10, glyph_size=glyph_size, seed=1)

    @pytest.mark.parametrize("num_classes", [10, 46])
    def test_size_20_glyph_sets_are_accepted_and_distinct(self, num_classes):
        spec = build_spec(num_classes=num_classes, glyph_size=20, seed=0)
        assert len({glyph.tobytes() for glyph in spec.glyphs.values()}) == num_classes

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
                      noise=0.0, seed=10)

    @pytest.mark.parametrize("field, value", [("chars", (1, 3)), ("lines", (1, 3))])
    def test_worst_case_overflow_is_refused_at_build(self, field, value):
        # one character in one column fits; the most of either does not
        kwargs = dict(canvas=(64, 64), glyphs=make_glyphs(("a",), 20, seed=12),
                      lines=(1, 1), chars=(1, 1), jitter=2, noise=0.0, seed=12)
        SynthSpec(**kwargs)
        kwargs[field] = value
        with pytest.raises(DimensionError, match="does not fit"):
            SynthSpec(**kwargs)

    def test_fit_rule_is_exact_at_its_edge(self):
        # cells of 14 px at the most chars and lines: (14 - 10) // 2 == jitter
        glyphs = make_glyphs(("a", "b", "c"), 10, seed=13)
        spec = SynthSpec(canvas=(42, 28), glyphs=glyphs, lines=(1, 2), chars=(1, 3),
                         jitter=2, noise=0.0, seed=13)
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
            SynthSpec(canvas=(64, 64), glyphs=glyphs, lines=(2, 2), chars=(1, 1), jitter=0,
                      noise=0.0, seed=11)

    @pytest.mark.parametrize("field, value", [("lines", (0, 1)), ("chars", (3, 2)),
                                              ("jitter", -1), ("noise", 1.5)])
    def test_bad_spec_settings_are_dimension_errors(self, field, value):
        kwargs = dict(canvas=(64, 64), glyphs=make_glyphs(("a",), 10, seed=11),
                      lines=(1, 1), chars=(1, 1), jitter=0, noise=0.0, seed=11)
        kwargs[field] = value
        with pytest.raises(DimensionError):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("setting, value", [
        ("noise", True), ("noise", np.True_), ("noise", "0.1"), ("noise", None),
        ("canvas", 96), ("lines", 3), ("chars", 3),
    ], ids=["bool-noise", "numpy-bool-noise", "string-noise", "no-noise", "one-value-canvas",
            "one-value-lines", "one-value-chars"])
    def test_a_setting_of_the_wrong_kind_is_a_dimension_error_naming_it(self, setting, value):
        with pytest.raises(DimensionError, match=setting):
            build_spec(**{setting: value})

    @pytest.mark.parametrize("num_classes", [0, 10_000])
    def test_class_count_out_of_range(self, num_classes):
        with pytest.raises(DimensionError, match="num_classes"):
            build_spec(num_classes=num_classes)
