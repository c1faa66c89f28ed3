import dataclasses
import tracemalloc

import numpy as np
import pytest

from kuzureader import data, vocab
from kuzureader.autodiff import DimensionError, NumericError, backward, logsumexp, pick
from kuzureader.data import check_size
from kuzureader.decoder import AttentionDecoder, DecoderConfig
from kuzureader.encoder import BLOCKS, DenseEncoder, EncoderConfig
from kuzureader.model import Recognizer
from kuzureader.vocab import Vocabulary


def make_model(seed=0):
    return Recognizer(EncoderConfig(growth_rate=2, block_depth=1, initial_channels=4),
                      DecoderConfig(hidden_size=6, embed_size=6, attention_size=4,
                                    max_decode_len=4),
                      Vocabulary.from_characters("ab"), seed=seed)


def random_values(model, seed):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=p.shape) for name, p in model.parameters().items()}


class TestParameters:
    def test_one_prefixed_entry_per_encoder_and_decoder_parameter(self):
        model = make_model()
        params = model.parameters()
        assert len(params) == len(model.encoder.params) + len(model.decoder.params)
        for name, p in model.encoder.params.items():
            assert params[f"enc.{name}"] is p
        for name, p in model.decoder.params.items():
            assert params[f"dec.{name}"] is p

    @pytest.mark.parametrize("initial,growth,depth,plan", [
        (5, 3, 2, [5, 11, 5, 11, 5, 11]),
        (4, 2, 1, [4, 6, 3, 5, 2, 4]),
        (48, 12, 4, [48, 96, 48, 96, 48, 96]),
    ])
    def test_every_shape_follows_the_channel_plan(self, initial, growth, depth, plan):
        config = EncoderConfig(growth_rate=growth, block_depth=depth, initial_channels=initial)
        assert config.channel_plan() == plan
        expected = {"stem.kernel": (3, 3, 1, plan[0]), "stem.bias": (plan[0],)}
        for block in range(BLOCKS):
            for layer in range(depth):
                name = f"block{block}.layer{layer}"
                expected[f"{name}.reduce.kernel"] = (1, 1, plan[2 * block] + layer * growth,
                                                     4 * growth)
                expected[f"{name}.reduce.bias"] = (4 * growth,)
                expected[f"{name}.conv.kernel"] = (3, 3, 4 * growth, growth)
                expected[f"{name}.conv.bias"] = (growth,)
            if block < BLOCKS - 1:
                expected[f"trans{block}.kernel"] = (1, 1, plan[2 * block + 1], plan[2 * block + 2])
                expected[f"trans{block}.bias"] = (plan[2 * block + 2],)
        model = Recognizer(config, DecoderConfig(hidden_size=4, embed_size=4, attention_size=2,
                                                 max_decode_len=2),
                           Vocabulary.from_characters("ab"))
        assert [(name, p.shape) for name, p in model.encoder.params.items()] == list(expected.items())
        assert model.decoder.feature_channels == config.output_channels == plan[-1]
        assert model.decoder.params["att.feature_proj"].shape[0] == config.output_channels
        image = np.random.default_rng(depth).random((8, 8, 1))
        assert model.encode(image).features.shape == (1, 1, config.output_channels)

    def test_load_parameter_values_round_trips(self):
        model = make_model()
        values = random_values(model, seed=1)
        model.load_parameter_values(values)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, values[name])
        other = make_model(seed=5)
        other.load_parameter_values({name: p.data for name, p in model.parameters().items()})
        for name, p in other.parameters().items():
            assert np.array_equal(p.data, values[name])

    def test_loaded_values_are_copies_the_model_owns(self):
        # a read-only value, such as another model's gradient, loads as a writable copy
        values = random_values(make_model(), seed=6)
        for value in values.values():
            value.flags.writeable = False
        first, second = make_model(), make_model(seed=5)
        first.load_parameter_values(values)
        second.load_parameter_values(values)
        for (name, p), q in zip(first.parameters().items(), second.parameters().values()):
            assert np.array_equal(p.data, values[name]) and p.data.flags.writeable
            assert not np.shares_memory(p.data, values[name])
            assert not np.shares_memory(p.data, q.data)

    @pytest.mark.parametrize("edit, message", [
        (lambda v: v.pop("enc.stem.kernel"), "missing=.*enc.stem.kernel"),
        (lambda v: v.update({"dec.extra": np.zeros(1)}), "unexpected=.*dec.extra"),
    ], ids=["missing", "extra"])
    def test_name_mismatch_is_rejected(self, edit, message):
        model = make_model()
        values = random_values(model, seed=2)
        edit(values)
        with pytest.raises(DimensionError, match=message):
            model.load_parameter_values(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_numeric_error(self, bad):
        model = make_model()
        values = random_values(model, seed=4)
        values["enc.stem.bias"][0] = bad
        with pytest.raises(NumericError, match="enc.stem.bias"):
            model.load_parameter_values(values)

    def test_refused_load_leaves_every_parameter_unchanged(self):
        model = make_model()
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        values = {name: np.full(p.shape, 7.0) for name, p in model.parameters().items()}
        assert list(values)[-1] == "dec.out.vocab_proj"
        values["dec.out.vocab_proj"][0, 0] = np.nan
        with pytest.raises(NumericError, match="dec.out.vocab_proj"):
            model.load_parameter_values(values)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name])

    # a complex value of the right shape differs only in its imaginary part
    @pytest.mark.parametrize("bad", [lambda shape: "not a number",
                                     lambda shape: np.full(shape, 1 + 2j)],
                             ids=["string", "complex"])
    def test_value_that_is_not_real_raises_numeric_error_and_changes_nothing(self, bad):
        model = make_model()
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        values = random_values(model, seed=5)
        values["dec.att.energy"] = bad(values["dec.att.energy"].shape)
        with pytest.raises(NumericError, match="dec.att.energy"):
            model.load_parameter_values(values)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name])

    def test_wrong_shape_raises_dimension_error(self):
        model = make_model()
        values = random_values(model, seed=3)
        values["dec.att.energy"] = np.zeros((2, 2))
        with pytest.raises(DimensionError, match="dec.att.energy"):
            model.load_parameter_values(values)
        assert issubclass(DimensionError, ValueError)


class TestRecognize:
    def test_decodes_features_without_a_graph(self, monkeypatch):
        model = make_model()
        seen = []
        original = AttentionDecoder.decode_greedy

        def spy(decoder, grid):
            seen.append(grid)
            return original(decoder, grid)

        monkeypatch.setattr(AttentionDecoder, "decode_greedy", spy)
        image = np.random.default_rng(0).random((8, 8, 1))
        result = model.recognize(image)
        assert len(seen) == 1
        assert seen[0].features.requires_grad is False
        assert len(result.trace) >= 1
        assert model.encode(image).features.requires_grad

    @pytest.mark.parametrize("where, bad, message", [
        (np.s_[:], np.nan, "non-finite"),
        ((3, 5, 0), np.inf, "non-finite"),
        (np.s_[:], 255.0, r"outside \[0, 1\]"),
        ((3, 5, 0), -0.5, r"outside \[0, 1\]"),
    ], ids=["all-nan", "one-inf", "0-255-scale", "one-negative"])
    def test_non_finite_or_out_of_range_image_raises_numeric_error(self, where, bad, message):
        model = make_model()
        image = np.zeros((8, 8, 1))
        image[where] = bad
        with pytest.raises(NumericError, match=message):
            model.recognize(image)

    @pytest.mark.parametrize("page", [np.full((8, 8, 1), "0"), np.full((8, 8, 1), 0.5 + 0.5j),
                                      np.full((8, 8, 1), 0.5, dtype=object)],
                             ids=["string", "complex", "object"])
    def test_a_page_that_is_not_real_is_a_numeric_error(self, page):
        with pytest.raises(NumericError, match="page is not real-valued"):
            make_model().recognize(page)


class TestTrainingStep:
    def test_backward_leaves_only_parameter_gradients_held(self):
        """One teacher-forced step on a 96 x 64 page, the caller holding loss, logits and grid."""
        spec = data.build_spec(num_classes=10, canvas=(96, 64))
        model = Recognizer(EncoderConfig(growth_rate=12, block_depth=4),
                           DecoderConfig(hidden_size=256, embed_size=256, attention_size=128,
                                         max_decode_len=128),
                           spec.vocabulary(), seed=0)
        sample = data.generate_document(spec, 0)
        param_bytes = sum(p.data.nbytes for p in model.parameters().values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid = model.encode(sample.image)
            state = model.decoder.initial_state(grid)
            loss, logits, prev = None, [], vocab.START
            for token in (*sample.target, vocab.END):
                step_logits, state = model.decoder.step(grid, state, prev)
                term = logsumexp(step_logits) - pick(step_logits, token)
                loss = term if loss is None else loss + term
                logits.append(step_logits)
                prev = token
            backward(loss)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.parameters().values())
        assert held <= param_bytes + 1_000_000, (held, param_bytes)


SMALL_DECODER = DecoderConfig(hidden_size=4, embed_size=4, attention_size=2, max_decode_len=3)

# each takes a seed and makes one seeded draw
SEEDED = {
    "generate_document": lambda seed: data.generate_document(data.build_spec(), seed),
    "build_spec": lambda seed: data.build_spec(seed=seed),
    "make_glyphs": lambda seed: data.make_glyphs(("a",), 10, seed),
    "DenseEncoder": lambda seed: DenseEncoder(EncoderConfig(2, 1, 4), seed=seed),
    "AttentionDecoder": lambda seed: AttentionDecoder(6, 4, SMALL_DECODER, seed=seed),
    "Recognizer": lambda seed: Recognizer(EncoderConfig(2, 1, 4), SMALL_DECODER,
                                          Vocabulary.from_characters("ab"), seed=seed),
    "SynthSpec": lambda seed: dataclasses.replace(data.build_spec(), seed=seed),
}

# each sets a size that is not an integer, which is refused where it is set, not later
NON_INTEGER_SETTINGS = {
    "num-classes": (lambda: data.build_spec(num_classes=2.0), "num_classes"),
    "canvas": (lambda: data.build_spec(canvas=(96.0, 64)), "canvas"),
    "one-value-lines": (lambda: dataclasses.replace(data.build_spec(), lines=(2,)), "lines"),
    "bool-jitter": (lambda: data.build_spec(jitter=True), "jitter"),
}


class TestIntegerRule:
    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    @pytest.mark.parametrize("name", list(SEEDED))
    def test_every_seeded_draw_refuses_a_seed_that_is_not_a_non_negative_integer(self, name, seed):
        with pytest.raises(DimensionError, match="seed"):
            SEEDED[name](seed)

    @pytest.mark.parametrize("name", list(NON_INTEGER_SETTINGS))
    def test_a_size_that_is_not_an_integer_is_refused_where_it_is_set(self, name):
        build, setting = NON_INTEGER_SETTINGS[name]
        with pytest.raises(DimensionError, match=setting):
            build()

    def test_numpy_integers_pass_as_ints_and_numpy_bools_are_refused(self):
        assert type(check_size("n", np.int64(3), 1)) is int
        with pytest.raises(DimensionError, match="n must be an integer"):
            check_size("n", np.True_, 0)
