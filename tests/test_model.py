import numpy as np
import pytest

from kuzureader.autodiff import DimensionError
from kuzureader.decoder import AttentionDecoder, DecoderConfig
from kuzureader.encoder import EncoderConfig
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

    @pytest.mark.parametrize("edit, message", [
        (lambda v: v.pop("enc.stem.kernel"), "missing=.*enc.stem.kernel"),
        (lambda v: v.update({"dec.extra": np.zeros(1)}), "unexpected=.*dec.extra"),
    ], ids=["missing", "extra"])
    def test_name_mismatch_is_rejected(self, edit, message):
        model = make_model()
        values = random_values(model, seed=2)
        edit(values)
        with pytest.raises(ValueError, match=message):
            model.load_parameter_values(values)

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
