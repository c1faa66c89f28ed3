"""Full recognizer: encoder + decoder + vocabulary under one parameter map."""

from __future__ import annotations

import numpy as np

from .autodiff import DimensionError, Tensor, no_grad
from .data import check_real
from .decoder import AttentionDecoder, DecoderConfig, GreedyResult
from .encoder import DenseEncoder, EncoderConfig, FeatureGrid
from .vocab import Vocabulary


class Recognizer:
    def __init__(self, encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                 vocabulary: Vocabulary, seed: int = 0):
        self.vocabulary = vocabulary
        self.encoder = DenseEncoder(encoder_config, seed=seed)
        self.decoder = AttentionDecoder(encoder_config.output_channels, len(vocabulary),
                                        decoder_config, seed=seed)

    def parameters(self) -> dict[str, Tensor]:
        """Ordered name -> tensor map covering both halves."""
        merged: dict[str, Tensor] = {}
        for name, p in self.encoder.params.items():
            merged[f"enc.{name}"] = p
        for name, p in self.decoder.params.items():
            merged[f"dec.{name}"] = p
        return merged

    def encode(self, image: np.ndarray) -> FeatureGrid:
        return self.encoder.encode(image)

    def recognize(self, image: np.ndarray) -> GreedyResult:
        """Greedy transcription of one page (``DenseEncoder.encode`` pads it); records no graph."""
        with no_grad():
            return self.decoder.decode_greedy(self.encode(image))

    def load_parameter_values(self, values: dict[str, np.ndarray]) -> None:
        """Replace every parameter's values with copies, or none when any value is refused."""
        params = self.parameters()
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise DimensionError(f"parameter name mismatch: missing={sorted(missing)}, "
                                 f"unexpected={sorted(extra)}")
        checked = {}
        for name, p in params.items():
            value = check_real(f"parameter {name}", values[name])
            if value.shape != p.data.shape:
                raise DimensionError(f"parameter {name}: shape {value.shape} != {p.data.shape}")
            checked[name] = np.array(value, order="C")
        for name, value in checked.items():
            params[name].data = value

