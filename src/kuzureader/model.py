"""Full recognizer: encoder + decoder + vocabulary under one parameter map."""

from __future__ import annotations

import numpy as np

from .autodiff import DimensionError, NumericError, Tensor, no_grad
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

    def encode(self, image: Tensor | np.ndarray) -> FeatureGrid:
        return self.encoder.encode(image)

    def recognize(self, image: Tensor | np.ndarray) -> GreedyResult:
        """Greedy transcription of one pre-padded image; records no graph."""
        with no_grad():
            return self.decoder.decode_greedy(self.encode(image))

    def load_parameter_values(self, values: dict[str, np.ndarray]) -> None:
        """Replace every parameter's values, or none when any value is refused."""
        params = self.parameters()
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise DimensionError(f"parameter name mismatch: missing={sorted(missing)}, "
                                 f"unexpected={sorted(extra)}")
        checked = {}
        for name, p in params.items():
            value = np.asarray(values[name])
            if value.dtype.kind not in "biuf":  # bool, integer or float
                raise NumericError(f"parameter {name} is not real-valued ({value.dtype})")
            value = value.astype(np.float64, copy=False)
            if value.shape != p.data.shape:
                raise DimensionError(f"parameter {name}: shape {value.shape} != {p.data.shape}")
            if not np.isfinite(value).all():
                raise NumericError(f"parameter {name} has non-finite values")
            checked[name] = np.ascontiguousarray(value)
        for name, value in checked.items():
            params[name].data = value


def pad_to_factor(image: np.ndarray, factor: int, background: float = 0.0) -> np.ndarray:
    """Pad an H x W x C image at the bottom/right to multiples of ``factor`` (at least 1)."""
    if factor < 1:
        raise DimensionError(f"padding factor must be >= 1, got {factor}")
    h, w = image.shape[:2]
    ph = (-h) % factor
    pw = (-w) % factor
    if ph == 0 and pw == 0:
        return image
    return np.pad(image, ((0, ph), (0, pw), (0, 0)), constant_values=background)
