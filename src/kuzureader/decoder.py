"""Coverage-attention LSTM decoder emitting one character per step.

Each step first attends over the feature grid: per-cell energies come
from the projected cell feature, the projected previous hidden state,
and the coverage value (the running sum of all past attention maps)
scaled through a learned vector; a softmax over all cells yields the
attention map, and the context vector is the attention-weighted sum of
cell features. The LSTM cell then consumes [context; previous-token
embedding], and the output distribution is a linear read-out of
embedding + projected hidden + projected context.

The cell features and their projection (the attention keys) do not
change from step to step, so ``initial_state`` computes them once per
image and the state carries them; under teacher forcing the keys gather
their gradient from every step and take one backward product. The LSTM
gate pre-activations are laid out in/forget/out/candidate and go through
one sigmoid over the first three blocks and one tanh over the last.

Coverage starts at zero and accumulates one attention map per step, so
the decoder can remember which regions it has already read. Decoding is
greedy: argmax per step (ties to the lowest token index) until the end
marker, the step limit, or a step whose logits are not finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vocab as vb
from .autodiff import (
    DimensionError,
    Tensor,
    concat,
    embedding_lookup,
    matmul,
    mul,
    narrow,
    no_grad,
    reshape,
    sigmoid,
    softmax_flat,
    tanh,
)
from .encoder import FeatureGrid, _uniform


@dataclass(frozen=True)
class DecoderConfig:
    hidden_size: int = 256
    embed_size: int = 256
    attention_size: int = 128
    max_decode_len: int = 128

    def __post_init__(self):
        for name in ("hidden_size", "embed_size", "attention_size", "max_decode_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class DecoderState:
    """Mutable per-run decoding state; step numbering starts at 1.

    ``features`` is the grid the state was built from, ``flat`` its cells
    as rows (cells x C) and ``keys`` their projection through
    ``att.feature_proj`` (cells x att); every step passes them on as they are.
    """
    features: Tensor
    flat: Tensor
    keys: Tensor
    h: Tensor
    cell: Tensor
    coverage: Tensor
    t: int = 1
    attention_trace: list[Tensor] = field(default_factory=list)


@dataclass
class GreedyResult:
    """A greedy decode and why it stopped.

    ``stop_reason`` is ``"end"`` (the end marker was emitted), ``"limit"``
    (``max_decode_len`` steps ran without it) or ``"non-finite"`` (a step's
    logits held a NaN or an infinity; that step emitted nothing, and its
    map is the last one in the trace). ``truncated`` is derived from it.
    """
    tokens: tuple[int, ...]
    trace: list[np.ndarray]
    stop_reason: str

    @property
    def truncated(self) -> bool:
        return self.stop_reason == "limit"


class SequenceTooLongError(RuntimeError):
    """Raised when a teacher-forced sequence exceeds the decode limit."""


class AttentionDecoder:
    """Weight-bearing decoder over a fixed vocabulary and feature width.

    The read-out adds the raw embedding to the projected hidden and
    context vectors before the vocabulary projection, which ties the
    embedding width to the projection width (both ``embed_size``).
    """

    def __init__(self, feature_channels: int, vocab_size: int,
                 config: DecoderConfig = DecoderConfig(), seed: int = 0):
        if vocab_size < 2:
            raise ValueError("vocabulary must contain at least the start/end markers")
        self.config = config
        self.feature_channels = feature_channels
        self.vocab_size = vocab_size
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEC]))
        hidden, embed, att = config.hidden_size, config.embed_size, config.attention_size
        channels = feature_channels

        lstm_in = channels + embed
        lstm_bias = np.zeros((1, 4 * hidden))
        lstm_bias[0, hidden:2 * hidden] = 1.0  # forget gate open at start

        self.params: dict[str, Tensor] = {
            "embed.table": Tensor(_uniform(rng, (vocab_size, embed), embed), requires_grad=True),
            "att.feature_proj": Tensor(_uniform(rng, (channels, att), channels), requires_grad=True),
            "att.hidden_proj": Tensor(_uniform(rng, (hidden, att), hidden), requires_grad=True),
            "att.coverage_proj": Tensor(_uniform(rng, (1, att), 1), requires_grad=True),
            "att.energy": Tensor(_uniform(rng, (att, 1), att), requires_grad=True),
            "lstm.input_w": Tensor(_uniform(rng, (lstm_in, 4 * hidden), lstm_in), requires_grad=True),
            "lstm.hidden_w": Tensor(_uniform(rng, (hidden, 4 * hidden), hidden), requires_grad=True),
            "lstm.bias": Tensor(lstm_bias, requires_grad=True),
            "out.hidden_proj": Tensor(_uniform(rng, (hidden, embed), hidden), requires_grad=True),
            "out.context_proj": Tensor(_uniform(rng, (channels, embed), channels), requires_grad=True),
            "out.vocab_proj": Tensor(_uniform(rng, (embed, vocab_size), embed), requires_grad=True),
        }

    def initial_state(self, grid: FeatureGrid) -> DecoderState:
        """Per-image attention memory, zero hidden/cell state and zero coverage."""
        feats = grid.features
        gh, gw, gc = feats.shape
        if gc != self.feature_channels:
            raise DimensionError(f"feature grid has {gc} channels, decoder expects "
                                 f"{self.feature_channels}")
        flat = reshape(feats, (gh * gw, gc))
        hidden = self.config.hidden_size
        return DecoderState(
            features=feats,
            flat=flat,
            keys=matmul(flat, self.params["att.feature_proj"]),
            h=Tensor(np.zeros((1, hidden))),
            cell=Tensor(np.zeros((1, hidden))),
            coverage=Tensor(np.zeros((gh, gw))),
        )

    def attend(self, state: DecoderState):
        """One attention read from ``state``: (alpha over cells, context vector).

        alpha has the grid's spatial shape, is non-negative, and sums
        to 1; context is the alpha-weighted sum of cell features as a
        1 x C row.
        """
        gh, gw = state.coverage.shape
        cells = gh * gw
        # coverage term as a broadcast (cells x 1) * (1 x att): one product per entry,
        # the same values as the k=1 matmul
        energy_in = (state.keys
                     + matmul(state.h, self.params["att.hidden_proj"])
                     + mul(reshape(state.coverage, (cells, 1)), self.params["att.coverage_proj"]))
        energies = matmul(tanh(energy_in), self.params["att.energy"])
        alpha_flat = softmax_flat(energies)
        context = matmul(reshape(alpha_flat, (1, cells)), state.flat)
        return reshape(alpha_flat, (gh, gw)), context

    def step(self, grid: FeatureGrid, state: DecoderState, prev_token: int):
        """Advance one step given the previously emitted token index.

        Returns (logits over the vocabulary, new state). The new state's
        coverage is the old coverage plus this step's alpha, and the
        alpha is appended to the attention trace. ``grid`` must be the
        grid ``state`` was built from.
        """
        if grid.features is not state.features:
            raise DimensionError("step got a feature grid other than the one "
                                 "its state was built from")
        if prev_token < 0 or prev_token >= self.vocab_size:
            raise DimensionError(f"token index {prev_token} out of range "
                                 f"for vocabulary of {self.vocab_size}")
        if state.t > self.config.max_decode_len:
            raise SequenceTooLongError(
                f"decode step {state.t} exceeds max_decode_len={self.config.max_decode_len}")
        hidden = self.config.hidden_size

        alpha, context = self.attend(state)
        embedded = embedding_lookup(self.params["embed.table"], prev_token)

        gates = (matmul(concat([context, embedded], axis=1), self.params["lstm.input_w"])
                 + matmul(state.h, self.params["lstm.hidden_w"])
                 + self.params["lstm.bias"])
        in_forget_out = sigmoid(narrow(gates, 1, 0, 3 * hidden))
        in_gate, forget_gate, out_gate = (narrow(in_forget_out, 1, k * hidden, hidden)
                                          for k in range(3))
        candidate = tanh(narrow(gates, 1, 3 * hidden, hidden))
        cell = mul(forget_gate, state.cell) + mul(in_gate, candidate)
        h = mul(out_gate, tanh(cell))

        readout = (embedded
                   + matmul(h, self.params["out.hidden_proj"])
                   + matmul(context, self.params["out.context_proj"]))
        logits = reshape(matmul(readout, self.params["out.vocab_proj"]), (self.vocab_size,))

        new_state = DecoderState(
            features=state.features,
            flat=state.flat,
            keys=state.keys,
            h=h,
            cell=cell,
            coverage=state.coverage + alpha,
            t=state.t + 1,
            attention_trace=state.attention_trace + [alpha],
        )
        return logits, new_state

    def decode_greedy(self, grid: FeatureGrid) -> GreedyResult:
        """Greedy decode: argmax per step until the end marker, the limit or non-finite logits.

        The returned token sequence contains neither marker index; an
        anomalously emitted start marker is dropped from the sequence
        but keeps its trace entry. The trace holds one attention map
        per executed step, including the stopping step.
        """
        with no_grad():
            state = self.initial_state(grid)
            prev = vb.START
            tokens: list[int] = []
            stop_reason = "limit"
            for _ in range(self.config.max_decode_len):
                logits, state = self.step(grid, state, prev)
                if not np.isfinite(logits.data).all():
                    stop_reason = "non-finite"
                    break
                choice = int(np.argmax(logits.data))  # first max wins ties
                if choice == vb.END:
                    stop_reason = "end"
                    break
                if choice != vb.START:
                    tokens.append(choice)
                prev = choice
        return GreedyResult(tuple(tokens), [a.data for a in state.attention_trace], stop_reason)
