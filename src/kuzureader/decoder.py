"""Coverage-attention LSTM decoder emitting one character per step.

Each step first attends over the feature grid: per-cell energies come
from the projected cell feature, the projected previous hidden state,
and the coverage value (the running sum of all past attention maps)
scaled through a learned vector; a softmax over all cells yields the
attention map, and the context vector is the attention-weighted sum of
cell features. The LSTM cell then consumes [context; previous-token
embedding], and the output distribution is a linear read-out of
embedding + projected hidden + projected context.

Per image, ``initial_state`` builds a ``DecodeTables`` of what no step
changes: the attention memory and the token and read-out tables. Every
state carries that one object, and a step changes only the hidden state,
the cell, the coverage and the trace.

A step is a few fused graph nodes. Each computes its forward in place, in
the order of the composition of ``autodiff`` ops it replaces (so the map,
context, cell, hidden state and coverage are bit-equal to it, and only the
logits' sum is regrouped), and records one vjp for all its inputs, which
computes what their gradients share once (``_record`` keeps none under
``no_grad``):

* ``_attention_weights``: the map, softmax(tanh(keys + h U_h + coverage
  u_c) e) over all cells. It keeps the tanh (cells x att) and the map;
* the context, one product of the map with the cell rows;
* ``_row_plus_products``: ``x1 w1 + table[row] + x2 w2`` as one flat node
  that keeps nothing of its own. It serves twice: as the 4H gate
  pre-activations, context W_c + token_gates[prev] + h W_h, laid out
  in/forget/out/candidate, and as the V logits, h hidden_logits +
  token_logits[prev] + context context_logits;
* ``_lstm``: the memory ``f * c + i * tanh(candidate)`` and the output
  ``o * tanh(memory)``, two nodes sharing one logistic over the first
  three gate blocks. The memory keeps it and the candidate's tanh, the
  output its tanh of the memory;
* the new coverage, the old one plus the map.

Coverage starts at zero and accumulates one attention map per step, so
the decoder can remember which regions it has already read. Decoding is
greedy: argmax per step (ties to the lowest token index) until the end
marker, the step limit, or a step whose logits are not finite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import vocab as vb
from .autodiff import (
    DimensionError,
    Tensor,
    _logistic,
    _record,
    _scattered,
    _softmax,
    matmul,
    no_grad,
    reshape,
)
# not called here: module attributes that bench/spans.py wraps by name, like matmul
from .autodiff import narrow, sigmoid, softmax_flat, tanh  # noqa: F401
from .encoder import FeatureGrid, _uniform, check_integer_fields


@dataclass(frozen=True)
class DecoderConfig:
    hidden_size: int = 256
    embed_size: int = 256
    attention_size: int = 128
    max_decode_len: int = 128

    def __post_init__(self):
        check_integer_fields(self)
        for name in ("hidden_size", "embed_size", "attention_size", "max_decode_len"):
            if getattr(self, name) < 1:
                raise DimensionError(f"{name} must be >= 1")


@dataclass(frozen=True)
class DecodeTables:
    """What every step of one decode reads and none changes, built once per image.

    * ``features`` is the grid the decode reads, ``flat`` its cells as rows
      (cells x C) and ``keys`` their projection through
      ``att.feature_proj`` (cells x att): the attention memory;
    * ``token_gates`` (V x 4H): per token, the LSTM input weights'
      embedding rows applied to its embedding, plus the gate bias. One
      V x E by E x 4H product;
    * the read-out folded to vocabulary width. The read-out
      ``(embedding + h P_h + context P_c) W_o`` is linear, so it is the sum
      of three terms, each taken through ``W_o`` once per decode:
      ``token_logits = embed.table W_o`` (V x V), ``hidden_logits = P_h W_o``
      (H x V) and ``context_logits = P_c W_o`` (C x V). Their products cost
      E x V x (V + H + C) multiply-adds, and a step then does (H + C) x V
      in place of E x (H + C + V).

    Each table's product does about V steps' worth of the work it saves, so
    it pays once a decode runs more steps than the vocabulary has tokens.
    Under teacher forcing the tables are matmul nodes that gather their
    gradient from every step and take one backward product each, so
    training reaches every parameter.
    """
    features: Tensor
    flat: Tensor
    keys: Tensor
    token_gates: Tensor
    token_logits: Tensor
    hidden_logits: Tensor
    context_logits: Tensor


@dataclass
class DecoderState:
    """Mutable per-run decoding state; step numbering starts at 1.

    Every step passes ``tables`` on as it is and replaces the rest.
    """
    tables: DecodeTables
    h: Tensor
    cell: Tensor
    coverage: Tensor
    attention_trace: list[Tensor] = field(default_factory=list)

    @property
    def t(self) -> int:
        """The number of the next step: one more than the steps taken."""
        return len(self.attention_trace) + 1


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


def _attention_weights(keys: Tensor, h: Tensor, hidden_proj: Tensor, coverage: Tensor,
                       coverage_proj: Tensor, energy: Tensor) -> Tensor:
    """The attention map softmax(tanh(keys + h U_h + coverage u_c) e) as one node.

    ``keys`` is cells x att, ``h`` 1 x H, ``hidden_proj`` H x att,
    ``coverage`` the gh x gw map, ``coverage_proj`` 1 x att and ``energy``
    att x 1; the map has the coverage's shape. The softmax runs over all
    cells. Backward keeps the tanh and the map.
    """
    gh, gw = coverage.shape
    cells = gh * gw
    column = coverage.data.reshape(cells, 1)
    act = keys.data + h.data @ hidden_proj.data
    act += column * coverage_proj.data
    np.tanh(act, out=act)
    scores = act @ energy.data
    y = _softmax(scores, out=scores)

    def vjp(g):
        g = g.reshape(cells, 1)
        dscores = y * (g - (g * y).sum())
        dpre = dscores @ energy.data.T
        dpre *= 1.0 - act * act
        dquery = dpre.sum(axis=0, keepdims=True)
        return (dpre, dquery @ hidden_proj.data.T, h.data.T @ dquery,
                (dpre @ coverage_proj.data.T).reshape(gh, gw), column.T @ dpre, act.T @ dscores)

    return _record(y.reshape(gh, gw), (keys, h, hidden_proj, coverage, coverage_proj, energy), vjp)


def _row_plus_products(x1: Tensor, w1: Tensor, table: Tensor, row: int, x2: Tensor,
                       w2: Tensor) -> Tensor:
    """``x1 w1 + table[row] + x2 w2``, summed in that order, as one flat node.

    ``x1`` and ``x2`` are 1 x n rows; the result has ``table``'s row width.
    The vjp yields its gradients one at a time, so the two weight
    gradients, the largest in a step, never exist at once.
    """
    y = x1.data @ w1.data
    y += table.data[row]
    y += x2.data @ w2.data

    def vjp(g):
        yield _scattered(table.data, row, g)
        yield g[None] @ w1.data.T
        yield x1.data.T @ g[None]
        yield g[None] @ w2.data.T
        yield x2.data.T @ g[None]

    return _record(y.reshape(-1), (table, x1, w1, x2, w2), vjp)


def _lstm(gates: Tensor, cell: Tensor) -> tuple[Tensor, Tensor]:
    """The LSTM update from the flat 4H gates (in/forget/out/candidate): (memory, output).

    Two nodes: the memory ``f * cell + i * tanh(candidate)`` and the output
    ``o * tanh(memory)``, where i, f and o are one logistic over the first
    three blocks. The memory node keeps that logistic and the candidate's
    tanh, the output node its tanh of the memory.
    """
    hidden = cell.shape[1]
    ifo = _logistic(gates.data[:3 * hidden])
    in_gate, forget_gate, out_gate = ifo.reshape(3, hidden)
    candidate = np.tanh(gates.data[3 * hidden:])
    memory = forget_gate * cell.data
    memory += in_gate * candidate
    squashed = np.tanh(memory)
    output = out_gate * squashed

    def memory_vjp(g):
        d = np.zeros_like(gates.data)  # the output gate's block stays zero
        d[:hidden] = g * candidate
        d[hidden:2 * hidden] = g * cell.data
        d[:3 * hidden] *= ifo
        d[:3 * hidden] *= 1.0 - ifo
        d[3 * hidden:] = g * in_gate * (1.0 - candidate * candidate)
        return d, g * forget_gate

    def output_vjp(g):
        d = np.zeros_like(gates.data)
        d[2 * hidden:3 * hidden] = g * squashed * out_gate * (1.0 - out_gate)
        return d, g * out_gate * (1.0 - squashed * squashed)

    memory_node = _record(memory, (gates, cell), memory_vjp)
    return memory_node, _record(output, (gates, memory_node), output_vjp)


class AttentionDecoder:
    """Weight-bearing decoder over a fixed vocabulary and feature width.

    The read-out adds the raw embedding to the projected hidden and
    context vectors before the vocabulary projection, which ties the
    embedding width to the projection width (both ``embed_size``).
    """

    def __init__(self, feature_channels: int, vocab_size: int,
                 config: DecoderConfig = DecoderConfig(), seed: int = 0):
        if vocab_size < 2:
            raise DimensionError("vocabulary must contain at least the start/end markers")
        self.config = config
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
            # the rows of one (C+E) x 4H draw: context rows, then embedding rows
            "lstm.context_w": Tensor(_uniform(rng, (channels, 4 * hidden), lstm_in), requires_grad=True),
            "lstm.embed_w": Tensor(_uniform(rng, (embed, 4 * hidden), lstm_in), requires_grad=True),
            "lstm.hidden_w": Tensor(_uniform(rng, (hidden, 4 * hidden), hidden), requires_grad=True),
            "lstm.bias": Tensor(lstm_bias, requires_grad=True),
            "out.hidden_proj": Tensor(_uniform(rng, (hidden, embed), hidden), requires_grad=True),
            "out.context_proj": Tensor(_uniform(rng, (channels, embed), channels), requires_grad=True),
            "out.vocab_proj": Tensor(_uniform(rng, (embed, vocab_size), embed), requires_grad=True),
        }

    @property
    def vocab_size(self) -> int:
        return self.params["out.vocab_proj"].shape[1]

    @property
    def feature_channels(self) -> int:
        return self.params["att.feature_proj"].shape[0]

    def initial_state(self, grid: FeatureGrid) -> DecoderState:
        """Per-image attention memory and token tables, zero hidden/cell state and coverage."""
        feats = grid.features
        gh, gw, gc = feats.shape
        if gc != self.feature_channels:
            raise DimensionError(f"feature grid has {gc} channels, decoder expects "
                                 f"{self.feature_channels}")
        p = self.params
        flat = reshape(feats, (gh * gw, gc))
        tables = DecodeTables(
            features=feats,
            flat=flat,
            keys=matmul(flat, p["att.feature_proj"]),
            token_gates=matmul(p["embed.table"], p["lstm.embed_w"]) + p["lstm.bias"],
            token_logits=matmul(p["embed.table"], p["out.vocab_proj"]),
            hidden_logits=matmul(p["out.hidden_proj"], p["out.vocab_proj"]),
            context_logits=matmul(p["out.context_proj"], p["out.vocab_proj"]),
        )
        hidden = self.config.hidden_size
        return DecoderState(tables, h=Tensor(np.zeros((1, hidden))),
                            cell=Tensor(np.zeros((1, hidden))), coverage=Tensor(np.zeros((gh, gw))))

    def attend(self, state: DecoderState):
        """One attention read from ``state``: (alpha over cells, context vector).

        alpha has the grid's spatial shape, is non-negative, and sums
        to 1; context is the alpha-weighted sum of cell features as a
        1 x C row.
        """
        p = self.params
        alpha = _attention_weights(state.tables.keys, state.h, p["att.hidden_proj"], state.coverage,
                                   p["att.coverage_proj"], p["att.energy"])
        flat = state.tables.flat
        context = matmul(reshape(alpha, (1, flat.shape[0])), flat)
        return alpha, context

    def step(self, grid: FeatureGrid, state: DecoderState, prev_token: int):
        """Advance one step given the previously emitted token index.

        Returns (logits over the vocabulary, new state). The new state's
        coverage is the old coverage plus this step's alpha, and the
        alpha is appended to the attention trace. ``grid`` must be the
        grid ``state`` was built from.
        """
        tables = state.tables
        if grid.features is not tables.features:
            raise DimensionError("step got a feature grid other than the one "
                                 "its state was built from")
        try:
            prev_token = operator.index(prev_token)
        except TypeError:
            raise DimensionError(f"token index {prev_token!r} is not an integer") from None
        if prev_token < 0 or prev_token >= self.vocab_size:
            raise DimensionError(f"token index {prev_token} out of range "
                                 f"for vocabulary of {self.vocab_size}")
        if state.t > self.config.max_decode_len:
            raise DimensionError(
                f"decode step {state.t} exceeds max_decode_len={self.config.max_decode_len}")
        p = self.params

        alpha, context = self.attend(state)
        gates = _row_plus_products(context, p["lstm.context_w"], tables.token_gates, prev_token,
                                   state.h, p["lstm.hidden_w"])
        cell, h = _lstm(gates, state.cell)
        logits = _row_plus_products(h, tables.hidden_logits, tables.token_logits, prev_token,
                                    context, tables.context_logits)
        return logits, DecoderState(tables, h, cell, state.coverage + alpha,
                                    state.attention_trace + [alpha])

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
