import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzureader import autodiff
from kuzureader import decoder as decoder_mod
from kuzureader import vocab as vb
from kuzureader.autodiff import (
    DatasetError,
    DimensionError,
    Tensor,
    backward,
    execution_order,
    grad_check,
    logsumexp,
    no_grad,
    pick,
    sum_all,
)
from kuzureader.decoder import (
    AttentionDecoder,
    DecoderConfig,
    _attention_weights,
    _lstm,
    _row_plus_products,
)
from kuzureader.encoder import FeatureGrid, _uniform
from kuzureader.vocab import Vocabulary

from helpers import weighted


def make_grid(h, w, c, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureGrid(features=Tensor(rng.normal(size=(h, w, c))))


def attend_with(dec, grid, h_prev, coverage):
    """attend() on a fresh state for ``grid`` with the given hidden state and coverage."""
    state = dataclasses.replace(dec.initial_state(grid), h=Tensor(h_prev), coverage=Tensor(coverage))
    return dec.attend(state)


def make_decoder(channels=6, vocab_size=5, hidden=8, embed=8, att=4, seed=0,
                 max_len=16):
    config = DecoderConfig(hidden_size=hidden, embed_size=embed,
                           attention_size=att, max_decode_len=max_len)
    return AttentionDecoder(channels, vocab_size, config, seed=seed)


class TestVocabulary:
    def test_reserved_markers(self):
        v = Vocabulary.from_characters("abc")
        assert v.tokens[:2] == ("<S>", "<E>")
        assert v.index("<S>") == vb.START == 0
        assert v.index("<E>") == vb.END == 1
        assert len(v) == 5

    def test_lookup_roundtrip(self):
        v = Vocabulary.from_characters("xyz")
        for i, token in enumerate(v.tokens):
            assert v.index(v.token(i)) == i
            assert v.token(v.index(token)) == token

    def test_index_outside_the_vocabulary_is_refused(self):
        v = Vocabulary.from_characters("ab")
        for index in (-1, len(v)):
            with pytest.raises(DatasetError, match="outside 0..3"):
                v.token(index)
        with pytest.raises(DatasetError, match="index -2"):
            v.decode([-2])

    def test_index_that_is_not_an_integer_is_refused(self):
        v = Vocabulary.from_characters("ab")
        assert v.token(np.int64(2)) == "a"
        for index in (1.0, np.float64(2.0), "2", None, True, False):
            with pytest.raises(DatasetError, match="not an integer"):
                v.token(index)

    def test_sha256_names_the_tokens_in_order(self):
        v = Vocabulary.from_characters("abc")
        assert v.sha256() == Vocabulary.from_characters("abc").sha256()
        assert len(v.sha256()) == 64 and int(v.sha256(), 16) >= 0
        for other in ("acb", "abd", "ab", "abcd"):
            assert Vocabulary.from_characters(other).sha256() != v.sha256(), other

    def test_rejects_bad_header_and_duplicates(self):
        with pytest.raises(DatasetError, match="must begin"):
            Vocabulary(["<E>", "<S>", "a"])
        with pytest.raises(DatasetError, match="unique"):
            Vocabulary(["<S>", "<E>", "a", "a"])

    @pytest.mark.parametrize("tokens", [[], ["<S>"], ["<E>", "<S>", "a"], ["a", "<S>", "<E>"],
                                        ["<S>", "a", "<E>"]],
                             ids=["empty", "start-only", "swapped", "content-first", "end-late"])
    def test_rejects_a_vocabulary_that_does_not_begin_with_its_markers(self, tokens):
        with pytest.raises(DatasetError, match="must begin with '<S>', '<E>'"):
            Vocabulary(tokens)

    @pytest.mark.parametrize("tokens", [["<S>", "<E>", "a", "a"], ["<S>", "<E>", "<S>"],
                                        ["<S>", "<E>", "a", "<E>"], ["<S>", "<E>", *"aba"]],
                             ids=["content", "start-again", "end-again", "content-apart"])
    def test_rejects_a_repeated_token(self, tokens):
        with pytest.raises(DatasetError, match="unique"):
            Vocabulary(tokens)

    def test_a_bool_is_no_token_index(self):
        v = Vocabulary.from_characters("ab")
        with pytest.raises(DatasetError, match="False is not an integer"):
            v.decode([False, True])
        with pytest.raises(DatasetError, match="not an integer"):
            v.token(np.True_)
        assert v.decode([np.int64(0), 1]) == ("<S>", "<E>")

    @given(st.lists(st.text(min_size=1, max_size=3).filter(lambda t: t.split() == [t]),
                    unique=True, max_size=8).filter(lambda ts: not {"<S>", "<E>"} & set(ts)))
    @settings(max_examples=50, deadline=None)
    def test_tokens_written_with_spaces_split_back_and_decode_back(self, tokens):
        v = Vocabulary.from_characters(tokens)
        assert " ".join(tokens).split() == tokens
        assert v.decode([v.index(t) for t in tokens]) == tuple(tokens)

    def test_unknown_token_is_a_dataset_error(self):
        v = Vocabulary.from_characters("ab")
        with pytest.raises(DatasetError, match="'Q' not in vocabulary"):
            v.index("Q")
        assert [v.index(t) for t in "ab"] == [2, 3]

    @pytest.mark.parametrize("token", ["a\nb", "", "a\r", "x\x0cy", "\u2028", "a b", "a\tb"])
    def test_rejects_a_token_the_file_cannot_hold(self, token):
        with pytest.raises(DatasetError, match="newline-free"):
            Vocabulary(["<S>", "<E>", "a", token])

    @pytest.mark.parametrize("token", [1, None, b"a", ("a",)], ids=["int", "none", "bytes", "tuple"])
    def test_rejects_a_token_that_is_not_a_string(self, token):
        with pytest.raises(DatasetError, match="strings"):
            Vocabulary(["<S>", "<E>", token])
        with pytest.raises(DatasetError, match="strings"):
            Vocabulary.from_characters(["a", token])


class TestConfig:
    @pytest.mark.parametrize("field", ["hidden_size", "embed_size", "attention_size",
                                       "max_decode_len"])
    def test_non_positive_size_raises_dimension_error(self, field):
        with pytest.raises(DimensionError, match=f"{field} must be >= 1"):
            DecoderConfig(**{field: 0})

    @pytest.mark.parametrize("value", [2.5, "3"], ids=["float", "string"])
    def test_non_integer_size_raises_dimension_error(self, value):
        with pytest.raises(DimensionError, match="hidden_size must be an integer"):
            DecoderConfig(hidden_size=value)

    def test_numpy_integer_sizes_build_a_decoder(self):
        config = DecoderConfig(*(np.int64(n) for n in (4, 4, 2, 3)))
        grid = make_grid(2, 2, 6)
        assert len(AttentionDecoder(6, 5, config).decode_greedy(grid).trace) <= 3

    @pytest.mark.parametrize("channels", [0, 2.5, True], ids=["zero", "float", "bool"])
    def test_feature_channels_that_are_not_a_positive_integer_raise_dimension_error(self, channels):
        with pytest.raises(DimensionError, match="feature_channels"):
            AttentionDecoder(channels, 5, DecoderConfig(4, 4, 2, 3))

    def test_vocabulary_without_both_markers_raises_dimension_error(self):
        with pytest.raises(DimensionError, match="vocab_size must be >= 2"):
            make_decoder(vocab_size=1)

    def test_sizes_are_read_from_the_parameter_shapes(self):
        dec = make_decoder(channels=6, vocab_size=7)
        assert (dec.vocab_size, dec.feature_channels) == (7, 6)
        assert "vocab_size" not in vars(dec) and "feature_channels" not in vars(dec)
        with pytest.raises(AttributeError):
            dec.vocab_size = 3
        with pytest.raises(AttributeError):
            dec.feature_channels = 3

    def test_step_ops_stay_module_attributes(self):
        # a traced benchmark run wraps these by name to time a step's ops
        for name in ("matmul", "tanh", "sigmoid", "narrow", "softmax_flat"):
            assert getattr(decoder_mod, name) is getattr(autodiff, name)


class TestAttend:
    def test_equal_energies_give_uniform_alpha_and_mean_context(self):
        dec = make_decoder(channels=3)
        # zero projections make every cell's energy identical
        for name in ("att.feature_proj", "att.hidden_proj", "att.coverage_proj"):
            dec.params[name].data[:] = 0.0
        grid = make_grid(2, 3, 3, seed=1)
        alpha, context = attend_with(dec, grid, np.zeros((1, 8)), np.zeros((2, 3)))
        assert np.allclose(alpha.data, 1.0 / 6.0)
        assert np.allclose(context.data[0], grid.features.data.mean(axis=(0, 1)))

    def test_single_cell_grid(self):
        dec = make_decoder(channels=4)
        grid = make_grid(1, 1, 4, seed=2)
        alpha, context = attend_with(dec, grid, np.zeros((1, 8)), np.zeros((1, 1)))
        assert alpha.data.shape == (1, 1)
        assert alpha.data[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(context.data[0], grid.features.data[0, 0])

    def test_two_by_two_against_hand_oracle(self):
        dec = make_decoder(channels=2, hidden=2, att=2)
        # hand-set weights small enough to compute by hand
        dec.params["att.feature_proj"].data = np.array([[1.0, 0.0], [0.0, 1.0]])
        dec.params["att.hidden_proj"].data = np.array([[0.5, 0.0], [0.0, 0.5]])
        dec.params["att.coverage_proj"].data = np.array([[0.25, -0.25]])
        dec.params["att.energy"].data = np.array([[1.0], [-1.0]])
        feats = np.array([[[0.1, 0.2], [0.3, -0.1]],
                          [[-0.2, 0.4], [0.0, 0.5]]])
        h_prev = np.array([[0.2, -0.4]])
        coverage = np.array([[0.0, 1.0], [0.5, 0.0]])

        # independent oracle: plain python floats per cell
        energies = []
        for u in range(2):
            for v in range(2):
                pre0 = feats[u, v, 0] + 0.5 * h_prev[0, 0] + 0.25 * coverage[u, v]
                pre1 = feats[u, v, 1] + 0.5 * h_prev[0, 1] - 0.25 * coverage[u, v]
                energies.append(math.tanh(pre0) * 1.0 + math.tanh(pre1) * -1.0)
        mx = max(energies)
        exps = [math.exp(e - mx) for e in energies]
        total = sum(exps)
        expected_alpha = np.array([e / total for e in exps]).reshape(2, 2)
        expected_context = np.zeros(2)
        for u in range(2):
            for v in range(2):
                expected_context += expected_alpha[u, v] * feats[u, v]

        grid = FeatureGrid(features=Tensor(feats))
        alpha, context = attend_with(dec, grid, h_prev, coverage)
        assert np.max(np.abs(alpha.data - expected_alpha)) < 1e-9
        assert np.max(np.abs(context.data[0] - expected_context)) < 1e-9


class TestStep:
    def test_first_step_uses_zero_coverage(self):
        dec = make_decoder()
        grid = make_grid(2, 2, 6, seed=3)
        state = dec.initial_state(grid)
        assert np.array_equal(state.coverage.data, np.zeros((2, 2)))
        assert state.t == 1

    def test_step_number_counts_the_steps_taken(self):
        dec = make_decoder()
        grid = make_grid(2, 2, 6, seed=3)
        state = dec.initial_state(grid)
        for k, token in enumerate((vb.START, 2, 3), start=1):
            _, state = dec.step(grid, state, token)
            assert state.t == k + 1

    def test_coverage_increment_equals_alpha(self):
        dec = make_decoder()
        grid = make_grid(3, 2, 6, seed=4)
        state = dec.initial_state(grid)
        _, state1 = dec.step(grid, state, vb.START)
        assert np.array_equal(state1.coverage.data - state.coverage.data,
                              state1.attention_trace[-1].data)
        _, state2 = dec.step(grid, state1, 2)
        # recurrence is exact as the same addition; the subtracted form only
        # holds to roundoff
        assert np.array_equal(state2.coverage.data,
                              state1.coverage.data + state2.attention_trace[-1].data)
        assert np.allclose(state2.coverage.data - state1.coverage.data,
                           state2.attention_trace[-1].data, atol=1e-15)

    def test_coverage_is_running_sum_of_trace(self):
        dec = make_decoder()
        grid = make_grid(2, 4, 6, seed=5)
        state = dec.initial_state(grid)
        for token in (vb.START, 2, 3, 4, 2):
            _, state = dec.step(grid, state, token)
        running = np.zeros((2, 4))
        for alpha in state.attention_trace:
            running = running + alpha.data
        assert np.array_equal(state.coverage.data, running)

    def test_alpha_normalized_every_step(self):
        dec = make_decoder()
        grid = make_grid(3, 3, 6, seed=6)
        state = dec.initial_state(grid)
        for token in (vb.START, 2, 3):
            _, state = dec.step(grid, state, token)
        for alpha in state.attention_trace:
            assert np.all(alpha.data >= 0)
            assert abs(alpha.data.sum() - 1.0) <= 1e-6

    def test_logits_length_matches_vocabulary(self):
        for vocab_size in (3, 7, 30):
            dec = make_decoder(vocab_size=vocab_size)
            grid = make_grid(2, 2, 6, seed=7)
            logits, _ = dec.step(grid, dec.initial_state(grid), vb.START)
            assert logits.shape == (vocab_size,)

    def test_step_limit_enforced(self):
        dec = make_decoder(max_len=2)
        grid = make_grid(2, 2, 6, seed=8)
        state = dec.initial_state(grid)
        _, state = dec.step(grid, state, vb.START)
        _, state = dec.step(grid, state, 2)
        with pytest.raises(DimensionError, match="max_decode_len=2"):
            dec.step(grid, state, 2)

    def test_attention_memory_is_computed_once_and_carried(self):
        dec = make_decoder()
        grid = make_grid(3, 2, 6, seed=15)
        state = dec.initial_state(grid)
        assert np.array_equal(state.tables.keys.data,
                              grid.features.data.reshape(6, 6) @ dec.params["att.feature_proj"].data)
        _, state1 = dec.step(grid, state, vb.START)
        _, state2 = dec.step(grid, state1, 2)
        assert state2.tables is state.tables
        assert state2.tables.features is grid.features

    def test_step_refuses_a_previous_token_that_is_not_an_integer(self):
        dec = make_decoder()
        grid = make_grid(2, 2, 6, seed=17)
        state = dec.initial_state(grid)
        expected, _ = dec.step(grid, state, 2)
        logits, _ = dec.step(grid, state, np.int64(2))
        assert np.array_equal(logits.data, expected.data)
        for prev in (1.0, np.float64(2.0), "2", None, True):
            with pytest.raises(DimensionError, match="token index must be an integer"):
                dec.step(grid, state, prev)

    def test_step_rejects_a_grid_other_than_the_states(self):
        dec = make_decoder()
        grid = make_grid(2, 2, 6, seed=16)
        other = make_grid(2, 2, 6, seed=16)  # equal values, another tensor
        state = dec.initial_state(grid)
        with pytest.raises(DimensionError, match="other than"):
            dec.step(other, state, vb.START)
        _, state = dec.step(grid, state, vb.START)
        with pytest.raises(DimensionError, match="other than"):
            dec.step(other, state, 2)

    def test_initial_state_rejects_a_channel_mismatch(self):
        dec = make_decoder(channels=6)
        with pytest.raises(DimensionError, match="channels"):
            dec.initial_state(make_grid(2, 2, 5))

    def test_teacher_forced_gradients_of_every_parameter_and_the_grid(self):
        dec = make_decoder(channels=3, vocab_size=5, hidden=3, embed=3, att=2, seed=17)
        grid = FeatureGrid(features=Tensor(np.random.default_rng(17).normal(size=(2, 2, 3)),
                                           requires_grad=True))
        params = [*dec.params.values(), grid.features]
        assert len(params) == 13
        # the second target feeds one token gate row from two steps
        for target in ((2, 4, vb.END), (2, 2, vb.END)):
            def loss():
                state = dec.initial_state(grid)
                prev, total = vb.START, None
                for token in target:
                    logits, state = dec.step(grid, state, prev)
                    term = logsumexp(logits) - pick(logits, token)
                    total = term if total is None else total + term
                    prev = token
                return total

            assert grad_check(loss, params) < 1e-6
            assert all(p.grad is not None and np.any(p.grad != 0) for p in params)

    def test_lstm_input_rows_are_one_draw_split_in_two(self):
        channels, vocab_size, hidden, embed, att = 6, 5, 8, 8, 4
        dec = make_decoder(channels, vocab_size, hidden, embed, att, seed=22)
        rng = np.random.default_rng(np.random.SeedSequence([22, 0xDEC]))
        for shape, fan_in in (((vocab_size, embed), embed), ((channels, att), channels),
                              ((hidden, att), hidden), ((1, att), 1), ((att, 1), att)):
            _uniform(rng, shape, fan_in)
        whole = _uniform(rng, (channels + embed, 4 * hidden), channels + embed)
        assert np.array_equal(np.vstack([dec.params["lstm.context_w"].data,
                                         dec.params["lstm.embed_w"].data]), whole)
        assert np.array_equal(dec.params["lstm.hidden_w"].data,
                              _uniform(rng, (hidden, 4 * hidden), hidden))

    def test_step_matches_the_unsplit_lstm_input_product(self):
        hidden = 8
        dec = make_decoder(hidden=hidden, seed=23)
        grid = make_grid(3, 2, 6, seed=23)
        p = {name: t.data for name, t in dec.params.items()}
        input_w = np.vstack([p["lstm.context_w"], p["lstm.embed_w"]])
        state = dec.initial_state(grid)
        for prev in (vb.START, 2, 2, 4, 3):
            _, context = dec.attend(state)
            embedded = p["embed.table"][prev:prev + 1]
            gates = (np.concatenate([context.data, embedded], axis=1) @ input_w
                     + state.h.data @ p["lstm.hidden_w"] + p["lstm.bias"])
            sig = 1.0 / (1.0 + np.exp(-gates[:, :3 * hidden]))
            in_gate, forget_gate, out_gate = (sig[:, k * hidden:(k + 1) * hidden] for k in range(3))
            cell = forget_gate * state.cell.data + in_gate * np.tanh(gates[:, 3 * hidden:])
            h = out_gate * np.tanh(cell)
            expected = (embedded + h @ p["out.hidden_proj"]
                        + context.data @ p["out.context_proj"]) @ p["out.vocab_proj"]
            logits, state = dec.step(grid, state, prev)
            assert np.max(np.abs(logits.data - expected[0])) < 1e-12
            assert np.max(np.abs(state.cell.data - cell)) < 1e-12

    def test_gradient_flows_into_coverage_weights(self):
        dec = make_decoder(channels=3, vocab_size=4, hidden=4, embed=4, att=3, seed=9)
        grid_data = np.random.default_rng(9).normal(size=(2, 2, 3))

        def loss():
            grid = FeatureGrid(features=Tensor(grid_data))
            state = dec.initial_state(grid)
            logits1, state = dec.step(grid, state, vb.START)
            logits2, state = dec.step(grid, state, 2)
            return sum_all(sum_all(logits1) + weighted(logits2, logits2))

        err = grad_check(loss, [dec.params["att.coverage_proj"]])
        assert err < 1e-4
        backward(loss())
        assert dec.params["att.coverage_proj"].grad is not None
        assert np.any(dec.params["att.coverage_proj"].grad != 0)


class TestFusedNodes:
    """Each fused node of a step, on its own and against the ops it replaces."""

    def test_attention_weights_gradients(self):
        rng = np.random.default_rng(30)
        gh, gw, hidden, att = 2, 3, 4, 3
        inputs = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in
                  ((gh * gw, att), (1, hidden), (hidden, att), (gh, gw), (1, att), (att, 1))]
        inputs[3].data = np.abs(inputs[3].data)  # coverage is a sum of maps
        alpha = _attention_weights(*inputs)
        assert alpha.shape == (gh, gw) and abs(alpha.data.sum() - 1.0) < 1e-12
        weights = np.random.default_rng(31).normal(size=alpha.shape)
        assert grad_check(lambda: weighted(_attention_weights(*inputs), weights), inputs) < 1e-6

    @pytest.mark.parametrize("x1_width, x2_width, rows, width, vocab_size", [
        (3, 2, (2, 3, 2), 8, 4),   # gate sum: context (C = 3), h (H = 2), 4H wide
        (3, 2, (4, 0, 4), 5, 5),   # read-out: h (H = 3), context (C = 2), V wide
    ], ids=["gate-sum", "read-out"])
    def test_row_plus_products_gradients_with_a_row_read_twice(self, x1_width, x2_width, rows,
                                                               width, vocab_size):
        rng = np.random.default_rng(32)
        x1, w1, table, x2, w2 = inputs = [
            Tensor(rng.normal(size=shape), requires_grad=True) for shape in
            ((1, x1_width), (x1_width, width), (vocab_size, width), (1, x2_width),
             (x2_width, width))]
        assert _row_plus_products(x1, w1, table, rows[0], x2, w2).shape == (width,)
        weights = [np.random.default_rng(33 + k).normal(size=width) for k in range(len(rows))]

        def loss():
            total = None
            for k, row in enumerate(rows):
                term = weighted(_row_plus_products(x1, w1, table, row, x2, w2), weights[k])
                total = term if total is None else total + term
            return total

        assert grad_check(loss, inputs) < 1e-6
        unread = [row for row in range(vocab_size) if row not in rows]
        assert np.all(table.grad[unread] == 0.0)
        assert np.all(table.grad[sorted(set(rows))] != 0.0)

    def test_gate_sum_backward_adds_one_weight_gradient_at_a_time(self):
        # Two gate sums share their weights, as consecutive steps share lstm.context_w
        # and lstm.hidden_w. When the second node's sweep runs, both weights hold a
        # gradient; adding one contribution at a time peaks at those two, the
        # contribution and its sum: four weight sizes. A vjp that gives all five
        # gradients at once also holds the other weight's contribution: five.
        rng = np.random.default_rng(39)
        n, width = 512, 256
        w1, w2 = (Tensor(rng.normal(size=(n, width)), requires_grad=True) for _ in range(2))
        table = Tensor(rng.normal(size=(4, width)), requires_grad=True)
        x = [Tensor(rng.normal(size=(1, n)), requires_grad=True) for _ in range(4)]
        loss = sum_all(_row_plus_products(x[0], w1, table, 1, x[1], w2)
                       + _row_plus_products(x[2], w1, table, 2, x[3], w2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / w1.data.nbytes <= 4.5

    def test_lstm_gradients(self):
        rng = np.random.default_rng(36)
        hidden = 3
        gates = Tensor(rng.normal(size=4 * hidden), requires_grad=True)  # flat, as a step's
        cell = Tensor(rng.normal(size=(1, hidden)), requires_grad=True)
        memory_weights, output_weights = (np.random.default_rng(seed).normal(size=(1, hidden))
                                          for seed in (37, 38))

        def loss():
            memory, output = _lstm(gates, cell)
            return weighted(memory, memory_weights) + weighted(output, output_weights)

        assert grad_check(loss, [gates, cell]) < 1e-6
        assert np.all(gates.grad != 0.0)

    @pytest.mark.parametrize("recording", [True, False], ids=["recording", "no_grad"])
    def test_five_steps_match_the_composed_ops(self, recording):
        hidden = 8
        dec = make_decoder(hidden=hidden, seed=40)
        features = np.random.default_rng(40).normal(size=(3, 2, 6))
        grid = FeatureGrid(features=Tensor(features, requires_grad=True))
        p = {name: t.data for name, t in dec.params.items()}
        flat = features.reshape(6, 6)
        keys = flat @ p["att.feature_proj"]
        token_gates = p["embed.table"] @ p["lstm.embed_w"] + p["lstm.bias"]
        h, cell, coverage = np.zeros((1, hidden)), np.zeros((1, hidden)), np.zeros((3, 2))

        def logistic(x):  # overflow-safe, as the gates' is
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        with contextlib.ExitStack() as stack:
            if not recording:
                stack.enter_context(no_grad())
            state = dec.initial_state(grid)
            for prev in (vb.START, 2, 2, 4, 3):
                # the step in numpy, in the order the fused nodes keep
                energy_in = (keys + h @ p["att.hidden_proj"]
                             + coverage.reshape(6, 1) * p["att.coverage_proj"])
                scores = np.tanh(energy_in) @ p["att.energy"]
                alpha_flat = np.exp(scores - scores.max())
                alpha_flat /= alpha_flat.sum()
                context = alpha_flat.reshape(1, 6) @ flat
                gates = context @ p["lstm.context_w"] + token_gates[prev] + h @ p["lstm.hidden_w"]
                in_gate, forget_gate, out_gate = np.split(logistic(gates[:, :3 * hidden]), 3, axis=1)
                cell = forget_gate * cell + in_gate * np.tanh(gates[:, 3 * hidden:])
                h = out_gate * np.tanh(cell)
                readout = (p["embed.table"][prev] + h @ p["out.hidden_proj"]
                           + context @ p["out.context_proj"])
                logits = readout @ p["out.vocab_proj"]
                alpha = alpha_flat.reshape(3, 2)
                coverage = coverage + alpha

                fused_alpha, fused_context = dec.attend(state)
                fused_logits, state = dec.step(grid, state, prev)
                for fused, composed in ((fused_alpha, alpha), (fused_context, context),
                                        (state.cell, cell), (state.h, h),
                                        (state.coverage, coverage)):
                    assert np.array_equal(fused.data, composed)
                assert np.max(np.abs(fused_logits.data - logits[0])) < 1e-13
                assert fused_logits.requires_grad is recording

    def test_a_teacher_forced_step_adds_at_most_ten_nodes(self):
        dec = make_decoder(seed=41)
        grid = FeatureGrid(features=Tensor(np.random.default_rng(41).normal(size=(3, 2, 6)),
                                           requires_grad=True))
        state = dec.initial_state(grid)
        prev, reachable = vb.START, []
        for token in (2, 3, 2, 4, vb.END):
            logits, state = dec.step(grid, state, prev)
            reachable.append(len(execution_order(logits)))
            prev = token
        assert all(b - a <= 10 for a, b in zip(reachable, reachable[1:]))


class TestGreedy:
    def test_end_first_model_gives_empty_sequence(self):
        dec = make_decoder(vocab_size=5)
        for p in dec.params.values():
            p.data[:] = 0.0
        # embedding of <S> is one-hot; read-out wires it straight to <E>
        dec.params["embed.table"].data[vb.START, 0] = 1.0
        dec.params["out.vocab_proj"].data[0, vb.END] = 1.0
        grid = make_grid(2, 2, 6, seed=10)
        result = dec.decode_greedy(grid)
        assert result.tokens == ()
        assert len(result.trace) == 1
        assert result.stop_reason == "end"
        assert not result.truncated

    def test_truncation_flagged_at_limit(self):
        dec = make_decoder(vocab_size=5, max_len=4)
        for p in dec.params.values():
            p.data[:] = 0.0
        dec.params["embed.table"].data[:, 0] = 1.0
        dec.params["out.vocab_proj"].data[0, 3] = 1.0  # always emits token 3
        grid = make_grid(2, 2, 6, seed=11)
        result = dec.decode_greedy(grid)
        assert result.stop_reason == "limit"
        assert result.truncated
        assert result.tokens == (3, 3, 3, 3)
        assert len(result.trace) == 4

    def test_truncated_is_read_only_and_follows_stop_reason(self):
        result = make_decoder(max_len=3).decode_greedy(make_grid(2, 2, 6, seed=18))
        with pytest.raises(AttributeError):
            result.truncated = not result.truncated
        for reason, truncated in (("end", False), ("limit", True), ("non-finite", False)):
            result.stop_reason = reason
            assert result.truncated is truncated

    def test_nan_weight_stops_decoding_as_non_finite(self):
        dec = make_decoder(vocab_size=5)
        dec.params["out.vocab_proj"].data[0, 2] = np.nan
        result = dec.decode_greedy(make_grid(2, 2, 6, seed=19))
        assert result.stop_reason == "non-finite"
        assert not result.truncated
        assert result.tokens == ()
        assert len(result.trace) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_stop_after_the_tokens_before_them(self, monkeypatch, bad):
        dec = make_decoder(vocab_size=5)
        script = iter([3, 4, None])  # two tokens, then a step with one non-finite logit
        original = AttentionDecoder.step

        def scripted(decoder, feature_grid, state, prev_token):
            _, new_state = original(decoder, feature_grid, state, prev_token)
            forced = np.zeros(decoder.vocab_size)
            token = next(script)
            if token is None:
                forced[vb.END] = 1.0
                forced[0] = bad
            else:
                forced[token] = 1.0
            return Tensor(forced), new_state

        monkeypatch.setattr(AttentionDecoder, "step", scripted)
        result = dec.decode_greedy(make_grid(2, 2, 6, seed=20))
        assert result.stop_reason == "non-finite"
        assert result.tokens == (3, 4)
        assert len(result.trace) == 3

    def test_argmax_tie_takes_lowest_index(self):
        dec = make_decoder(vocab_size=6)
        for p in dec.params.values():
            p.data[:] = 0.0
        dec.params["embed.table"].data[:, 0] = 1.0
        # tokens 3 and 4 tie above everything else; 3 must win
        dec.params["out.vocab_proj"].data[0, 3] = 2.0
        dec.params["out.vocab_proj"].data[0, 4] = 2.0
        grid = make_grid(2, 2, 6, seed=12)
        logits, _ = dec.step(grid, dec.initial_state(grid), vb.START)
        assert logits.data[3] == logits.data[4]
        result = dec.decode_greedy(grid)
        assert result.tokens[0] == 3

    def test_trace_has_one_map_per_step_including_start_and_stop(self, monkeypatch):
        dec = make_decoder(vocab_size=5)
        grid = make_grid(2, 2, 6, seed=14)
        script = iter([vb.START, 3, vb.END])  # an anomalous start marker, a token, the end
        alphas = []
        original = AttentionDecoder.step

        def scripted(decoder, feature_grid, state, prev_token):
            logits, new_state = original(decoder, feature_grid, state, prev_token)
            alphas.append(new_state.attention_trace[-1].data)
            forced = np.zeros(decoder.vocab_size)
            forced[next(script)] = 1.0
            return Tensor(forced), new_state

        monkeypatch.setattr(AttentionDecoder, "step", scripted)
        result = dec.decode_greedy(grid)
        assert result.tokens == (3,)
        assert result.stop_reason == "end"
        assert len(result.trace) == 3
        assert all(np.array_equal(x, y) for x, y in zip(result.trace, alphas))

    def test_deterministic(self):
        dec = make_decoder(seed=13)
        grid = make_grid(3, 3, 6, seed=13)
        a = dec.decode_greedy(grid)
        b = dec.decode_greedy(grid)
        assert a.tokens == b.tokens
        assert all(np.array_equal(x, y) for x, y in zip(a.trace, b.trace))
