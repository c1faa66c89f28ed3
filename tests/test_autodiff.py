import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzureader import autodiff as ad
from kuzureader.autodiff import (
    DimensionError,
    NumericError,
    Tensor,
    backward,
    concat_channels,
    grad_check,
    logsumexp,
    matmul,
    narrow,
    no_grad,
    pick,
    reshape,
    sigmoid,
    softmax_flat,
    sum_all,
    tanh,
    zero_grads,
)
from kuzureader.encoder import BAND_ROWS, dense_block, transition

from helpers import weighted


def matmul_oracle(a, b):
    """Triple-loop matrix product, independent of the library path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def fd_gradient(loss_fn, param, epsilon=1e-6):
    """Central finite differences of a scalar loss w.r.t. one tensor."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        with no_grad():
            flat[i] = orig + epsilon
            fp = loss_fn().item()
            flat[i] = orig - epsilon
            fm = loss_fn().item()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * epsilon)
    return grad


class TestTensor:
    @pytest.mark.parametrize("data", [np.array(["0.5", "2"]), np.array([1 + 2j]),
                                      np.array([0.5], dtype=object), ["0.5"]],
                             ids=["string", "complex", "object", "string-list"])
    def test_data_that_is_not_real_is_a_numeric_error_naming_its_dtype(self, data):
        with pytest.raises(NumericError, match=f"dtype {np.asarray(data).dtype}"):
            Tensor(data)

    @pytest.mark.parametrize("data", [np.array([True, False]), np.array([3], dtype=np.uint8),
                                      np.array([-2], dtype=np.int64),
                                      np.array([[0.5], [2.0]], dtype=np.float32)[::2], [1, 2.5]],
                             ids=["bool", "uint8", "int64", "strided-float32", "list"])
    def test_real_data_becomes_contiguous_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64 and t.data.flags.c_contiguous
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_a_scalar_is_zero_dimensional_and_backward_runs_from_it(self):
        # numpy gives a scalar, not an array, for an op on 0-d arrays: the
        # leaves' gradients are still read-only arrays of their shapes
        x = Tensor(2.0, requires_grad=True)
        v = Tensor(np.array([0.5, -1.0, 3.0]), requires_grad=True)
        scalars = [x, sum_all(v), logsumexp(v), pick(v, 2)]
        assert [s.shape for s in scalars] == [()] * 4
        loss = weighted(x, x) + logsumexp(v) - pick(v, 2) + sum_all(v)
        assert loss.shape == ()
        backward(loss)
        e = np.exp(v.data) / np.exp(v.data).sum()
        assert x.grad.shape == () and x.grad == 4.0
        assert np.allclose(v.grad, e - [0.0, 0.0, 1.0] + 1.0, rtol=0, atol=1e-15)
        for grad in (x.grad, v.grad):
            assert isinstance(grad, np.ndarray) and not grad.flags.writeable


class TestMatmul:
    def test_identity(self):
        b = Tensor(np.arange(9.0).reshape(3, 3))
        out = matmul(Tensor(np.eye(3)), b)
        assert np.array_equal(out.data, b.data)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - matmul_oracle(a, b))) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)))

        def loss():
            return sum_all(matmul(a, b))

        l = loss()
        backward(l)
        numeric = fd_gradient(loss, a)
        rel = np.abs(a.grad - numeric) / np.maximum(np.abs(numeric), 1.0)
        assert rel.max() < 1e-5

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestElementwise:
    def test_softmax_uniform(self):
        out = softmax_flat(Tensor(np.full(7, 1.3)))
        assert np.allclose(out.data, 1 / 7, atol=1e-15)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_softmax_normalized_nonnegative(self, values):
        out = softmax_flat(Tensor(np.array(values)))
        assert np.all(out.data >= 0)
        assert abs(out.data.sum() - 1.0) <= 1e-9

    def test_softmax_handles_large_magnitudes(self):
        out = softmax_flat(Tensor(np.array([1000.0, 1000.0, -1000.0])))
        assert np.isfinite(out.data).all()
        assert abs(out.data.sum() - 1.0) <= 1e-9

    def test_tanh_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=6), requires_grad=True)

        def loss():
            return sum_all(tanh(x))

        backward(loss())
        numeric = fd_gradient(loss, x)
        assert np.max(np.abs(x.grad - numeric) / np.maximum(np.abs(numeric), 1.0)) < 1e-6

    def test_sigmoid_gradient_and_stability(self):
        x = Tensor(np.array([-800.0, -2.0, 0.0, 2.0, 800.0]), requires_grad=True)
        out = sigmoid(x)
        assert np.isfinite(out.data).all()

        y = sigmoid(x)
        backward(sum_all(y))
        expected = y.data * (1 - y.data)
        assert np.allclose(x.grad, expected)

    def test_sigmoid_extremes_raise_no_floating_point_error(self):
        def oracle(v):
            if v >= 0:
                return 1.0 / (1.0 + math.exp(-v))
            return math.exp(v) / (1.0 + math.exp(v))

        finite = [1000.0, -1000.0, 745.0, -745.0, 1e-300, -1e-300, 0.0, -0.0]
        x = np.array([np.inf, -np.inf, *finite, np.nan])
        with np.errstate(all="raise"):
            y = sigmoid(Tensor(x)).data
        assert y[0] == 1.0 and y[1] == 0.0
        assert [float(v) for v in y[2:-1]] == [oracle(v) for v in finite]
        assert y[5] > 0.0  # sigmoid(-745) is the smallest subnormal, not 0
        assert np.isnan(y[-1])

    def test_logsumexp_and_pick_cross_entropy(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.normal(size=9), requires_grad=True)
        target = 4

        def loss():
            return logsumexp(logits) - pick(logits, target)

        l = loss()
        # independent -log softmax computation
        p = np.exp(logits.data - logits.data.max())
        p /= p.sum()
        assert abs(l.item() - (-np.log(p[target]))) < 1e-12
        backward(l)
        onehot = np.zeros(9)
        onehot[target] = 1.0
        assert np.allclose(logits.grad, p - onehot, atol=1e-12)

    def test_embedding_lookup_gradient(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        row = narrow(table, 0, 2, 1)
        assert row.shape == (1, 3)
        assert np.array_equal(row.data[0], [6.0, 7.0, 8.0])
        backward(weighted(row, np.array([1.0, 2.0, 3.0])))
        expected = np.zeros((4, 3))
        expected[2] = [1.0, 2.0, 3.0]
        assert np.array_equal(table.grad, expected)

    def test_concat_channels_mismatch(self):
        with pytest.raises(DimensionError, match="spatial"):
            concat_channels([Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((3, 2, 1)))])

    def test_concat_and_narrow_gradients(self):
        a = Tensor(np.ones((1, 1, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 1, 3)), requires_grad=True)
        joined = concat_channels([a, b])
        part = narrow(joined, 2, 1, 3)
        backward(sum_all(part))
        assert np.array_equal(a.grad, [[[0.0, 1.0]]])
        assert np.array_equal(b.grad, [[[1.0, 1.0, 0.0]]])

    def test_broadcast_add_gradient(self):
        a = Tensor(np.zeros((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        backward(sum_all(a + bias))
        assert np.array_equal(bias.grad, [4.0, 4.0, 4.0])
        assert np.array_equal(a.grad, np.ones((4, 3)))


class TestGraph:
    def test_execution_order_is_topological(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = tanh(a)
        c = sigmoid(b)
        shared = b + c  # reached from both sides of the diamond below
        left = tanh(shared)
        mixed = shared + b
        right = sigmoid(mixed)
        total = left + right
        d = sum_all(total)
        order = ad.execution_order(d)
        nodes = (a, b, c, shared, left, mixed, right, total, d)
        assert len(order) == len(nodes)
        assert {id(t) for t in order} == {id(t) for t in nodes}
        positions = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node._inputs:
                assert positions[id(parent)] < positions[id(node)]

    def test_reused_tensor_accumulates_once_per_consumer(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        backward(sum_all(x + x))
        assert np.array_equal(x.grad, [2.0])

    def test_backward_twice_is_an_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        out = sum_all(x)
        backward(out)
        with pytest.raises(RuntimeError, match="already ran"):
            backward(out)

    def test_second_root_through_a_freed_node_raises_and_keeps_leaf_grads(self):
        x = Tensor(np.array([-0.5, 0.25, 1.5]), requires_grad=True)
        y = tanh(x)
        backward(sum_all(y))
        first = 1.0 - np.tanh(x.data) ** 2
        assert np.array_equal(x.grad, first)
        assert y.grad is None  # an interior gradient goes with the swept graph
        with pytest.raises(RuntimeError, match="already ran"):
            backward(sum_all(y))
        assert np.array_equal(x.grad, first)

    def test_backward_holds_few_gradients_at_once(self):
        x = Tensor(np.linspace(-1.0, 1.0, 100_000), requires_grad=True)
        y = x
        for _ in range(20):
            y = tanh(y)
        loss = sum_all(y)
        del y
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / x.data.nbytes <= 4

    def test_backward_requires_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError, match="scalar"):
            backward(tanh(x))

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = tanh(x)
        assert not y.requires_grad
        assert y._inputs == ()

    def test_no_grad_in_one_thread_does_not_stop_another_from_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        inside, recorded = threading.Event(), threading.Event()
        held = []

        def hold_no_grad():
            with no_grad():
                inside.set()
                recorded.wait(timeout=10)
                held.append(tanh(x))

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert inside.wait(timeout=10)
            y = tanh(x)
        finally:
            recorded.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert y.requires_grad
        assert not held[0].requires_grad

    def test_captured_grad_survives_a_second_accumulating_backward(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(weighted(w, np.full(2, 3.0)))
        captured = w.grad
        backward(weighted(w, np.full(2, 5.0)) + weighted(w, np.full(2, 5.0)))
        assert np.array_equal(captured, [3.0, 3.0])
        assert np.array_equal(w.grad, [13.0, 13.0])

    def test_shared_grad_is_read_only(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        backward(sum_all(x + y))
        assert x.grad is y.grad
        with pytest.raises(ValueError, match="read-only"):
            x.grad += 1
        assert np.array_equal(y.grad, [1.0, 1.0])
        backward(weighted(x, np.full(2, 2.0)))  # a second gradient is added out of place
        assert np.array_equal(x.grad, [3.0, 3.0])
        with pytest.raises(ValueError, match="read-only"):
            x.grad[0] = 0.0

    @pytest.mark.parametrize("live", [0, 1], ids=["first-live", "second-live"])
    @pytest.mark.parametrize("op, shapes", [
        (ad.add, [(2, 3), (3,)]),
        (matmul, [(2, 3), (3, 4)]),
        (lambda a, b: concat_channels([a, b]), [(1, 2, 3), (1, 2, 2)]),
        (lambda a, b: a - b, [(2, 3), (3,)]),
    ], ids=["add", "matmul", "concat", "sub"])
    def test_only_the_live_operand_is_linked_and_differentiated(self, op, shapes, live):
        rng = np.random.default_rng(12)
        operands = [Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=i == live)
                    for i, shape in enumerate(shapes)]
        out = op(*operands)
        weights = rng.normal(size=out.shape)

        def loss():
            return weighted(op(*operands), weights)

        assert [id(t) for t in ad.execution_order(out)] == [id(operands[live]), id(out)]
        assert grad_check(loss, [operands[live]]) < 1e-6
        assert operands[1 - live].grad is None

    # 2 * BAND_ROWS + 1 rows: the block's forward and sweep run three bands
    @pytest.mark.parametrize("rows", [6, 2 * BAND_ROWS + 1], ids=["one-band", "three-bands"])
    def test_determinism_bit_identical(self, rows):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, rows, 6))
        layer = [Tensor(rng.normal(size=shape), requires_grad=True)
                 for shape in [(1, 1, 2, 4), (4,), (3, 3, 4, 3), (3,)]]
        kernel = Tensor(rng.normal(size=(1, 1, 5, 3)), requires_grad=True)

        def run():
            t = Tensor(x, requires_grad=True)
            zero_grads([*layer, kernel])
            buf = np.empty((5, rows, 6))
            buf[:2] = x
            grown = dense_block(t, [layer], buf)
            out = sum_all(softmax_flat(transition(grown, kernel, Tensor(np.zeros(3)))))
            backward(out)
            return out.item(), [p.grad.copy() for p in (t, *layer, kernel)]

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2, strict=True))


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def loss():
            return weighted(x, x)

        err = grad_check(loss, [x])
        zero_grads([x])
        backward(loss())
        assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)
        assert err < 1e-8

    def test_constant_loss_zero_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

        def loss():
            return weighted(x, np.zeros(3))

        err = grad_check(loss, [x])
        assert err == 0.0
        zero_grads([x])
        backward(loss())
        assert np.array_equal(x.grad, np.zeros(3))

    def test_nonfinite_loss_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)

        def loss():
            return weighted(x, np.array([np.inf]))

        with pytest.raises(NumericError):
            grad_check(loss, [x])

    def test_mixed_ops_within_tolerance(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        x = rng.normal(size=(2, 3))

        def loss():
            hidden = tanh(matmul(Tensor(x), w) + b)
            return logsumexp(hidden) - pick(reshape(hidden, (8,)), 3)

        assert grad_check(loss, [w, b]) < 1e-4
