import math
import threading

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
    conv2d,
    embedding_lookup,
    grad_check,
    logsumexp,
    matmul,
    narrow,
    no_grad,
    pick,
    pool2d,
    pool2d as _pool,
    reshape,
    sigmoid,
    softmax_flat,
    sum_all,
    tanh,
    zero_grads,
)


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


def conv_oracle(x, kernel, stride, padding):
    """Direct-summation cross-correlation."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    padded = np.zeros((h + 2 * padding, w + 2 * padding, cin))
    padded[padding:padding + h, padding:padding + w] = x
    ho = (padded.shape[0] - kh) // stride + 1
    wo = (padded.shape[1] - kw) // stride + 1
    out = np.zeros((ho, wo, cout))
    for u in range(ho):
        for v in range(wo):
            for o in range(cout):
                acc = 0.0
                for i in range(kh):
                    for j in range(kw):
                        for c in range(cin):
                            acc += padded[u * stride + i, v * stride + j, c] * kernel[i, j, c, o]
                out[u, v, o] = acc
    return out


# (input shape, kernel shape, stride, padding). Stride-1 multi-channel cases run
# the shifted-product path; strided or single-channel ones run im2col.
CONV_CASES = [
    ((5, 5, 2), (3, 3, 2, 1), 1, 0),   # output narrower than the padded input
    ((5, 4, 2), (3, 3, 2, 2), 1, 1),
    ((4, 5, 3), (1, 1, 3, 4), 1, 0),   # 1x1 on a view of the input
    ((3, 4, 2), (1, 1, 2, 3), 1, 1),   # 1x1 with padding
    ((6, 4, 2), (3, 1, 2, 3), 1, 0),   # kw == 1, unpadded: view with row offsets
    ((4, 6, 3), (1, 3, 3, 2), 1, 1),
    ((5, 6, 2), (2, 3, 2, 2), 1, 0),
    ((5, 4, 1), (3, 3, 1, 2), 1, 1),   # single channel: im2col
    ((5, 5, 2), (3, 3, 2, 1), 2, 1),   # strided: im2col
    ((6, 5, 3), (1, 1, 3, 2), 2, 0),
]


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


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 5, 3))
        kernel = np.eye(3).reshape(1, 1, 3, 3)
        out = conv2d(Tensor(x), Tensor(kernel), stride=1, padding=0)
        assert np.allclose(out.data, x, atol=0, rtol=0)

    def test_padded_3x3_preserves_shape(self):
        out = conv2d(Tensor(np.zeros((6, 9, 2))), Tensor(np.zeros((3, 3, 2, 5))),
                     stride=1, padding=1)
        assert out.shape == (6, 9, 5)

    def test_against_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        for x_shape, k_shape, stride, padding in CONV_CASES:
            x = rng.normal(size=x_shape)
            k = rng.normal(size=k_shape)
            out = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
            expected = conv_oracle(x, k, stride, padding)
            assert out.shape == expected.shape
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError, match="larger than padded input"):
            conv2d(Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((5, 5, 1, 1))),
                   stride=1, padding=1)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for x_shape, k_shape, stride, padding in CONV_CASES:
            x = Tensor(rng.normal(size=x_shape), requires_grad=True)
            k = Tensor(rng.normal(size=k_shape), requires_grad=True)

            def loss():
                return sum_all(tanh(conv2d(x, k, stride=stride, padding=padding)))

            backward(loss())
            for p in (x, k):
                numeric = fd_gradient(loss, p)
                rel = np.abs(p.grad - numeric) / np.maximum(np.abs(numeric), 1.0)
                assert rel.max() < 1e-5
            assert grad_check(loss, [x, k]) < 1e-6


class TestPool2d:
    def test_constant_input(self):
        x = Tensor(np.full((4, 4, 2), 3.25))
        for kind in ("max", "average"):
            out = pool2d(x, kind, window=2, stride=2)
            assert out.shape == (2, 2, 2)
            assert np.all(out.data == 3.25)

    def test_average_of_2x2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        out = pool2d(x, "average", window=2, stride=2)
        assert out.data.reshape(()) == 2.5

    def test_max_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 4, 1)), requires_grad=True)

        def loss():
            return sum_all(pool2d(x, "max", window=2, stride=2))

        backward(loss())
        numeric = fd_gradient(loss, x)
        rel = np.abs(x.grad - numeric) / np.maximum(np.abs(numeric), 1.0)
        assert rel.max() < 1e-5

    def test_max_tie_routes_to_first_in_scan_order(self):
        x = Tensor(np.full((2, 2, 1), 7.0), requires_grad=True)
        backward(sum_all(pool2d(x, "max", window=2, stride=2)))
        assert np.array_equal(x.grad[:, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_window_exceeds_input(self):
        with pytest.raises(DimensionError, match="window"):
            pool2d(Tensor(np.zeros((2, 2, 1))), "max", window=3, stride=1)

    def test_average_gradient_overlapping_stride(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5, 5, 2)), requires_grad=True)

        def loss():
            return sum_all(mul_square(pool2d(x, "average", window=3, stride=1)))

        backward(loss())
        numeric = fd_gradient(loss, x)
        rel = np.abs(x.grad - numeric) / np.maximum(np.abs(numeric), 1.0)
        assert rel.max() < 1e-5


def mul_square(t):
    return ad.mul(t, t)


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
        row = embedding_lookup(table, 2)
        assert row.shape == (1, 3)
        assert np.array_equal(row.data[0], [6.0, 7.0, 8.0])
        backward(sum_all(row * np.array([1.0, 2.0, 3.0])))
        expected = np.zeros((4, 3))
        expected[2] = [1.0, 2.0, 3.0]
        assert np.array_equal(table.grad, expected)

    def test_concat_channels_mismatch(self):
        with pytest.raises(DimensionError, match="spatial"):
            concat_channels([Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((3, 2, 1)))])

    def test_concat_and_narrow_gradients(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        joined = ad.concat([a, b], axis=1)
        part = narrow(joined, 1, 1, 3)
        backward(sum_all(part))
        assert np.array_equal(a.grad, [[0.0, 1.0]])
        assert np.array_equal(b.grad, [[1.0, 1.0, 0.0]])

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
        shared = b * c  # reached from both sides of the diamond below
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
            for parent in node._parents:
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

    def test_backward_requires_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError, match="scalar"):
            backward(tanh(x))

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = tanh(x)
        assert not y.requires_grad
        assert y._parents == ()

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
        backward(sum_all(w * 3.0))
        captured = w.grad
        backward(sum_all(ad.concat([w, w], axis=0) * 5.0))
        assert np.array_equal(captured, [3.0, 3.0])
        assert np.array_equal(w.grad, [13.0, 13.0])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 4))

        def run():
            t = Tensor(x, requires_grad=True)
            out = sum_all(softmax_flat(pool2d(conv2d(t, Tensor(k), 1, 1), "max", 2, 2)))
            backward(out)
            return out.item(), t.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def loss():
            return sum_all(ad.mul(x, x))

        err = grad_check(loss, [x])
        zero_grads([x])
        backward(loss())
        assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)
        assert err < 1e-8

    def test_constant_loss_zero_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

        def loss():
            return sum_all(x * 0.0)

        err = grad_check(loss, [x])
        assert err == 0.0
        zero_grads([x])
        backward(loss())
        assert np.array_equal(x.grad, np.zeros(3))

    def test_nonfinite_loss_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)

        def loss():
            return sum_all(ad.div(x, 0.0))

        with np.errstate(divide="ignore"), pytest.raises(NumericError):
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
