import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from kuzureader.autodiff import (
    DimensionError,
    NumericError,
    Tensor,
    _record,
    backward,
    concat,
    execution_order,
    grad_check,
    matmul,
    narrow,
    no_grad,
    reshape,
    sum_all,
    zero_grads,
)
from kuzureader import encoder
from kuzureader.encoder import (BLOCKS, DenseEncoder, EncoderConfig, FeatureGrid, conv2d,
                                dense_block, pool2d, stem, transition)


def channel_oracle(initial, growth, depth, blocks, compression):
    """Independent recursion: block adds depth*growth, transition compresses."""
    channels = initial
    for b in range(blocks):
        channels = channels + depth * growth
        if b < blocks - 1:
            channels = int(np.floor(channels * compression))
    return channels


def transposed(t, axes):
    """``t`` with its axes permuted, as a graph node."""
    return _record(np.transpose(t.data, axes), (t,), lambda g: (np.transpose(g, np.argsort(axes)),))


def bias_relu(x, bias):
    """``relu(x + bias)`` of a C x H x W map with C biases, as one node."""
    y = np.maximum(x.data + bias.data[:, None, None], 0.0)

    def vjp(g):
        masked = g * (y > 0.0)
        return masked, masked.sum(axis=1).sum(axis=1)

    return _record(y, (x, bias), vjp)


def sliding_pool2d(x, kind, window=2, stride=2):
    """Sliding-window max or average pooling of a C x H x W map, any window and stride: the oracle."""
    c, h, w = x.data.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    windows = sliding_window_view(x.data, (window, window), axis=(1, 2))[:, ::stride, ::stride]
    patches = windows.reshape(c, ho, wo, window * window)
    if kind == "max":
        flat_arg = patches.argmax(axis=3)
        data = np.take_along_axis(patches, flat_arg[..., None], axis=3)[..., 0]

        def vjp(g):
            cs = np.arange(c)[:, None, None]
            ys = (np.arange(ho) * stride)[None, :, None] + flat_arg // window
            xs = (np.arange(wo) * stride)[None, None, :] + flat_arg % window
            dx = np.zeros_like(x.data)
            np.add.at(dx, (np.broadcast_to(cs, flat_arg.shape), ys, xs), g)
            return (dx,)
    else:
        data = patches.mean(axis=3)

        def vjp(g):
            dx = np.zeros_like(x.data)
            share = g / (window * window)
            for i in range(window):
                for j in range(window):
                    dx[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += share
            return (dx,)
    return _record(np.ascontiguousarray(data), (x,), vjp)


def conv1x1(x, kernel):
    """A 1x1 convolution of a C x H x W map as one product over the grid's cells.

    The product is taken as (H*W) x Cin by Cin x Cout and transposed back.
    On a 1 x 1 grid BLAS takes a matrix-vector path, and this orientation is
    the one whose sums match ``dense_block``'s ``kernel.T @ prefix`` there.
    """
    cin, h, w = x.shape
    cout = kernel.shape[3]
    cells = transposed(reshape(x, (cin, h * w)), (1, 0))
    return reshape(transposed(matmul(cells, reshape(kernel, (cin, cout))), (1, 0)), (cout, h, w))


def conv3x3_by_rows(x, kernel):
    """A padded 3x3 convolution of a C x H x W map as three kernel-row products.

    The input is flattened with constant tensors to rows of (h+2)*w + 2
    values: a zero, a zero row, the map row by row, a zero row and a zero.
    Kernel row i's three taps are stacked into one 3G x C matrix and
    multiplied by the flattened rows from column i*w; tap (i, j) is that
    product's j-th G rows shifted by j columns, as an h x w map. At the side
    edges tap j = 0 reads column v = 0 from the row above and tap j = 2
    reads v = w - 1 from the row below, so those columns are multiplied by
    zero. The taps are added in row-major order, so each output sums the
    same products in the same order as ``dense_block``'s row products.
    """
    c, h, w = x.shape
    g = kernel.shape[3]
    n = h * w
    edge = Tensor(np.zeros((c, w + 1)))
    flat = concat([edge, reshape(x, (c, n)), edge], axis=1)
    sides = np.ones((3, h, w))
    sides[0, :, 0] = sides[2, :, w - 1] = 0.0
    out = None
    for i in range(3):
        stacked = reshape(transposed(narrow(kernel, 0, i, 1), (0, 1, 3, 2)), (3 * g, c))
        product = matmul(stacked, narrow(flat, 1, i * w, n + 2))
        for j in range(3):
            tap = reshape(narrow(narrow(product, 0, j * g, g), 1, j, n), (g, h, w)) * sides[j]
            out = tap if out is None else out + tap
    return out


def composed_block(x, layers):
    """The dense block as the per-layer composition of public ops: the oracle."""
    for reduce_kernel, reduce_bias, conv_kernel, conv_bias in layers:
        reduced = bias_relu(conv1x1(x, reduce_kernel), reduce_bias)
        grown = bias_relu(conv3x3_by_rows(reduced, conv_kernel), conv_bias)
        x = concat([x, grown], axis=0)
    return x


def block_buffer(x, layers):
    """The buffer ``dense_block`` fills: ``x``'s channels, then room for every layer's."""
    c, h, w = x.shape
    buf = np.empty((c + sum(cb.shape[0] for *_, cb in layers), h, w))
    buf[:c] = x.data
    return buf


def run_block(x, layers):
    """``dense_block`` over a fresh buffer."""
    return dense_block(x, layers, block_buffer(x, layers))


def block_layers(initial, growth, depth, seed, bottleneck=None):
    """Random (reduce kernel, reduce bias, conv kernel, conv bias) per layer."""
    rng = np.random.default_rng(seed)
    bottleneck = bottleneck or 4 * growth
    layers = []
    for layer in range(depth):
        cin = initial + layer * growth
        layers.append((
            Tensor(rng.normal(scale=cin ** -0.5, size=(1, 1, cin, bottleneck)), requires_grad=True),
            Tensor(rng.normal(scale=0.1, size=bottleneck), requires_grad=True),
            Tensor(rng.normal(scale=(9 * bottleneck) ** -0.5, size=(3, 3, bottleneck, growth)),
                   requires_grad=True),
            Tensor(rng.normal(scale=0.1, size=growth), requires_grad=True),
        ))
    return layers


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


# (image shape, kernel shape, stride, padding) on one grayscale channel
STEM_CASES = [
    ((5, 4, 1), (3, 3, 1, 2), 1, 1),   # the default stem
    ((7, 6, 1), (3, 3, 1, 3), 2, 1),   # strided
    ((12, 10, 1), (7, 7, 1, 4), 2, 3),  # DenseWAP's stem
]


def recorded_conv(page, kernel, stride, padding):
    """``conv2d`` of a constant H x W x 1 page as a graph node over its kernel.

    Its vjp is the kernel gradient ``stem`` takes: one product of the page's
    tap stack with the output gradient.
    """
    kh, kw, _, cout = kernel.shape
    windows = sliding_window_view(np.pad(page[:, :, 0], padding), (kh, kw))[::stride, ::stride]
    taps = windows.transpose(2, 3, 0, 1).reshape(kh * kw, -1)
    out = conv2d(page, kernel.data, stride=stride, padding=padding)
    return _record(out, (kernel,), lambda g: ((taps @ g.reshape(cout, -1).T).reshape(kernel.shape),))


def composed_stem(page, kernel, bias):
    """The stem as convolution, then bias and ReLU, then the sliding max: the oracle."""
    x = recorded_conv(page, kernel, encoder.STEM_STRIDE, encoder.STEM_KERNEL // 2)
    return sliding_pool2d(bias_relu(x, bias), "max")


def stem_output(page, kernel):
    """An empty array of ``stem``'s output shape: the convolution's extents halved, rounded down."""
    k, stride = encoder.STEM_KERNEL, encoder.STEM_STRIDE
    h, w = (((extent + 2 * (k // 2) - k) // stride + 1) // 2 for extent in page.shape[:2])
    return np.empty((kernel.shape[3], h, w))


def run_stem(page, kernel, bias):
    """``stem`` into a fresh output array."""
    return stem(page, kernel, bias, stem_output(page, kernel))


def biased_max_stem(page, kernel, bias):
    """``relu(maxpool(conv) + b)`` in numpy from ``conv2d``'s full convolution map."""
    conv = conv2d(page, kernel, stride=encoder.STEM_STRIDE, padding=encoder.STEM_KERNEL // 2)
    c, h, w = conv.shape
    windows = conv[:, :h // 2 * 2, :w // 2 * 2].reshape(c, h // 2, 2, w // 2, 2)
    return np.maximum(windows.max(axis=(2, 4)) + bias[:, None, None], 0.0)


def composed_transition(x, kernel, bias):
    """The transition as the composition of 1x1 convolution, bias and ReLU, and pooling."""
    return sliding_pool2d(bias_relu(conv1x1(x, kernel), bias), "average")


def old_order_encode(enc, image):
    """``encode`` with the stem rectified before it is pooled and composed transitions: the oracle."""
    x = composed_stem(image, enc.params["stem.kernel"], enc.params["stem.bias"])
    for block in range(BLOCKS):
        x = run_block(x, enc._block_layers(block))
        if block < BLOCKS - 1:
            x = composed_transition(x, enc.params[f"trans{block}.kernel"],
                                    enc.params[f"trans{block}.bias"])
    return FeatureGrid(features=transposed(x, (1, 2, 0)))


def pool_hwc(x, reduce):
    """2x2 pooling at stride 2 of an H x W x C array, by ``reduce`` over each window."""
    ho, wo = x.shape[0] // 2, x.shape[1] // 2
    return reduce(x[:2 * ho, :2 * wo].reshape(ho, 2, wo, 2, -1), axis=(1, 3))


def numpy_encode(enc, image):
    """``encode`` in numpy alone, H x W x C throughout: the layout-independent oracle.

    The stem and every 3x3 convolution are ``conv_oracle``'s direct sums,
    each 1x1 convolution sums the products of every input channel with its
    kernel row one channel at a time, and each layer's output is appended
    with ``np.concatenate``.
    """
    c, p = enc.config, {name: t.data for name, t in enc.params.items()}

    def conv1x1(x, kernel):
        return sum(x[:, :, i:i + 1] * kernel[0, 0, i] for i in range(x.shape[2]))

    x = conv_oracle(image, p["stem.kernel"], encoder.STEM_STRIDE, encoder.STEM_KERNEL // 2)
    x = pool_hwc(np.maximum(x + p["stem.bias"], 0.0), np.max)
    for block in range(BLOCKS):
        for layer in range(c.block_depth):
            name = f"block{block}.layer{layer}"
            reduced = np.maximum(conv1x1(x, p[f"{name}.reduce.kernel"]) + p[f"{name}.reduce.bias"], 0.0)
            grown = conv_oracle(reduced, p[f"{name}.conv.kernel"], 1, 1) + p[f"{name}.conv.bias"]
            x = np.concatenate([x, np.maximum(grown, 0.0)], axis=2)
        if block < BLOCKS - 1:
            x = np.maximum(conv1x1(x, p[f"trans{block}.kernel"]) + p[f"trans{block}.bias"], 0.0)
            x = pool_hwc(x, np.mean)
    return x


def max_normalised(a, b):
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-300)


class TestConfig:
    @pytest.mark.parametrize("growth,depth,expected", [
        (16, 16, 460),
        (24, 16, 684),
        (16, 8, 236),
        (24, 8, 348),
    ])
    def test_output_channels_match_oracle(self, growth, depth, expected):
        config = EncoderConfig(growth_rate=growth, block_depth=depth)
        assert channel_oracle(48, growth, depth, 3, 0.5) == expected
        assert config.output_channels == expected

    def test_channel_plan_chain(self):
        config = EncoderConfig(growth_rate=16, block_depth=16)
        assert config.channel_plan() == [48, 304, 152, 408, 204, 460]

    def test_default_downsample_factor(self):
        assert EncoderConfig(growth_rate=8, block_depth=4).downsample_factor == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(DimensionError, match="growth_rate must be >= 1"):
            EncoderConfig(growth_rate=0, block_depth=4)
        with pytest.raises(DimensionError, match="block_depth must be >= 0"):
            EncoderConfig(growth_rate=8, block_depth=-1)
        with pytest.raises(DimensionError, match="initial_channels must be >= 1"):
            EncoderConfig(growth_rate=8, block_depth=4, initial_channels=0)
        with pytest.raises(DimensionError, match="growth_rate must be an integer"):
            EncoderConfig(growth_rate=8.0, block_depth=4)
        with pytest.raises(DimensionError, match="initial_channels must be an integer"):
            EncoderConfig(growth_rate=8, block_depth=4, initial_channels=True)

    @pytest.mark.parametrize("value", [2.5, "3"], ids=["float", "string"])
    def test_non_integer_size_raises_dimension_error(self, value):
        with pytest.raises(DimensionError, match="block_depth must be an integer"):
            EncoderConfig(growth_rate=8, block_depth=value)

    def test_numpy_integer_sizes_pass(self):
        config = EncoderConfig(growth_rate=np.int64(8), block_depth=np.int32(4))
        assert config.channel_plan() == EncoderConfig(8, 4).channel_plan()


@pytest.fixture(params=[(3, 1), (7, 2)], ids=["3x3-stride1", "7x7-stride2"])
def stem_extent(request, monkeypatch):
    """The module's stem kernel extent and stride: the default, then DenseWAP's."""
    kernel, stride = request.param
    monkeypatch.setattr(encoder, "STEM_KERNEL", kernel)
    monkeypatch.setattr(encoder, "STEM_STRIDE", stride)
    return kernel, stride


class TestStem:
    """``stem``: four corner products of ``conv2d`` folded by ``pool2d``, bias and ReLU, one node."""

    def test_one_by_one_identity(self):
        x = np.random.default_rng(2).normal(size=(4, 5, 1))
        out = conv2d(x, np.ones((1, 1, 1, 1)), stride=1, padding=0)
        assert np.array_equal(out, x.transpose(2, 0, 1))

    def test_padded_3x3_preserves_shape(self):
        out = conv2d(np.zeros((6, 9, 1)), np.zeros((3, 3, 1, 5)), stride=1, padding=1)
        assert out.shape == (5, 6, 9)

    def test_against_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        for x_shape, k_shape, stride, padding in STEM_CASES:
            x = rng.normal(size=x_shape)
            k = rng.normal(size=k_shape)
            out = conv2d(x, k, stride=stride, padding=padding)
            expected = conv_oracle(x, k, stride, padding).transpose(2, 0, 1)
            assert out.shape == expected.shape
            assert np.max(np.abs(out - expected)) < 1e-12

    # odd convolution extents (5 x 7), so a trailing row and column are
    # dropped; with ties, a half-integer page and an integer kernel give
    # equal window corners, and every product and sum is exact
    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties"])
    def test_stem_node_is_relu_of_the_biased_max_bitwise(self, stem_extent, ties):
        extent, stride = stem_extent
        rng = np.random.default_rng(14)
        size = (5 * stride, 7 * stride, 1)
        page = rng.integers(0, 3, size=size) / 2 if ties else rng.uniform(size=size)
        k_shape = (extent, extent, 1, 4)
        kernel = Tensor(rng.integers(-1, 2, size=k_shape).astype(float) if ties
                        else rng.normal(size=k_shape), requires_grad=True)
        bias = Tensor(rng.normal(scale=0.5, size=4), requires_grad=True)
        g = rng.normal(size=(4, 2, 3))
        runs = []
        for op in (run_stem, composed_stem):
            zero_grads([kernel, bias])
            out = op(page, kernel, bias)
            backward(sum_all(out * g))
            runs.append((out, kernel.grad, bias.grad))
        (out, dkernel, dbias), (want, want_dkernel, want_dbias) = runs
        assert out.shape == (4, 2, 3)
        assert np.array_equal(out.data, want.data)
        assert np.array_equal(out.data, biased_max_stem(page, kernel.data, bias.data))
        assert max_normalised(dkernel, want_dkernel) <= 1e-12  # four corner sums, not one
        assert np.array_equal(dbias, want_dbias)
        with no_grad():
            y = run_stem(page, kernel, bias)
        assert np.array_equal(y.data, out.data)
        assert not y.requires_grad and y._inputs == ()

    def test_each_convolution_is_one_corner_of_the_pooled_map(self, stem_extent, monkeypatch):
        # four conv2d calls at twice the stem's stride, without padding, each
        # making one corner's map at the output's extents; together they hold
        # the convolution's cells but its trailing odd row and column
        _, stride = stem_extent
        rng = np.random.default_rng(15)
        page = rng.uniform(size=(5 * stride, 7 * stride, 1))
        kernel = Tensor(rng.normal(size=(encoder.STEM_KERNEL, encoder.STEM_KERNEL, 1, 3)))
        calls, convolve = [], encoder.conv2d

        def traced(image, k, stride, padding):
            out = convolve(image, k, stride=stride, padding=padding)
            calls.append((stride, padding, out.shape))
            return out

        monkeypatch.setattr(encoder, "conv2d", traced)
        out = run_stem(page, kernel, Tensor(np.zeros(3)))
        assert calls == [(2 * stride, 0, out.shape)] * 4

    def test_stem_node_gradients_match_finite_differences(self, stem_extent):
        extent, stride = stem_extent
        rng = np.random.default_rng(13)
        page = rng.uniform(size=(8 * stride, 12 * stride, 1))
        kernel = Tensor(rng.normal(size=(extent, extent, 1, 3)), requires_grad=True)
        bias = Tensor(rng.normal(scale=0.1, size=3), requires_grad=True)
        weights = rng.normal(size=(3, 4, 6))
        out = run_stem(page, kernel, bias)
        assert out._inputs == (kernel, bias)
        assert grad_check(lambda: sum_all(run_stem(page, kernel, bias) * weights),
                          [kernel, bias]) < 1e-6

    def test_max_tie_routes_to_first_in_scan_order(self, stem_extent):
        # a centre-only kernel copies a constant page into one window of four
        # equal maxima; the kernel's gradient is the kh x kw patch of the
        # padded page that the first corner's cell reads
        extent, stride = stem_extent
        k = np.zeros((extent, extent, 1, 1))
        k[extent // 2, extent // 2] = 1.0
        kernel = Tensor(k, requires_grad=True)
        page = np.full((2 * stride, 2 * stride, 1), 0.5)
        out = run_stem(page, kernel, Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 1)
        backward(sum_all(out))
        first_corner = np.pad(page[:, :, 0], extent // 2)[:extent, :extent]
        assert np.array_equal(kernel.grad[:, :, 0, 0], first_corner)

    def test_recorded_stem_keeps_the_padded_page_not_its_tap_stack(self):
        # backward cuts each corner's (kh*kw) x cells stack again and routes
        # through a one-byte corner index, so between the passes the stem
        # holds only that index and the padded page besides the output it
        # was given: not a convolution map
        page = np.random.default_rng(5).uniform(size=(64, 48, 1))
        kernel = Tensor(np.random.default_rng(5).normal(size=(3, 3, 1, 4)), requires_grad=True)
        out = stem_output(page, kernel)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = stem(page, kernel, Tensor(np.zeros(4)), out)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y.requires_grad and np.shares_memory(y.data, out)
        assert held <= out.size + 66 * 50 * 8 + 8 * 1024

    def test_unrecorded_stem_allocates_one_corner_map_and_its_tap_stack(self):
        # besides the padded page, one corner's tap stack and its map are all
        # the stem makes: the full convolution map is four corner maps
        h, w, cout = 128, 96, 16
        page = np.random.default_rng(6).uniform(size=(h, w, 1))
        kernel = Tensor(np.random.default_rng(6).normal(size=(3, 3, 1, cout)))
        out = stem_output(page, kernel)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                stem(page, kernel, Tensor(np.zeros(cout)), out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        corner_cells = (h // 2) * (w // 2)
        corner_map, taps = cout * corner_cells * 8, 9 * corner_cells * 8
        padded = (h + 2) * (w + 2) * 8
        assert peak <= corner_map + taps + padded + 64 * 1024

    def test_an_output_of_the_wrong_shape_raises(self):
        kernel = Tensor(np.zeros((3, 3, 1, 2)))
        with pytest.raises(DimensionError, match="stem output"):
            stem(np.zeros((8, 6, 1)), kernel, Tensor(np.zeros(2)), np.empty((2, 4, 4)))

    def test_a_page_smaller_than_one_window_raises(self):
        kernel = Tensor(np.zeros((3, 3, 1, 2)))
        with pytest.raises(DimensionError, match="extents"):
            stem(np.zeros((1, 6, 1)), kernel, Tensor(np.zeros(2)), np.empty((2, 0, 3)))


def max_pool(x):
    """2x2 max pooling of a C x H x W tensor's values: ``pool2d`` folds each window corner."""
    corners = encoder._window_corners(x.data)
    out = np.empty(x.data[corners[0]].shape)
    for n, corner in enumerate(corners):
        pool2d(x.data[corner], out, n, None)
    return Tensor(out)


def average_pool(x):
    """2x2 average pooling through a transition with an identity kernel and zero bias.

    The identity product is exact, so on a non-negative map this is the
    average pool bit for bit; on a positive one its gradient is too.
    """
    c = x.shape[0]
    return transition(x, Tensor(np.eye(c).reshape(1, 1, c, c)), Tensor(np.zeros(c)))


POOLS = {"max": (max_pool, lambda x: sliding_pool2d(x, "max")),
         "average": (average_pool, lambda x: sliding_pool2d(x, "average"))}


class TestPool2d:
    """2x2 pooling at stride 2: ``pool2d``'s max and ``transition``'s average."""

    def test_constant_input(self):
        x = Tensor(np.full((2, 4, 6), 3.25))
        for pool, _ in POOLS.values():
            out = pool(x)
            assert out.shape == (2, 2, 3)
            assert np.all(out.data == 3.25)

    def test_average_of_2x2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2))
        assert average_pool(x).data.reshape(()) == 2.5

    def test_pools_the_trailing_axes_of_each_channel(self):
        x = np.arange(2 * 4 * 4, dtype=float).reshape(2, 4, 4)
        assert np.array_equal(max_pool(Tensor(x)).data, x[:, 1::2, 1::2])

    @pytest.mark.parametrize("kind", ["max", "average"])
    @pytest.mark.parametrize("shape", [(3, 6, 8), (3, 5, 7)])
    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties"])
    def test_matches_the_sliding_window_oracle_bitwise(self, kind, shape, ties):
        # the max records no node: its gradient is the stem's, tested in TestStem
        rng = np.random.default_rng(7)
        data = rng.integers(0, 3, size=shape).astype(float) if ties else rng.normal(size=shape)
        if kind == "average":
            data = np.abs(data) + 1.0  # the identity transition rectifies no cell
        g = rng.normal(size=(shape[0], shape[1] // 2, shape[2] // 2))
        results = []
        for op in POOLS[kind]:
            x = Tensor(data.copy(), requires_grad=True)
            out = op(x)
            if kind == "average":
                backward(sum_all(out * g))
            results.append((out.data, x.grad))
        (values, grad), (want_values, want_grad) = results
        assert np.array_equal(values, want_values)
        if kind == "average":
            assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties"])
    def test_first_names_the_first_max_corner_in_scan_order(self, ties):
        # a later corner takes a cell only where it is strictly greater: the
        # sliding oracle's argmax, which returns the first maximum
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, size=(3, 6, 8)).astype(float) if ties else rng.normal(size=(3, 6, 8))
        corners = encoder._window_corners(x)
        out, first = np.empty((3, 3, 4)), np.zeros((3, 3, 4), np.uint8)
        for n, corner in enumerate(corners):
            pool2d(x[corner], out, n, first)
        windows = sliding_window_view(x, (2, 2), axis=(1, 2))[:, ::2, ::2].reshape(3, 3, 4, 4)
        assert np.array_equal(out, windows.max(axis=3))
        assert np.array_equal(first, windows.argmax(axis=3))

    def test_average_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(0.5, 1.5, size=(3, 5, 7)), requires_grad=True)
        weights = rng.normal(size=(3, 2, 3))
        assert grad_check(lambda: sum_all(average_pool(x) * weights), [x]) < 1e-6

    @pytest.mark.parametrize("kind", ["max", "average"])
    def test_unrecorded_peak_is_the_output_and_the_transition_product(self, kind):
        # the max takes each later corner in place into the output; the average
        # pool also holds the transition's full-size product. The slack covers
        # the ufunc buffers for two strided operands (8192 float64 each) and
        # small objects
        x = Tensor(np.random.default_rng(8).uniform(size=(8, 128, 128)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = POOLS[kind][0](x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        product = x.data.nbytes if kind == "average" else 0
        assert peak <= out.data.nbytes + product + 2 * 64 * 1024 + 8 * 1024

    @pytest.mark.parametrize("shape", [(2, 1, 4), (2, 4, 1), (1, 1, 1)])
    @pytest.mark.parametrize("kind", ["max", "average"])
    def test_input_smaller_than_the_window_raises(self, shape, kind):
        with pytest.raises(DimensionError, match="extents"):
            POOLS[kind][0](Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("kind", ["max", "average"])
    def test_input_that_is_not_channels_by_height_by_width_raises(self, kind):
        with pytest.raises(DimensionError, match="C x H x W"):
            POOLS[kind][0](Tensor(np.zeros((4, 4))))


class TestDenseBlock:
    def test_empty_block_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 5)))
        out = run_block(x, [])
        assert out is x

    def test_channel_growth(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=16, block_depth=16), seed=1)
        x = Tensor(np.random.default_rng(1).normal(size=(48, 3, 4)))
        with no_grad():
            out = run_block(x, enc._block_layers(0))
        assert out.shape == (48 + 16 * 16, 3, 4)

    def test_spatial_extents_preserved(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=2)
        for h, w in [(1, 1), (2, 7), (5, 3)]:
            x = Tensor(np.random.default_rng(2).normal(size=(48, h, w)))
            with no_grad():
                out = run_block(x, enc._block_layers(0))
            assert out.shape[1:] == (h, w)

    def test_fills_the_buffer_it_is_given(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=3)
        x = Tensor(np.random.default_rng(3).normal(size=(48, 3, 5)))
        buf = block_buffer(x, enc._block_layers(0))
        with no_grad():
            out = dense_block(x, enc._block_layers(0), buf)
        assert out.data is buf and np.array_equal(buf[:48], x.data)

    @pytest.mark.parametrize("shape", [(55, 3, 5), (56, 3, 4)], ids=["channels", "extents"])
    def test_a_buffer_of_the_wrong_shape_raises(self, shape):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=3)
        x = Tensor(np.zeros((48, 3, 5)))
        with pytest.raises(DimensionError, match="buffer"):
            dense_block(x, enc._block_layers(0), np.empty(shape))


class TestBlockNode:
    """``dense_block`` as one graph node against the per-layer composition."""

    @pytest.mark.parametrize("h,w,initial,growth,depth", [
        (3, 4, 4, 3, 2), (1, 1, 5, 2, 3), (6, 5, 8, 4, 4), (2, 7, 3, 5, 1),
        (5, 1, 4, 3, 2), (1, 6, 3, 2, 3),
    ])
    def test_matches_the_composed_layers(self, h, w, initial, growth, depth):
        rng = np.random.default_rng(h * w + depth)
        layers = block_layers(initial, growth, depth, seed=depth)
        params = [p for layer in layers for p in layer]
        x = Tensor(rng.normal(size=(initial, h, w)), requires_grad=True)
        weights = rng.normal(size=(initial + depth * growth, h, w))
        grads = []
        for block in (run_block, composed_block):
            zero_grads([x, *params])
            out = block(x, layers)
            with no_grad():
                assert np.array_equal(block(x, layers).data, out.data)
            backward(sum_all(out * weights))
            grads.append((out.data, [t.grad for t in (x, *params)]))
        (fused, fused_grads), (composed, composed_grads) = grads
        assert np.array_equal(fused, composed)
        for a, b in zip(fused_grads, composed_grads):
            assert max_normalised(a, b) < 1e-12

    def test_records_one_node_over_every_input(self):
        layers = block_layers(4, 3, 2, seed=1)
        params = [p for layer in layers for p in layer]
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 4)), requires_grad=True)
        out = run_block(x, layers)
        assert out._inputs == (x, *params)
        assert len(execution_order(out)) == 1 + len(params) + 1

    def test_backward_runs_the_sweep_once(self, monkeypatch):
        layers = block_layers(4, 3, 2, seed=3)
        params = [p for layer in layers for p in layer]
        x = Tensor(np.random.default_rng(3).normal(size=(4, 3, 4)), requires_grad=True)
        out = run_block(x, layers)
        sweeps, windows = [], []
        sweep, patches = out._vjp, encoder._gradient_patches
        out._vjp = lambda g: sweeps.append(g) or sweep(g)
        monkeypatch.setattr(encoder, "_gradient_patches", lambda d: windows.append(d) or patches(d))
        backward(sum_all(out))
        assert len(sweeps) == 1 and len(windows) == len(layers)
        assert all(t.grad is not None for t in (x, *params))

    @pytest.mark.parametrize("input_requires_grad", [True, False])
    def test_gradients_match_finite_differences(self, input_requires_grad):
        rng = np.random.default_rng(2)
        layers = block_layers(4, 3, 2, seed=2)
        params = [p for layer in layers for p in layer]
        x = Tensor(rng.normal(size=(4, 3, 4)), requires_grad=input_requires_grad)
        weights = rng.normal(size=(4 + 2 * 3, 3, 4))
        checked = [x, *params] if input_requires_grad else params
        assert grad_check(lambda: sum_all(run_block(x, layers) * weights), checked) < 1e-6
        assert (x.grad is not None) == input_requires_grad

    # 48 input channels, growth 4 (bottleneck 16), depth 6 on a 32 x 32 grid:
    # one bottleneck-sized array is 128 KiB, the block's output 576 KiB. The
    # output buffer is made before tracing starts, as ``encode`` makes it. The
    # slack covers one numpy ufunc buffer (8192 float64) and small objects.
    MEMORY_CASE = dict(h=32, w=32, initial=48, growth=4, depth=6)
    SLACK = 64 * 1024

    def _traced_block(self, record):
        c = self.MEMORY_CASE
        layers = block_layers(c["initial"], c["growth"], c["depth"], seed=4)
        x = Tensor(np.random.default_rng(4).uniform(size=(c["initial"], c["h"], c["w"])),
                   requires_grad=record)
        buf = block_buffer(x, layers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if record:
                out = dense_block(x, layers, buf)
            else:
                with no_grad():
                    out = dense_block(x, layers, buf)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bottleneck = c["h"] * c["w"] * 4 * c["growth"] * 8
        return out, held - before, peak - before, bottleneck

    def test_without_recording_peak_is_scratch_and_one_row_product(self):
        # the 1x1 writes into the flat scratch the 3x3 reads, so a layer needs
        # only that scratch (B rows of (h+2)*w + 2) and one 3x3 kernel-row
        # product (3G rows of h*w + 2); a separate bottleneck would not fit
        out, _, peak, bottleneck = self._traced_block(record=False)
        c = self.MEMORY_CASE
        scratch = 4 * c["growth"] * ((c["h"] + 2) * c["w"] + 2) * 8
        row_product = 3 * c["growth"] * (c["h"] * c["w"] + 2) * 8
        assert out._inputs == () and bottleneck > self.SLACK
        assert peak <= scratch + row_product + self.SLACK

    def test_recorded_block_holds_buffer_and_one_bottleneck_per_layer(self):
        # the buffer was the caller's; the node adds the stacked bottlenecks
        out, held, _, bottleneck = self._traced_block(record=True)
        depth = self.MEMORY_CASE["depth"]
        assert out.requires_grad
        assert held <= depth * bottleneck + self.SLACK

    # (h, w, input channels, growth, depth). At growth 8 from 8 channels the
    # (9*G) x (h*w) window matrix (72 a cell) is wider than any layer's
    # channel prefix (at most 32); from 48 channels at growth 4 the prefix
    # (up to 68 a cell) is wider than the windows (36 a cell).
    @pytest.mark.parametrize("h,w,initial,growth,depth", [(32, 32, 8, 8, 4), (32, 32, 48, 4, 6)],
                             ids=["windows-wider", "prefix-wider"])
    def test_backward_reads_the_gradient_in_place_and_adds_one_patch_matrix(self, h, w, initial,
                                                                           growth, depth):
        # each layer's bottleneck gradient overwrites its kept bottleneck and
        # each slab's gradient is pulled from the incoming one, which is read in
        # place, not copied. So besides that gradient, the input's gradient and
        # the parameter gradients, the sweep needs one layer's matrix of 3x3
        # windows, with the masked gradient slice and its padded copy it is
        # cut from. Tracing starts before the forward pass so that what the
        # sweep frees counts against its peak.
        layers = block_layers(initial, growth, depth, seed=6)
        params = [p for layer in layers for p in layer]
        x = Tensor(np.random.default_rng(6).uniform(size=(initial, h, w)), requires_grad=True)
        tracemalloc.start()
        try:
            loss = sum_all(run_block(x, layers))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        gradient = h * w * (initial + depth * growth) * 8
        input_gradient = h * w * initial * 8
        patches = h * w * 9 * growth * 8
        slices = (h * w + (h + 2) * (w + 2)) * growth * 8
        param_grads = sum(p.data.nbytes for p in params)
        assert all(t.grad is not None for t in [x, *params])
        assert peak <= gradient + input_gradient + patches + slices + param_grads + self.SLACK


class TestTransition:
    def test_channel_compression(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=16, block_depth=16), seed=3)
        x = Tensor(np.random.default_rng(3).normal(size=(304, 4, 4)))
        with no_grad():
            out = transition(x, enc.params["trans0.kernel"], enc.params["trans0.bias"])
        assert out.shape == (152, 2, 2)

    def test_spatial_halving(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=1), seed=4)
        x = Tensor(np.random.default_rng(4).normal(size=(52, 8, 8)))
        with no_grad():
            out = transition(x, enc.params["trans0.kernel"], enc.params["trans0.bias"])
        assert out.shape[1:] == (4, 4)

    def test_constant_input_identity_kernel(self):
        kernel = Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2, 1))
        bias = Tensor(np.zeros(1))
        x = Tensor(np.full((2, 4, 4), 0.75))
        out = transition(x, kernel, bias)
        assert np.allclose(out.data, 0.75)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(5, 4, 6)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(1, 1, 5, 3)), requires_grad=True)
        bias = Tensor(rng.normal(scale=0.1, size=3), requires_grad=True)
        weights = rng.normal(size=(3, 2, 3))
        error = grad_check(lambda: sum_all(transition(x, kernel, bias) * weights),
                           [x, kernel, bias])
        assert error < 1e-6

    @pytest.mark.parametrize("h,w", [(4, 6), (5, 7), (2, 2)])
    def test_one_node_that_matches_the_composed_ops(self, h, w):
        rng = np.random.default_rng(h * w)
        x = Tensor(rng.normal(size=(6, h, w)), requires_grad=True)
        kernel = Tensor(rng.normal(scale=6 ** -0.5, size=(1, 1, 6, 3)), requires_grad=True)
        bias = Tensor(rng.normal(scale=0.1, size=3), requires_grad=True)
        weights = rng.normal(size=(3, h // 2, w // 2))
        runs = []
        for op in (transition, composed_transition):
            zero_grads([x, kernel, bias])
            out = op(x, kernel, bias)
            inputs = out._inputs
            backward(sum_all(out * weights))
            runs.append((out.data, inputs, [t.grad for t in (x, kernel, bias)]))
        (fused, inputs, grads), (composed, _, want_grads) = runs
        assert inputs == (x, kernel, bias)
        assert np.array_equal(fused, composed)
        for a, b in zip(grads, want_grads):
            assert max_normalised(a, b) <= 1e-12

    def test_too_small_input(self):
        kernel = Tensor(np.ones((1, 1, 2, 1)))
        with pytest.raises(DimensionError):
            transition(Tensor(np.ones((2, 1, 4))), kernel, Tensor(np.zeros(1)))

    def test_unrecorded_peak_is_two_output_maps(self):
        # block-0 shapes of a 256 x 192 page; keeping the pre-activation map
        # alive through pooling adds a quarter map, about 3 MB here
        h, w, cin, cout = 128, 96, 240, 120
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(size=(cin, h, w)))
        kernel = Tensor(rng.normal(scale=cin ** -0.5, size=(1, 1, cin, cout)))
        bias = Tensor(np.zeros(cout))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = transition(x, kernel, bias)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (cout, h // 2, w // 2)
        assert peak <= 2 * h * w * cout * 8 + 256 * 1024


class TestEncode:
    def test_shape_and_channels_small_config(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=16, block_depth=8), seed=5)
        image = np.random.default_rng(5).uniform(size=(64, 192, 1))
        with no_grad():
            grid = enc.encode(image)
        assert grid.features.shape == (8, 24, 236)

    def test_full_config_channel_count(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=16, block_depth=16), seed=6)
        image = np.random.default_rng(6).uniform(size=(16, 24, 1))
        with no_grad():
            grid = enc.encode(image)
        assert grid.features.shape == (2, 3, 460)

    @pytest.mark.parametrize("page", [Tensor(np.zeros((16, 16, 1))), np.zeros((16, 16)),
                                      np.zeros((0, 16, 1))], ids=["tensor", "2-d", "no-pixels"])
    def test_what_is_not_a_page_is_a_dimension_error_naming_its_shape(self, page):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=1), seed=7)
        with pytest.raises(DimensionError, match=re.escape(f"of shape {page.shape}")):
            enc.encode(page)

    @pytest.mark.parametrize("page", [np.full((8, 8, 1), "0"), np.full((8, 8, 1), 0.5 + 0.5j),
                                      np.full((8, 8, 1), 0.5, dtype=object)],
                             ids=["string", "complex", "object"])
    def test_a_page_that_is_not_real_is_a_numeric_error(self, page):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=1), seed=7)
        with pytest.raises(NumericError, match="page is not real-valued"):
            enc.encode(page)

    @pytest.mark.parametrize("h, w", [(20, 16), (17, 9), (1, 1)])
    def test_extents_off_the_factor_are_padded_with_background(self, h, w):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=1), seed=7)
        factor = enc.config.downsample_factor
        page = np.random.default_rng(h * w).uniform(size=(h, w, 1))
        padded = np.pad(page, ((0, -h % factor), (0, -w % factor), (0, 0)))
        recorded = [enc.encode(padded).features, enc.encode(page).features]
        with no_grad():
            unrecorded = [enc.encode(padded).features, enc.encode(page).features]
        assert all(f.requires_grad for f in recorded)
        want = recorded[0].data
        assert want.shape[:2] == (-(-h // factor), -(-w // factor))
        assert all(f.data.tobytes() == want.tobytes() for f in recorded + unrecorded)

    def test_deterministic_given_seed_and_input(self):
        image = np.random.default_rng(8).uniform(size=(16, 16, 1))
        with no_grad():
            a = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=9).encode(image)
            b = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=9).encode(image)
        assert np.array_equal(a.features.data, b.features.data)

    def test_gradients_match_finite_differences(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=2, block_depth=1, initial_channels=4),
                           seed=12)
        rng = np.random.default_rng(12)
        for name, p in enc.params.items():
            if name.endswith(".bias"):
                p.data[:] = rng.normal(scale=0.1, size=p.shape)
        image = rng.uniform(size=(16, 16, 1))
        weights = rng.normal(size=(2, 2, enc.config.output_channels))
        error = grad_check(lambda: sum_all(enc.encode(image).features * weights),
                           list(enc.params.values()))
        assert error < 1e-6

    def test_stem_matches_the_rectify_then_pool_order(self):
        config = EncoderConfig(growth_rate=4, block_depth=2, initial_channels=8)
        rng = np.random.default_rng(13)
        image = rng.uniform(size=(32, 48, 1))
        weights = rng.normal(size=(32 // config.downsample_factor,
                                   48 // config.downsample_factor, config.output_channels))
        runs = []
        for encode in (DenseEncoder.encode, old_order_encode):
            enc = DenseEncoder(config, seed=13)
            enc.params["stem.bias"].data[:] = np.random.default_rng(14).normal(
                scale=0.5, size=config.initial_channels)
            features = encode(enc, image).features
            backward(sum_all(features * weights))
            runs.append((features.data, enc.params))
        (features, params), (want, want_params) = runs
        assert np.array_equal(features, want)
        for name in ("stem.kernel", "stem.bias"):
            assert max_normalised(params[name].grad, want_params[name].grad) <= 1e-12, name

    def test_matches_the_numpy_reference(self):
        config = EncoderConfig(growth_rate=3, block_depth=2, initial_channels=4)
        enc = DenseEncoder(config, seed=17)
        rng = np.random.default_rng(17)
        for name, p in enc.params.items():
            if name.endswith(".bias"):
                p.data[:] = rng.normal(scale=0.1, size=p.shape)
        image = rng.uniform(size=(16, 24, 1))
        with no_grad():
            features = enc.encode(image).features.data
        want = numpy_encode(enc, image)
        assert features.shape == want.shape == (2, 3, config.output_channels)
        assert max_normalised(features, want) <= 1e-12

    def test_recorded_encode_is_one_node_per_stage(self):
        # the stem, three blocks, two transitions and the layout copy
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=16)
        grid = enc.encode(np.random.default_rng(16).uniform(size=(16, 24, 1)))
        nodes = [t for t in execution_order(grid.features) if t._vjp is not None]
        assert len(nodes) == 7

    def test_recorded_encode_holds_only_what_backward_reads(self):
        # between the passes a recorded encode holds each block's buffer (the
        # first holds the stem's output), each transition's output and the
        # H x W x C copy, each block's stacked bottlenecks, one byte per
        # transition pre-pool cell and per stem output cell, and the padded
        # page: not the stem's convolution map (192 KiB here), a separate
        # copy of its output, nor a transition's float map. The slack covers
        # the nodes, their closures and small arrays
        slack = 32 * 1024
        config = EncoderConfig(growth_rate=4, block_depth=2, initial_channels=8)
        enc = DenseEncoder(config, seed=18)
        h, w = 64, 48
        image = np.random.default_rng(18).uniform(size=(h, w, 1))
        enc.encode(image)  # first calls allocate numpy's and the interpreter's caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid = enc.encode(image)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        plan = config.channel_plan()
        bottleneck = 4 * config.growth_rate
        cells = (h // 2) * (w // 2)  # after the stem
        pad = encoder.STEM_KERNEL // 2
        keep = (h + 2 * pad) * (w + 2 * pad) * 8 + plan[0] * cells
        for block in range(BLOCKS):
            keep += (plan[2 * block + 1] + config.block_depth * bottleneck) * cells * 8
            if block < BLOCKS - 1:
                keep += plan[2 * block + 2] * cells * (1 + 8 // 4)
                cells //= 4
        keep += grid.features.data.nbytes
        assert abs(held - keep) <= slack

    def test_unrecorded_encode_peaks_in_block_zero(self):
        # block 0 holds its buffer, the flat bottleneck scratch and one 3x3
        # kernel-row product; the stem, which pools into that buffer, and the
        # page's checks stay under it. The slack covers one numpy ufunc buffer
        # (8192 float64) and small objects. The stem's full convolution map
        # alone (2.36 MB) would not fit
        config = EncoderConfig(growth_rate=12, block_depth=4)
        enc = DenseEncoder(config, seed=15)
        h, w = 96, 64
        image = np.random.default_rng(15).uniform(size=(h, w, 1))
        cells, b, g = (h // 2) * (w // 2), 4 * config.growth_rate, config.growth_rate
        buffer = config.channel_plan()[1] * cells * 8
        scratch = b * ((h // 2 + 2) * (w // 2) + 2) * 8
        row_product = 3 * g * (cells + 2) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                enc.encode(image)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = buffer + scratch + row_product + image.nbytes + 64 * 1024
        assert bound < h * w * config.initial_channels * 8
        assert peak <= bound

    def test_every_parameter_gets_gradient(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=10)
        rng = np.random.default_rng(10)
        zero_grads(enc.params.values())
        loss = None
        for _ in range(2):
            grid = enc.encode(rng.uniform(size=(16, 16, 1)))
            term = sum_all(grid.features * rng.normal(size=grid.features.shape))
            loss = term if loss is None else loss + term
        backward(loss)
        for name, p in enc.params.items():
            assert p.grad is not None, f"{name} has no gradient"
            assert np.any(p.grad != 0), f"{name} gradient is all zero"
