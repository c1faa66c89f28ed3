import tracemalloc

import numpy as np
import pytest

from kuzureader.autodiff import (
    DimensionError,
    Tensor,
    _record,
    backward,
    bias_relu,
    concat,
    execution_order,
    grad_check,
    matmul,
    narrow,
    no_grad,
    pool2d,
    reshape,
    sum_all,
    tanh,
    zero_grads,
)
from kuzureader import encoder
from kuzureader.encoder import (BLOCKS, DenseEncoder, EncoderConfig, FeatureGrid, conv2d,
                                dense_block, transition)


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


def per_channel(bias):
    return reshape(bias, (bias.shape[0], 1, 1))


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

    The input is zero-padded by 1 with constant tensors and flattened to
    rows of (h+2)*(w+2) values plus two trailing zeros. Kernel row i's three
    taps are stacked into one 3G x C matrix and multiplied by the flattened
    rows from column i*(w+2); tap (i, j) is that product's j-th G rows
    shifted by j columns and cut to h x w. The taps are added in row-major
    order, so each output sums the same products in the same order as
    ``dense_block``'s row products.
    """
    c, h, w = x.shape
    g = kernel.shape[3]
    wp, n = w + 2, h * (w + 2)
    column = Tensor(np.zeros((c, h, 1)))
    row = Tensor(np.zeros((c, 1, wp)))
    padded = concat([row, concat([column, x, column], axis=2), row], axis=1)
    flat = concat([reshape(padded, (c, (h + 2) * wp)), Tensor(np.zeros((c, 2)))], axis=1)
    out = None
    for i in range(3):
        stacked = reshape(transposed(narrow(kernel, 0, i, 1), (0, 1, 3, 2)), (3 * g, c))
        product = matmul(stacked, narrow(flat, 1, i * wp, n + 2))
        for j in range(3):
            tap = narrow(reshape(narrow(narrow(product, 0, j * g, g), 1, j, n), (g, h, wp)), 2, 0, w)
            out = tap if out is None else out + tap
    return out


def composed_block(x, layers):
    """The dense block as the per-layer composition of public ops: the oracle."""
    for reduce_kernel, reduce_bias, conv_kernel, conv_bias in layers:
        reduced = bias_relu(conv1x1(x, reduce_kernel), per_channel(reduce_bias))
        grown = bias_relu(conv3x3_by_rows(reduced, conv_kernel), per_channel(conv_bias))
        x = concat([x, grown], axis=0)
    return x


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


def old_order_encode(enc, image):
    """``encode`` with the stem rectified before it is pooled: the oracle."""
    c = enc.config
    x = conv2d(Tensor(image), enc.params["stem.kernel"], stride=c.stem_stride,
               padding=c.stem_kernel // 2)
    x = pool2d(bias_relu(x, per_channel(enc.params["stem.bias"])), "max")
    for block in range(BLOCKS):
        x = dense_block(x, enc._block_layers(block))
        if block < BLOCKS - 1:
            x = transition(x, enc.params[f"trans{block}.kernel"], enc.params[f"trans{block}.bias"])
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

    x = conv_oracle(image, p["stem.kernel"], c.stem_stride, c.stem_kernel // 2)
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
        with pytest.raises(DimensionError):
            EncoderConfig(growth_rate=0, block_depth=4)
        with pytest.raises(DimensionError):
            EncoderConfig(growth_rate=8, block_depth=-1)
        with pytest.raises(DimensionError):
            EncoderConfig(growth_rate=8, block_depth=4, initial_channels=0)
        with pytest.raises(DimensionError):
            EncoderConfig(growth_rate=8, block_depth=4, stem_kernel=2)
        with pytest.raises(DimensionError):
            EncoderConfig(growth_rate=8, block_depth=4, stem_stride=0)

    @pytest.mark.parametrize("value", [2.5, "3"], ids=["float", "string"])
    def test_non_integer_size_raises_dimension_error(self, value):
        with pytest.raises(DimensionError, match="block_depth must be an integer"):
            EncoderConfig(growth_rate=8, block_depth=value)

    def test_numpy_integer_sizes_pass(self):
        config = EncoderConfig(growth_rate=np.int64(8), block_depth=np.int32(4))
        assert config.channel_plan() == EncoderConfig(8, 4).channel_plan()


class TestStem:
    """``conv2d``: the stem as one patch product over a constant page."""

    def test_one_by_one_identity(self):
        x = np.random.default_rng(2).normal(size=(4, 5, 1))
        out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), stride=1, padding=0)
        assert np.array_equal(out.data, x.transpose(2, 0, 1))

    def test_padded_3x3_preserves_shape(self):
        out = conv2d(Tensor(np.zeros((6, 9, 1))), Tensor(np.zeros((3, 3, 1, 5))),
                     stride=1, padding=1)
        assert out.shape == (5, 6, 9)

    def test_against_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        for x_shape, k_shape, stride, padding in STEM_CASES:
            x = rng.normal(size=x_shape)
            k = rng.normal(size=k_shape)
            out = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
            expected = conv_oracle(x, k, stride, padding).transpose(2, 0, 1)
            assert out.shape == expected.shape
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_kernel_gradient_matches_finite_differences_and_the_image_gets_none(self):
        rng = np.random.default_rng(4)
        for x_shape, k_shape, stride, padding in STEM_CASES:
            image = Tensor(rng.normal(size=x_shape), requires_grad=True)
            kernel = Tensor(rng.normal(size=k_shape), requires_grad=True)

            def loss():
                return sum_all(tanh(conv2d(image, kernel, stride=stride, padding=padding)))

            assert all(t is not image for t in execution_order(loss()))
            assert grad_check(loss, [kernel]) < 1e-6
            assert image.grad is None


    def test_recorded_stem_keeps_the_padded_page_not_its_tap_stack(self):
        # backward cuts the (kh*kw) x cells stack again, so between the passes
        # only the output and the padded page are held
        image = Tensor(np.random.default_rng(5).uniform(size=(64, 48, 1)))
        kernel = Tensor(np.random.default_rng(5).normal(size=(3, 3, 1, 4)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(image, kernel, stride=1, padding=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 66 * 50 * 8 + 8 * 1024


class TestDenseBlock:
    def test_empty_block_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 5)))
        out = dense_block(x, [])
        assert np.array_equal(out.data, x.data)

    def test_channel_growth(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=16, block_depth=16), seed=1)
        x = Tensor(np.random.default_rng(1).normal(size=(48, 3, 4)))
        with no_grad():
            out = dense_block(x, enc._block_layers(0))
        assert out.shape == (48 + 16 * 16, 3, 4)

    def test_spatial_extents_preserved(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=2), seed=2)
        for h, w in [(1, 1), (2, 7), (5, 3)]:
            x = Tensor(np.random.default_rng(2).normal(size=(48, h, w)))
            with no_grad():
                out = dense_block(x, enc._block_layers(0))
            assert out.shape[1:] == (h, w)


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
        for block in (dense_block, composed_block):
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
        out = dense_block(x, layers)
        assert out._inputs == (x, *params)
        assert len(execution_order(out)) == 1 + len(params) + 1

    def test_backward_runs_the_sweep_once(self, monkeypatch):
        layers = block_layers(4, 3, 2, seed=3)
        params = [p for layer in layers for p in layer]
        x = Tensor(np.random.default_rng(3).normal(size=(4, 3, 4)), requires_grad=True)
        out = dense_block(x, layers)
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
        assert grad_check(lambda: sum_all(dense_block(x, layers) * weights), checked) < 1e-6
        assert (x.grad is not None) == input_requires_grad

    # 48 input channels, growth 4 (bottleneck 16), depth 6 on a 32 x 32 grid:
    # one bottleneck-sized array is 128 KiB, the block's output 576 KiB. The
    # slack covers one numpy ufunc buffer (8192 float64) and small objects.
    MEMORY_CASE = dict(h=32, w=32, initial=48, growth=4, depth=6)
    SLACK = 64 * 1024

    def _traced_block(self, record):
        c = self.MEMORY_CASE
        layers = block_layers(c["initial"], c["growth"], c["depth"], seed=4)
        x = Tensor(np.random.default_rng(4).uniform(size=(c["initial"], c["h"], c["w"])),
                   requires_grad=record)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if record:
                out = dense_block(x, layers)
            else:
                with no_grad():
                    out = dense_block(x, layers)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bottleneck = c["h"] * c["w"] * 4 * c["growth"] * 8
        return out, held - before, peak - before, bottleneck

    def test_without_recording_peak_is_buffer_pad_bottleneck_and_one_row_product(self):
        # besides the output buffer and the padded scratch bottleneck, a layer
        # needs its 1x1 product and one 3x3 kernel-row product (3G rows over
        # the padded cells); bottlenecks kept per layer would not fit
        out, _, peak, bottleneck = self._traced_block(record=False)
        c = self.MEMORY_CASE
        padded_cells = (c["h"] + 2) * (c["w"] + 2)
        pad = 4 * c["growth"] * (padded_cells + 2) * 8
        row_product = 3 * c["growth"] * padded_cells * 8
        assert out._inputs == ()
        assert peak <= out.data.nbytes + pad + bottleneck + row_product + self.SLACK

    def test_recorded_block_holds_buffer_and_one_bottleneck_per_layer(self):
        out, held, _, bottleneck = self._traced_block(record=True)
        depth = self.MEMORY_CASE["depth"]
        assert held <= out.data.nbytes + depth * bottleneck + self.SLACK

    # (h, w, input channels, growth, depth). At growth 8 from 8 channels the
    # (9*G) x (h*w) window matrix (72 a cell) is wider than any layer's
    # channel prefix (at most 32). From 48 channels at growth 4 the prefix
    # (up to 68 a cell) is wider than the windows (36 a cell); its gradient
    # is added in slabs through the windows' memory, so it adds nothing.
    @pytest.mark.parametrize("h,w,initial,growth,depth", [(32, 32, 8, 8, 4), (32, 32, 48, 4, 6)],
                             ids=["windows-wider", "prefix-wider"])
    def test_backward_adds_the_gradient_its_copy_and_one_patch_matrix(self, h, w, initial,
                                                                      growth, depth):
        # each layer's bottleneck gradient overwrites its kept bottleneck, so
        # besides the incoming gradient, the sweep's writable copy of it and
        # the parameter gradients, the sweep needs one layer's matrix of 3x3
        # windows, with the masked gradient slice and its padded copy it is
        # cut from. Tracing starts before the forward pass so that what the
        # sweep frees counts against its peak.
        layers = block_layers(initial, growth, depth, seed=6)
        params = [p for layer in layers for p in layer]
        x = Tensor(np.random.default_rng(6).uniform(size=(initial, h, w)), requires_grad=True)
        tracemalloc.start()
        try:
            loss = sum_all(dense_block(x, layers))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        gradient = h * w * (initial + depth * growth) * 8
        patches = h * w * 9 * growth * 8
        slices = (h * w + (h + 2) * (w + 2)) * growth * 8
        param_grads = sum(p.data.nbytes for p in params)
        assert all(t.grad is not None for t in [x, *params])
        assert peak <= 2 * gradient + patches + slices + param_grads + self.SLACK


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

    def test_image_that_requires_grad_rejected(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=1), seed=7)
        with pytest.raises(DimensionError, match="requires_grad"):
            enc.encode(Tensor(np.zeros((16, 16, 1)), requires_grad=True))

    def test_indivisible_extents_rejected(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=4, block_depth=1), seed=7)
        with pytest.raises(DimensionError, match="divisible"):
            enc.encode(np.zeros((20, 16, 1)))

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

    @pytest.mark.parametrize("stem_kernel, stem_stride", [(3, 1), (7, 2)], ids=["default", "densewap"])
    def test_stem_matches_the_rectify_then_pool_order(self, stem_kernel, stem_stride):
        config = EncoderConfig(growth_rate=4, block_depth=2, initial_channels=8,
                               stem_kernel=stem_kernel, stem_stride=stem_stride)
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

    def test_unrecorded_encode_peaks_under_two_stem_maps(self):
        enc = DenseEncoder(EncoderConfig(growth_rate=12, block_depth=4), seed=15)
        image = np.random.default_rng(15).uniform(size=(96, 64, 1))
        stem_bytes = 96 * 64 * enc.config.initial_channels * 8  # the stem conv's output
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with no_grad():
                enc.encode(image)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stem_bytes

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
