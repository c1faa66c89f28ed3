"""Densely connected convolutional feature extractor.

A document image (H x W x 1, values in [0, 1], dark ink mapped high) is
reduced to a coarse feature grid: a stem convolution with max pooling,
then the three dense blocks of DenseWAP joined by two transition layers.
Convolution is cross-correlation (no kernel flip). Every map inside the
encoder is channel-major, C x H x W, as in DenseWAP: a channel prefix and
every row of a shifted 3x3 tap are contiguous runs of memory. ``encode``
hands the decoder the H x W x C grid through one transposed copy of the
last block's output.

The page is a constant, so the stem is one product of the flattened
kernel with the page's kh*kw shifted planes, and only the kernel is
differentiated. Inside a dense block (``dense_block``, one graph node)
every layer sees the channel-concatenation of all previous outputs; a 1x1
bottleneck (4x the growth rate) precedes each 3x3 convolution, which runs
as three products, one per kernel row. The node keeps each layer's
unpadded bottleneck, and its backward pass takes a 3x3 convolution's
kernel and bottleneck gradients each as one product with a single matrix
of the output gradient's 3x3 windows. Transitions halve the channel count
with a 1x1 convolution and 2x2 average pooling; that convolution only
mixes channels, so it runs as one product of the transposed kernel with
the C x (H*W) map.

Channel bookkeeping from an initial 48: a block adds depth * growth_rate
channels, a transition keeps floor(channels / 2). The stem and transition
convolutions take their per-channel bias and rectifier from ``bias_relu``
as one graph node, so the unrectified sum is never kept. The stem
max-pools before that node, which is exact: ``fl(x + b)`` is monotone in
``x`` and ReLU is monotone, so ``max(relu(x + b)) == relu(max(x) + b)``
bit for bit; bias and ReLU then run on a quarter-size grid instead of
copying the largest map in the model at full size. There is no batch
normalization, which keeps runs bit-deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import DimensionError, Tensor, _record, _recording, bias_relu, pool2d, reshape
from .data import check_pixels

BLOCKS = 3  # dense blocks; a transition follows every block but the last


def check_integer_fields(config) -> None:
    """Raise ``DimensionError`` unless every field of ``config`` is an integer (numpy's too)."""
    for f in fields(config):
        value = getattr(config, f.name)
        try:
            operator.index(value)
        except TypeError:
            raise DimensionError(f"{f.name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class EncoderConfig:
    growth_rate: int
    block_depth: int
    initial_channels: int = 48
    stem_kernel: int = 3
    stem_stride: int = 1

    def __post_init__(self):
        check_integer_fields(self)
        if self.growth_rate < 1:
            raise DimensionError(f"growth_rate must be >= 1, got {self.growth_rate}")
        if self.block_depth < 0:
            raise DimensionError(f"block_depth must be >= 0, got {self.block_depth}")
        if self.initial_channels < 1:
            raise DimensionError(f"initial_channels must be >= 1, got {self.initial_channels}")
        if self.stem_kernel < 1 or self.stem_kernel % 2 == 0:
            raise DimensionError(f"stem_kernel must be odd and >= 1, got {self.stem_kernel}")
        if self.stem_stride < 1:
            raise DimensionError(f"stem_stride must be >= 1, got {self.stem_stride}")

    @property
    def downsample_factor(self) -> int:
        """Input pixels per feature cell along each axis."""
        return self.stem_stride * 2 ** BLOCKS

    def channel_plan(self) -> list[int]:
        """Channel counts after the stem and after each block/transition."""
        plan = [self.initial_channels]
        for block in range(BLOCKS):
            plan.append(plan[-1] + self.block_depth * self.growth_rate)
            if block < BLOCKS - 1:
                plan.append(plan[-1] // 2)
        return plan

    @property
    def output_channels(self) -> int:
        return self.channel_plan()[-1]


@dataclass
class FeatureGrid:
    """Encoder output: an H x W x C grid, one feature vector per cell."""
    features: Tensor


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _conv1x1(x: Tensor, kernel: Tensor) -> Tensor:
    """A 1x1 convolution of a Cin x H x W map with a 1 x 1 x Cin x Cout kernel, as one node.

    It is one product of the transposed kernel with the Cin x (H*W) map.
    """
    cin, h, w = x.shape
    cout = kernel.shape[3]
    k = kernel.data.reshape(cin, cout)
    cells = x.data.reshape(cin, h * w)
    return _record((k.T @ cells).reshape(cout, h, w), (kernel, x),
                   lambda g: ((cells @ g.reshape(cout, -1).T).reshape(kernel.shape),
                              (k @ g.reshape(cout, -1)).reshape(x.shape)))


def _per_channel(bias: Tensor) -> Tensor:
    """C biases as a C x 1 x 1 tensor, which broadcasts over a C x H x W map's rows."""
    return reshape(bias, (bias.shape[0], 1, 1))


def conv2d(image: Tensor, kernel: Tensor, stride: int, padding: int) -> Tensor:
    """The stem: cross-correlate a constant H x W x 1 page with a kh x kw x 1 x Cout kernel.

    The zero-padded page is cut into a (kh*kw) x (Ho*Wo) stack of shifted
    pixels, one row per kernel tap, and the transposed kernel maps that
    stack to the Cout x Ho x Wo output in one product. The page gets no
    gradient. Backward cuts the stack again from the padded page instead
    of keeping it through the whole forward pass.
    """
    kh, kw, _, cout = kernel.shape
    padded = np.pad(image.data[:, :, 0], padding)
    ho, wo = (padded.shape[0] - kh) // stride + 1, (padded.shape[1] - kw) // stride + 1

    def taps() -> np.ndarray:
        windows = sliding_window_view(padded, (kh, kw))[::stride, ::stride]
        return windows.transpose(2, 3, 0, 1).reshape(kh * kw, ho * wo)

    k = kernel.data.reshape(kh * kw, cout)
    return _record((k.T @ taps()).reshape(cout, ho, wo), (kernel,),
                   lambda g: ((taps() @ g.reshape(cout, -1).T).reshape(kernel.shape),))


def _conv3x3(pad: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> None:
    """Write a 3x3 convolution (pad 1) of a padded, flattened bottleneck into ``out``.

    ``pad`` holds the B x (h+2) x (w+2) zero-padded bottleneck as B rows of
    (h+2)*(w+2) + 2 values (two trailing zeros), ``kernel`` is 3 x 3 x B x G
    and ``out`` is the G x h x w output. Output pixel (u, v) reads padded
    value ``u*wp + v + i*wp + j`` at tap (i, j), with ``wp = w + 2``. So
    kernel row i is one (3G x B) product with the columns from ``i*wp``,
    and its j-th G rows, shifted by j columns, are tap (i, j). The taps are
    added in row-major order; the columns that wrap into the next row are
    never read.
    """
    g, h, w = out.shape
    wp = w + 2
    n = h * wp
    product = np.empty((3 * g, n + 2))
    for i in range(3):
        np.matmul(kernel[i].transpose(0, 2, 1).reshape(3 * g, -1), pad[:, i * wp:i * wp + n + 2],
                  out=product)
        for j in range(3):
            tap = product[j * g:(j + 1) * g, j:j + n].reshape(g, h, wp)[:, :, :w]
            if i == j == 0:
                out[...] = tap
            else:
                out += tap


def _gradient_patches(d: np.ndarray) -> np.ndarray:
    """A G x h x w output gradient as its (9*G) x (h*w) matrix of 3x3 windows.

    ``d`` is padded by 1, and row ``(p*3 + q)*G + k`` of cell (a, b) holds
    ``d[k, a + p - 1, b + q - 1]``: nine shifted copies, each a run of w
    contiguous values per image row. That is the gradient that reached
    bottleneck pixel (a, b) through kernel tap (2 - p, 2 - q), so the
    flipped kernel maps the windows to the bottleneck gradient, and the
    bottleneck maps them to the flipped kernel gradient.
    """
    g, h, w = d.shape
    padded = np.pad(d, ((0, 0), (1, 1), (1, 1)))
    patches = np.empty((3, 3, g, h, w))
    for p, q in np.ndindex(3, 3):
        patches[p, q] = padded[:, p:p + h, q:q + w]
    return patches.reshape(9 * g, h * w)


def dense_block(x: Tensor, layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """A DenseNet block over a C0 x H x W input, recorded as one graph node.

    ``layers`` holds one ``(reduce_kernel, reduce_bias, conv_kernel,
    conv_bias)`` tuple per layer: a 1 x 1 x C_l x B kernel with B biases,
    then a 3 x 3 x B x G kernel (pad 1) with G biases, where C_l is the
    channel count the layer sees. Layer l computes
    ``relu(conv3x3(relu(conv1x1(prefix) + rb)) + cb)`` from the first C_l
    channels and appends its G channels, so the output has the input's
    extents and C0 + sum(G) channels. An empty list returns ``x`` itself.

    Every layer writes into one preallocated channel-major output buffer,
    so a layer's channel prefix is one contiguous C_l x (H*W) slab and its
    1x1 convolution one product over it; nothing is concatenated. Each 3x3
    convolution is three products, one per kernel row, over one flattened,
    zero-padded scratch copy of the bottleneck (``_conv3x3``), so no im2col
    buffer is built. When recording, the node holds the output buffer and
    each layer's unpadded bottleneck activation, which grows linearly with
    depth where a graph of per-layer concatenations grows quadratically;
    without recording nothing is kept per layer. The node's one vjp is a
    reverse sweep over a single gradient buffer that gives the input's and
    every parameter's gradient, so it pops each kept bottleneck once. It
    cuts each layer's output gradient into one (9*G) x (H*W) matrix of 3x3
    windows, so the 3x3 kernel gradient and the bottleneck gradient are one
    product each; the bottleneck gradient overwrites that layer's kept
    bottleneck, and the prefix's gradient is added in slabs of 9*G channels
    through the windows' memory.
    """
    if not layers:
        return x
    c0, h, w = x.data.shape
    starts = list(accumulate((cb.data.size for *_, cb in layers), initial=c0))
    params = [p for layer in layers for p in layer]
    cells, ctot = h * w, starts[-1]
    buf = np.empty((ctot, h, w))
    buf[:c0] = x.data
    rows = buf.reshape(ctot, cells)
    recording = _recording(x, *params)
    b = layers[0][0].data.shape[3]
    pad = np.zeros((b, (h + 2) * (w + 2) + 2))
    interior = pad[:, :(h + 2) * (w + 2)].reshape(b, h + 2, w + 2)[:, 1:h + 1, 1:w + 1]
    bottlenecks: list[np.ndarray] = []
    for (rk, rb, ck, cb), c, end in zip(layers, starts, starts[1:]):
        reduced = rk.data[0, 0].T @ rows[:c]
        reduced += rb.data[:, None]
        np.maximum(reduced, 0.0, out=reduced)
        interior[...] = reduced.reshape(b, h, w)
        if recording:
            bottlenecks.append(reduced)
        del reduced  # the pad holds a copy, so no_grad frees it before the 3x3's row product
        grown = buf[c:end]
        _conv3x3(pad, ck.data, grown)
        grown += cb.data[:, None, None]
        np.maximum(grown, 0.0, out=grown)

    def sweep(g):
        """Input gradient, then each parameter's, in ``params`` order."""
        grad = np.array(g).reshape(ctot, cells)  # writable; layers add into its prefix
        dparams = []
        for (rk, rb, ck, cb), c, end in reversed(list(zip(layers, starts, starts[1:]))):
            bottleneck = bottlenecks.pop()
            growth = end - c
            dgrown = grad[c:end] * (rows[c:end] > 0.0)
            patches = _gradient_patches(dgrown.reshape(growth, h, w))
            dkernel = (bottleneck @ patches.T).reshape(b, 3, 3, growth).transpose(1, 2, 0, 3)
            active = bottleneck > 0.0
            flipped = ck.data[::-1, ::-1].transpose(2, 0, 1, 3).reshape(b, 9 * growth)
            dreduced = np.matmul(flipped, patches, out=bottleneck)
            dreduced *= active
            dparams[:0] = [(rows[:c] @ dreduced.T).reshape(rk.data.shape),
                           dreduced.sum(axis=1), dkernel[::-1, ::-1], dgrown.sum(axis=1)]
            for s in range(0, c, 9 * growth):  # the windows are spent; their memory takes each slab
                slab = slice(s, min(s + 9 * growth, c))
                grad[slab] += np.matmul(rk.data[0, 0, slab], dreduced, out=patches[:slab.stop - s])
            del patches  # before the next layer's windows exist
        return [grad[:c0].reshape(c0, h, w), *dparams]

    return _record(buf, (x, *params), sweep)


def _channels_last(x: Tensor) -> Tensor:
    """A C x H x W map as the H x W x C grid the decoder reads: one transposed copy."""
    return _record(x.data.transpose(1, 2, 0), (x,), lambda g: (g.transpose(2, 0, 1),))


def transition(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Compress channels with a 1x1 convolution, then 2x2 average pool.

    The convolution is one Cout x Cin by Cin x (H*W) product, and the bias
    is added per channel row. It stays nested inside ``bias_relu`` so the
    pre-activation map is freed before pooling starts (a named local would
    keep it alive through ``pool2d``).
    """
    return pool2d(bias_relu(_conv1x1(x, kernel), _per_channel(bias)), "average")


class DenseEncoder:
    """Weight-bearing encoder; parameters live in an ordered name->Tensor map."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE0C]))
        c = config

        def add_conv(name, kh, kw, cin, cout):
            self.params[f"{name}.kernel"] = Tensor(
                _uniform(rng, (kh, kw, cin, cout), kh * kw * cin), requires_grad=True)
            self.params[f"{name}.bias"] = Tensor(np.zeros(cout), requires_grad=True)

        plan = c.channel_plan()  # block b: plan[2b] -> plan[2b+1]; trans b: -> plan[2b+2]
        add_conv("stem", c.stem_kernel, c.stem_kernel, 1, plan[0])
        for block in range(BLOCKS):
            for layer in range(c.block_depth):
                cin = plan[2 * block] + layer * c.growth_rate
                add_conv(f"block{block}.layer{layer}.reduce", 1, 1, cin, 4 * c.growth_rate)
                add_conv(f"block{block}.layer{layer}.conv", 3, 3, 4 * c.growth_rate, c.growth_rate)
            if block < BLOCKS - 1:
                add_conv(f"trans{block}", 1, 1, plan[2 * block + 1], plan[2 * block + 2])

    def _block_layers(self, block: int) -> list[tuple[Tensor, Tensor, Tensor, Tensor]]:
        """``dense_block``'s per-layer (reduce kernel, reduce bias, conv kernel, conv bias)."""
        return [
            tuple(self.params[f"block{block}.layer{layer}.{name}"]
                  for name in ("reduce.kernel", "reduce.bias", "conv.kernel", "conv.bias"))
            for layer in range(self.config.block_depth)
        ]

    def encode(self, image: Tensor | np.ndarray) -> FeatureGrid:
        """Extract the H x W x C feature grid from one H x W x 1 image.

        Image extents must be divisible by the downsample factor (pad with
        the background value beforehand) and every pixel must be a finite
        value in [0, 1]. The image is a constant: the stem is a patch product
        that differentiates only its kernel, so an image that requires a
        gradient is refused.
        """
        if not isinstance(image, Tensor):
            image = Tensor(image)
        if image.ndim != 3 or image.shape[2] != 1:
            raise DimensionError(f"expected H x W x 1 image, got {image.shape}")
        if image.requires_grad:
            raise DimensionError("the stem differentiates no image; pass one without requires_grad")
        factor = self.config.downsample_factor
        h, w = image.shape[:2]
        if h % factor or w % factor:
            raise DimensionError(
                f"image extents {(h, w)} not divisible by downsample factor {factor}")
        if h // factor < 1 or w // factor < 1:
            raise DimensionError(f"image {(h, w)} too small for downsample factor {factor}")
        check_pixels(image.data)

        c = self.config
        x = conv2d(image, self.params["stem.kernel"], stride=c.stem_stride,
                   padding=c.stem_kernel // 2)
        # fl(x + b) and relu are monotone, so pooling first is exact and rectifies 1/4 the cells
        x = bias_relu(pool2d(x, "max"), _per_channel(self.params["stem.bias"]))
        for block in range(BLOCKS):
            x = dense_block(x, self._block_layers(block))
            if block < BLOCKS - 1:
                x = transition(x, self.params[f"trans{block}.kernel"],
                               self.params[f"trans{block}.bias"])
        return FeatureGrid(features=_channels_last(x))
