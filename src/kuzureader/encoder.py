"""Densely connected convolutional feature extractor.

A document image (H x W x 1, values in [0, 1], dark ink mapped high) is
reduced to a coarse feature grid: a stem convolution with max pooling,
then the three dense blocks of DenseWAP joined by two transition layers.
The page is a constant, so the stem is one product of its kh*kw-pixel
patches with the flattened kernel, and only the kernel is differentiated.
Inside a dense block every layer sees the channel-concatenation of all
previous outputs; a 1x1 bottleneck (4x the growth rate) precedes each 3x3
convolution. Transitions halve the channel count with a 1x1 convolution
and 2x2 average pooling; that convolution only mixes channels, so it runs
as one matrix product over the grid's cells, with the H x W x C map viewed
as (H*W) x C rows.

Channel bookkeeping from an initial 48: a block adds depth * growth_rate
channels, a transition keeps floor(channels / 2). Each dense
block is one graph node (``autodiff.dense_block``): its layers fill one
preallocated channel buffer, and for backward it holds that buffer plus
each layer's padded bottleneck activation; under ``no_grad`` it holds
nothing per layer. The stem and transition convolutions take their bias
and rectifier from ``bias_relu`` as one graph node, so the unrectified sum
is never kept. The stem max-pools before that node, which is exact:
``fl(x + b)`` is monotone in ``x`` and ReLU is monotone, so
``max(relu(x + b)) == relu(max(x) + b)`` bit for bit; bias and ReLU then
run on a quarter-size grid instead of copying the largest map in the
model at full size. There is no batch normalization, which keeps runs
bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import DimensionError, Tensor, bias_relu, dense_block, matmul, pool2d, reshape
from .data import check_pixels

BLOCKS = 3  # dense blocks; a transition follows every block but the last


@dataclass(frozen=True)
class EncoderConfig:
    growth_rate: int
    block_depth: int
    initial_channels: int = 48
    stem_kernel: int = 3
    stem_stride: int = 1

    def __post_init__(self):
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
    """Encoder output: an H x W grid of feature vectors."""
    features: Tensor


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def conv2d(image: Tensor, kernel: Tensor, stride: int, padding: int) -> Tensor:
    """The stem: cross-correlate a constant H x W x 1 page with a kh x kw x 1 x Cout kernel.

    The zero-padded page is cut into one row of kh*kw pixels per output
    cell, and those (Ho*Wo) x (kh*kw) patches are multiplied by the kernel
    once. The page gets no gradient; backward keeps the patches.
    """
    kh, kw, _, cout = kernel.shape
    padded = np.pad(image.data[:, :, 0], padding)
    windows = sliding_window_view(padded, (kh, kw))[::stride, ::stride]
    ho, wo = windows.shape[:2]
    patches = Tensor(windows.reshape(ho * wo, kh * kw))
    return reshape(matmul(patches, reshape(kernel, (kh * kw, cout))), (ho, wo, cout))


def transition(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Compress channels with a 1x1 convolution, then 2x2 average pool.

    The convolution is one (H*W) x Cin by Cin x Cout product. It stays
    nested inside ``bias_relu`` so the pre-activation map is freed before
    pooling starts (a named local would keep it alive through ``pool2d``).
    """
    h, w, cin = x.shape
    cout = kernel.shape[3]
    return pool2d(bias_relu(reshape(matmul(reshape(x, (h * w, cin)), reshape(kernel, (cin, cout))),
                                    (h, w, cout)), bias), "average")


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
        """Extract the feature grid from one H x W x 1 image.

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
        x = bias_relu(pool2d(x, "max"), self.params["stem.bias"])
        for block in range(BLOCKS):
            x = dense_block(x, self._block_layers(block))
            if block < BLOCKS - 1:
                x = transition(x, self.params[f"trans{block}.kernel"],
                               self.params[f"trans{block}.bias"])
        return FeatureGrid(features=x)
