"""Densely connected convolutional feature extractor.

A page (``data.check_page``: H x W x 1, values in [0, 1], dark ink mapped
high) is reduced to a coarse feature grid: a stem convolution with max
pooling, then the three dense blocks of DenseWAP joined by two transition
layers. ``encode`` takes a page of any extents: it pads the bottom and
right with background 0 up to multiples of the downsample factor, so the
factor is known only here.
Convolution is cross-correlation (no kernel flip). Every map inside the
encoder is channel-major, C x H x W, as in DenseWAP: a channel prefix and
every row of a shifted 3x3 tap are contiguous runs of memory. ``encode``
hands the decoder the H x W x C grid through one transposed copy of the
last block's output.

The stem is fixed, 3x3 at stride 1 (``conv2d`` keeps a ``stride``, which
``bench/spans.py`` passes by keyword; it wraps ``conv2d`` and ``pool2d`` by
name, so ``stem`` calls both by module name). The page is a constant, so
only the stem's kernel and bias are differentiated. The stem never builds
its full convolution map: it folds the four 2x2 window corners one at a
time, each corner's map one product of the flattened kernel with the
padded page's kh*kw shifted planes at twice the stride, into the running
max. Inside a dense block every layer sees the channel-concatenation of
all previous outputs; a 1x1 bottleneck (4x the growth rate) precedes each
3x3 convolution, which runs as three products, one per kernel row.

Each stage writes its result where the next one reads it. ``encode``
allocates each block's output buffer: the stem pools straight into block
0's first channels, and a transition's pooled map is copied into the next
block's once the transition's full-size map is gone. A block's 1x1
bottleneck is written straight into one flat scratch per block, each
channel (h+2)*w + 2 values with a zero row above and below the map and a
zero at each end, which the 3x3's kernel-row products read in place.

Each stage is one graph node: ``stem`` (convolution, 2x2 max pool, bias
and ReLU), ``dense_block``, and ``transition`` (a 1x1 convolution that
halves the channels, bias, ReLU and 2x2 average pool); from an initial 48,
a block adds depth * growth_rate channels and a transition keeps
floor(channels / 2). Pooling windows are 2x2 at stride 2 over a map's
trailing two axes; a trailing odd row or column is dropped, and a max-pool
tie goes to the first corner in row-major order. Max-pooling before bias
and ReLU is exact: ``fl(x + b)`` and ReLU are monotone, so
``max(relu(x + b)) == relu(max(x) + b)`` bit for bit, and bias and ReLU
run on a quarter-size grid. No batch normalization: runs are
bit-deterministic.

A recorded node keeps only what its vjp reads, besides its output (the
stem's is a view of block 0's buffer): the stem keeps the padded page and
a one-byte index of each window's max corner, a dense block its layers'
bottlenecks in one stacked array, and a transition one byte per pre-pool
cell, the sign of its rectified map.
Under ``no_grad`` none of these is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import DimensionError, Tensor, _record, _recording
from .data import check_page, check_size, seeded_rng

BLOCKS = 3  # dense blocks; a transition follows every block but the last
STEM_KERNEL, STEM_STRIDE = 3, 1  # the stem's odd kernel extent and its stride


@dataclass(frozen=True)
class EncoderConfig:
    growth_rate: int
    block_depth: int
    initial_channels: int = 48

    def __post_init__(self):
        for name, minimum in (("growth_rate", 1), ("block_depth", 0), ("initial_channels", 1)):
            check_size(name, getattr(self, name), minimum)

    @property
    def downsample_factor(self) -> int:
        """Input pixels per feature cell along each axis."""
        return STEM_STRIDE * 2 ** BLOCKS

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


def _taps(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """A padded page's (kh*kw) x (Ho*Wo) stack of shifted pixels, one row per kernel tap."""
    windows = sliding_window_view(padded, (kh, kw))[::stride, ::stride]
    return windows.transpose(2, 3, 0, 1).reshape(kh * kw, -1)


def conv2d(image: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlate an H x W x 1 page with a kh x kw x 1 x Cout kernel: the stem's product.

    The page, zero-padded when ``padding`` is positive and read in place
    when it is 0, is cut into its tap stack (``_taps``), and the transposed
    kernel maps that stack to the Cout x Ho x Wo output in one product. The
    stem passes one window corner's cut of its padded page at a time, at
    twice its stride and without padding, so the output is that corner's map.
    """
    kh, kw, _, cout = kernel.shape
    padded = np.pad(image[:, :, 0], padding) if padding else image[:, :, 0]
    ho, wo = (padded.shape[0] - kh) // stride + 1, (padded.shape[1] - kw) // stride + 1
    return (kernel.reshape(kh * kw, cout).T @ _taps(padded, kh, kw, stride)).reshape(cout, ho, wo)


def _conv3x3(scratch: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> None:
    """Write a 3x3 convolution (pad 1) of a flat bottleneck scratch into ``out``.

    ``scratch`` holds each of the B bottleneck channels as (h+2)*w + 2
    values: a zero, a zero row, the h x w map row by row, a zero row and a
    zero. ``kernel`` is 3 x 3 x B x G and ``out`` the G x h x w output.
    Output pixel (u, v) reads scratch value ``u*w + v + i*w + j`` at tap
    (i, j). So kernel row i is one (3G x B) product over the h*w + 2
    columns from ``i*w``, and its j-th G rows, shifted by j columns, are tap
    (i, j). At the map's side edges that read wraps into the neighbouring
    row, where the zero padding belongs, so tap j = 0's column v = 0 and
    tap j = 2's column v = w - 1 are zeroed in the product. The taps are
    added in row-major order, each in one pass over ``out``.
    """
    g, h, w = out.shape
    n = h * w
    product = np.empty((3 * g, n + 2))
    for i in range(3):
        np.matmul(kernel[i].transpose(0, 2, 1).reshape(3 * g, -1), scratch[:, i * w:i * w + n + 2],
                  out=product)
        left, centre, right = (product[j * g:(j + 1) * g, j:j + n].reshape(g, h, w)
                               for j in range(3))
        left[:, :, 0] = right[:, :, w - 1] = 0.0  # reads wrapped into the neighbouring row
        if i == 0:
            np.copyto(out, left)
        else:
            out += left
        out += centre
        out += right


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


def dense_block(x: Tensor, layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                buf: np.ndarray) -> Tensor:
    """A DenseNet block over a C0 x H x W input, recorded as one graph node.

    ``layers`` holds one ``(reduce_kernel, reduce_bias, conv_kernel,
    conv_bias)`` tuple per layer: a 1 x 1 x C_l x B kernel with B biases,
    then a 3 x 3 x B x G kernel (pad 1) with G biases, where C_l is the
    channel count the layer sees. Layer l computes
    ``relu(conv3x3(relu(conv1x1(prefix) + rb)) + cb)`` from the first C_l
    channels and appends its G channels, so the output has the input's
    extents and C0 + sum(G) channels. An empty list returns ``x`` itself.

    The caller allocates the output: ``buf`` is the (C0 + sum(G)) x H x W
    buffer whose first C0 channels already hold ``x``, and the block fills
    the rest, so a layer's channel prefix is one contiguous C_l x (H*W)
    slab and its 1x1 convolution one product over it; nothing is
    concatenated or copied in. That product writes straight into the
    interior of one flat, zero-bordered bottleneck scratch, where bias and
    ReLU run in place, and the 3x3 convolution reads it there as three
    products, one per kernel row (``_conv3x3``), so no im2col buffer is
    built. When recording, the node holds the output buffer and one
    depth x B x (H*W) stack of copies of the layers' bottleneck activations,
    which grows linearly with depth where a graph of per-layer
    concatenations grows quadratically; without recording nothing is kept
    per layer. The node's one vjp is a reverse sweep that reads the
    incoming gradient in place and gives the input's and every parameter's
    gradient. It pulls each layer's output gradient: its slab of the
    incoming gradient plus one product of the later layers' stacked 1x1
    kernel rows for that slab with their stacked bottleneck gradients. It
    cuts that gradient into one (9*G) x (H*W) matrix of 3x3 windows, so the
    3x3 kernel gradient and the bottleneck gradient are one product each;
    the bottleneck gradient overwrites that layer's kept bottleneck. The
    input's gradient is pulled the same way, as one product over every
    layer's bottleneck gradient.
    """
    if not layers:
        return x
    c0, h, w = x.data.shape
    starts = list(accumulate((cb.data.size for *_, cb in layers), initial=c0))
    params = [p for layer in layers for p in layer]
    cells, ctot, depth = h * w, starts[-1], len(layers)
    if buf.shape != (ctot, h, w):
        raise DimensionError(f"dense block buffer must be {(ctot, h, w)}, got {buf.shape}")
    rows = buf.reshape(ctot, cells)
    b = layers[0][0].data.shape[3]
    kept = np.empty((depth, b, cells)) if _recording(x, *params) else None
    scratch = np.zeros((b, (h + 2) * w + 2))
    interior = scratch[:, w + 1:w + 1 + cells]
    for i, ((rk, rb, ck, cb), c, end) in enumerate(zip(layers, starts, starts[1:])):
        np.matmul(rk.data[0, 0].T, rows[:c], out=interior)
        # bias and ReLU over whole rows, then the borders zeroed again: numpy
        # may copy a strided operand that is updated in place
        scratch += rb.data[:, None]
        np.maximum(scratch, 0.0, out=scratch)
        scratch[:, :w + 1] = scratch[:, w + 1 + cells:] = 0.0
        if kept is not None:
            kept[i] = interior
        grown = buf[c:end]
        _conv3x3(scratch, ck.data, grown)
        grown += cb.data[:, None, None]
        np.maximum(grown, 0.0, out=grown)

    def sweep(g):
        """Input gradient, then each parameter's, in ``params`` order."""
        g = g.reshape(ctot, cells)  # read-only (``backward`` locks it); nothing writes into it

        def pulled(channels: slice, first: int) -> np.ndarray:
            """``g[channels]`` plus what layers ``first``.. send those channels through their 1x1s."""
            if first == depth:
                return np.array(g[channels])
            kernels = np.concatenate([rk.data[0, 0, channels] for rk, *_ in layers[first:]], axis=1)
            total = kernels @ kept[first:].reshape(-1, cells)
            total += g[channels]
            return total

        dparams = []
        for i in reversed(range(depth)):
            (rk, rb, ck, cb), c, end = layers[i], starts[i], starts[i + 1]
            bottleneck, growth = kept[i], end - c
            dgrown = pulled(slice(c, end), i + 1)
            dgrown *= rows[c:end] > 0.0
            patches = _gradient_patches(dgrown.reshape(growth, h, w))
            dkernel = (bottleneck @ patches.T).reshape(b, 3, 3, growth).transpose(1, 2, 0, 3)
            active = bottleneck > 0.0
            flipped = ck.data[::-1, ::-1].transpose(2, 0, 1, 3).reshape(b, 9 * growth)
            dreduced = np.matmul(flipped, patches, out=bottleneck)
            dreduced *= active
            dparams[:0] = [(rows[:c] @ dreduced.T).reshape(rk.data.shape),
                           dreduced.sum(axis=1), dkernel[::-1, ::-1], dgrown.sum(axis=1)]
            del patches  # before the next layer's windows exist
        return [pulled(slice(0, c0), 0).reshape(c0, h, w), *dparams]

    return _record(buf, (x, *params), sweep)


def _channels_last(x: Tensor) -> Tensor:
    """A C x H x W map as the H x W x C grid the decoder reads: one transposed copy."""
    return _record(x.data.transpose(1, 2, 0), (x,), lambda g: (g.transpose(2, 0, 1),))


def _window_corners(x: np.ndarray) -> list[tuple[slice, slice, slice]]:
    """The corners of a C x H x W map's 2x2 windows at stride 2, in row-major scan order."""
    if x.ndim != 3:
        raise DimensionError(f"pooling expects a C x H x W input, got {x.shape}")
    ho, wo = x.shape[1] // 2, x.shape[2] // 2
    if ho < 1 or wo < 1:
        raise DimensionError(f"pooling needs extents >= 2, got {x.shape[1:]}")
    return [(slice(None), slice(i, 2 * ho, 2), slice(j, 2 * wo, 2)) for i in (0, 1) for j in (0, 1)]


def pool2d(corner: np.ndarray, out: np.ndarray, n: int, first: np.ndarray | None) -> None:
    """Fold window corner ``n``'s map into the running 2x2 window max ``out``, in place.

    Corner 0 is copied in; a later corner replaces a cell only where it is
    strictly greater. Where it does, ``first``, unless it is None, is set
    to ``n``, so it names each window's first max corner in the row-major
    scan order of ``_window_corners``.
    """
    if n == 0:
        np.copyto(out, corner)
        return
    if first is not None:
        np.copyto(first, n, where=corner > out)
    np.maximum(out, corner, out=out)


def stem(page: np.ndarray, kernel: Tensor, bias: Tensor, out: np.ndarray) -> Tensor:
    """``relu(maxpool(conv(page, kernel)) + bias)`` of a constant H x W x 1 page as one node.

    The result is written into ``out``, the first channels of block 0's
    buffer, and the convolution map is never built. The page is padded once;
    for each 2x2 window corner, in row-major order, ``conv2d`` convolves
    the padded page cut at that corner's offset at twice the stem's stride,
    which gives that corner's Cout x Ho x Wo map alone, and ``pool2d`` folds
    it into ``out``. A trailing odd row or column of the convolution is
    never computed. Bias and ReLU then go in place on the pooled map. A
    recorded stem keeps the padded page and, per output cell, one byte
    that names the window's first max corner. Its vjp takes the kernel's
    gradient as four corner products: each corner's tap stack, cut again
    from the padded page, times the masked gradient where the byte names
    that corner.
    """
    kh, kw, _, cout = kernel.shape
    stride = 2 * STEM_STRIDE
    padded = np.pad(page[:, :, 0], STEM_KERNEL // 2)
    hc, wc = ((extent - k) // STEM_STRIDE + 1 for extent, k in zip(padded.shape, (kh, kw)))
    if hc < 2 or wc < 2:
        raise DimensionError(f"pooling needs extents >= 2, got {(hc, wc)}")
    ho, wo = hc // 2, wc // 2
    if out.shape != (cout, ho, wo):
        raise DimensionError(f"stem output must be {(cout, ho, wo)}, got {out.shape}")
    cuts = [padded[i * STEM_STRIDE:i * STEM_STRIDE + (ho - 1) * stride + kh,
                   j * STEM_STRIDE:j * STEM_STRIDE + (wo - 1) * stride + kw]
            for i in (0, 1) for j in (0, 1)]
    first = np.zeros(out.shape, np.uint8) if _recording(kernel, bias) else None
    for n, cut in enumerate(cuts):
        pool2d(conv2d(cut[:, :, None], kernel.data, stride=stride, padding=0), out, n, first)
    out += bias.data[:, None, None]
    np.maximum(out, 0.0, out=out)

    def vjp(g):
        masked = g * (out > 0.0)
        routed = (np.where(first == n, masked, 0.0).reshape(cout, -1) for n in range(len(cuts)))
        dkernel = sum(_taps(cut, kh, kw, stride) @ r.T for cut, r in zip(cuts, routed))
        return dkernel.reshape(kernel.shape), masked.sum(axis=1).sum(axis=1)

    return _record(out, (kernel, bias), vjp)


def transition(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """``avgpool(relu(conv1x1(x) + bias))`` of a Cin x H x W map as one node.

    The 1x1 convolution is one ``kernel.T @ x`` product, rectified in place.
    A recorded transition keeps one byte per cell of that map, its sign,
    and not the map. The vjp writes each corner's share g/4, masked by that
    sign, into a zeroed map, and takes the input's and the kernel's
    gradients as one product each.
    """
    corners = _window_corners(x.data)
    cin, h, w = x.data.shape
    k = kernel.data.reshape(cin, -1)
    cells = x.data.reshape(cin, h * w)
    rectified = (k.T @ cells).reshape(-1, h, w)
    rectified += bias.data[:, None, None]
    np.maximum(rectified, 0.0, out=rectified)
    active = rectified > 0.0 if _recording(x, kernel, bias) else None

    def vjp(g):
        masked, share = np.zeros(active.shape), g / 4
        for corner in corners:
            np.multiply(share, active[corner], out=masked[corner])
        rows = masked.reshape(-1, h * w)
        return ((k @ rows).reshape(x.data.shape), (cells @ rows.T).reshape(kernel.data.shape),
                masked.sum(axis=1).sum(axis=1))

    c00, c01, c10, c11 = (rectified[corner] for corner in corners)
    return _record((c00 + c01 + c10 + c11) / 4, (x, kernel, bias), vjp)


class DenseEncoder:
    """Weight-bearing encoder; parameters live in an ordered name->Tensor map."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = seeded_rng(seed, 0xE0C)
        c = config

        def add_conv(name, kh, kw, cin, cout):
            self.params[f"{name}.kernel"] = Tensor(
                _uniform(rng, (kh, kw, cin, cout), kh * kw * cin), requires_grad=True)
            self.params[f"{name}.bias"] = Tensor(np.zeros(cout), requires_grad=True)

        plan = c.channel_plan()  # block b: plan[2b] -> plan[2b+1]; trans b: -> plan[2b+2]
        add_conv("stem", STEM_KERNEL, STEM_KERNEL, 1, plan[0])
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

    def encode(self, image: np.ndarray) -> FeatureGrid:
        """Extract the H x W x C feature grid from one page (``data.check_page``).

        A page whose extents are not multiples of the downsample factor is
        padded at the bottom and right with background 0 first. The page is a
        constant: the stem differentiates only its kernel and bias.
        """
        page = check_page(image)
        factor = self.config.downsample_factor
        h, w = page.shape[:2]
        if h % factor or w % factor:
            page = np.pad(page, ((0, -h % factor), (0, -w % factor), (0, 0)))
            h, w = page.shape[:2]

        plan = self.config.channel_plan()  # block b's buffer: plan[2b] in, plan[2b+1] out
        buf = np.empty((plan[1], h // (2 * STEM_STRIDE), w // (2 * STEM_STRIDE)))
        x = stem(page, self.params["stem.kernel"], self.params["stem.bias"], buf[:plan[0]])
        for block in range(BLOCKS):
            x = dense_block(x, self._block_layers(block), buf)
            if block < BLOCKS - 1:
                x = transition(x, self.params[f"trans{block}.kernel"],
                               self.params[f"trans{block}.bias"])
                buf = np.empty((plan[2 * block + 3], *x.shape[1:]))  # the full-size map is freed
                buf[:plan[2 * block + 2]] = x.data
        return FeatureGrid(features=_channels_last(x))
