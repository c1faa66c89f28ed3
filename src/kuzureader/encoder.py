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
its full convolution map: band by band, it folds the four 2x2 window
corners one at a time, each corner's map one product of the flattened
kernel with the padded page's kh*kw shifted planes at twice the stride,
into the running max. Inside a dense block every layer sees the
channel-concatenation of all previous outputs; a 1x1 bottleneck (4x the
growth rate) precedes each 3x3 convolution, which runs as three products,
one per kernel row.

``encode`` alone decides shapes: it pads the page and sizes every buffer
from ``channel_plan()``, and a stage reads its extents from the arrays it
is handed. Each stage writes where the next one reads: the stem pools
straight into block 0's first channels, and a transition's pooled map is
copied into the next block's buffer, allocated only once the previous
one is released (unless a recorded graph holds it). Every stage runs in
horizontal bands of ``BAND_ROWS`` rows of its map, and a map no taller is
one band, so besides the buffers a read holds one band's transients at
any page height: one band of a stem corner's convolution map, a dense
block's flat bottleneck scratch and one 3x3 kernel-row product, or one
band of a transition's rectified map. A block's 1x1 bottleneck is written
straight into its scratch, each channel (band+2)*w + 2 values: a zero,
the band's rows with the row above and the row below (zero rows at the
map's edges) and a zero, which the 3x3's kernel-row products read in
place.

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
a one-byte index of each window's max corner, and a transition one byte
per pre-pool cell, the sign of its rectified map. A dense block keeps its
output alone, so its recorded forward is the unrecorded one: its sweep
recomputes each band's bottlenecks from the output's channel prefixes.
Under ``no_grad`` none of these is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, _record, _recording
from .data import check_page, check_size, seeded_rng

BLOCKS = 3  # dense blocks; a transition follows every block but the last
STEM_KERNEL, STEM_STRIDE = 3, 1  # the stem's odd kernel extent and its stride
# map rows a stage computes at once, and a dense block's backward sweep too;
# even, so a transition's band holds whole pooling windows. Fewer rows hold
# less memory but cost time per band
BAND_ROWS = 64


@dataclass(frozen=True)
class EncoderConfig:
    growth_rate: int
    block_depth: int
    initial_channels: int = 48

    def __post_init__(self):
        for name, minimum in (("growth_rate", 1), ("block_depth", 1), ("initial_channels", 1)):
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


def _bands(h: int) -> list[tuple[int, int]]:
    """Each band's ``(start, stop)`` rows of an h-row map: ``BAND_ROWS`` rows, the last maybe fewer."""
    return [(r, min(r + BAND_ROWS, h)) for r in range(0, h, BAND_ROWS)]


def _taps(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """A padded C x Hp x Wp map's (kh*kw*C) x (Ho*Wo) stack of shifted windows.

    Row ``(i*kw + j)*C + c`` of output cell (u, v) holds
    ``padded[c, u*stride + i, v*stride + j]``: tap (i, j)'s window of channel
    c. ``conv2d`` and the stem's vjp pass a one-channel page, one row a tap in
    row-major order; the dense sweep passes a G-channel gradient, G rows a tap.
    """
    windows = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return windows.transpose(3, 4, 0, 1, 2).reshape(kh * kw * padded.shape[0], -1)


def conv2d(image: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlate an H x W x 1 page with a kh x kw x 1 x Cout kernel: the stem's product.

    The page, zero-padded when ``padding`` is positive and read in place
    when it is 0, is cut into its tap stack (``_taps``), and the transposed
    kernel maps that stack to the Cout x Ho x Wo output in one product. The
    stem passes one band of one window corner's cut of its padded page at a
    time, at twice its stride and without padding, so the output is that
    band of that corner's map.
    """
    kh, kw, _, cout = kernel.shape
    padded = np.pad(image[:, :, 0], padding) if padding else image[:, :, 0]
    ho, wo = (padded.shape[0] - kh) // stride + 1, (padded.shape[1] - kw) // stride + 1
    return (kernel.reshape(kh * kw, cout).T @ _taps(padded[None], kh, kw, stride)).reshape(cout, ho, wo)


def _conv3x3(scratch: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> None:
    """Write a 3x3 convolution (pad 1) of a flat bottleneck scratch into ``out``.

    ``scratch`` starts each of the B bottleneck channels with (h+2)*w + 2
    values: a zero, the row above (a zero row at the map's top edge), the
    h x w rows, the row below (zero at the bottom edge) and a zero; later
    values are not read. ``kernel`` is 3 x 3 x B x G and ``out`` the
    G x h x w output, which may be a band of a taller map's rows.
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


def dense_block(x: Tensor, layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                buf: np.ndarray) -> Tensor:
    """A DenseNet block over a C0 x H x W input, recorded as one graph node.

    ``layers`` holds one ``(reduce_kernel, reduce_bias, conv_kernel,
    conv_bias)`` tuple per layer: a 1 x 1 x C_l x B kernel with B biases,
    then a 3 x 3 x B x G kernel (pad 1) with G biases, where C_l is the
    channel count the layer sees. Layer l computes
    ``relu(conv3x3(relu(conv1x1(prefix) + rb)) + cb)`` from the first C_l
    channels and appends its G channels, so the output has the input's
    extents and C0 + sum(G) channels; a block has at least one layer.

    ``encode`` allocates the output: ``buf`` is the (C0 + sum(G)) x H x W
    buffer whose first C0 channels already hold ``x``, and the block fills
    the rest, so a layer's channel prefix is one contiguous C_l x (H*W) slab
    and its 1x1 convolution one product over it; nothing is concatenated or
    copied in. Each layer runs band by band (``BAND_ROWS`` rows): the 1x1
    product writes the band's rows, the row above and the row below straight
    into one band-sized, flat, zero-bordered bottleneck scratch, where bias
    and ReLU run in place. The 3x3 convolution reads the scratch there as
    three products, one per kernel row, each over one band (``_conv3x3``),
    so no im2col buffer or full-size scratch or product is built. Recorded
    or not, the block runs the same code and the node keeps only the output
    buffer, which it shares with the caller. The node's one vjp is a
    reverse sweep that gives the input's and every parameter's gradient.
    It adds every layer's 1x1 input gradient into one writable copy of the
    incoming gradient, so when the sweep reaches a layer, that copy's slab
    of the layer's channels is the layer's complete output gradient. Each
    layer goes band by band: the band's bottleneck is recomputed from the
    output's channel prefix (the 1x1 is pointwise, so no halo rows), and
    the band is cut from the padded, masked output gradient into one
    (9*G) x (band*W) stack of 3x3 windows (``_taps``), so the band's 3x3
    kernel gradient and bottleneck gradient are one product each, and its
    1x1 kernel gradient and input gradient one more each; parameter
    gradients are summed over the bands. The input's gradient is a copy of
    the first C0 channels of that gradient copy.
    """
    c0, h, w = x.data.shape
    starts = list(accumulate((cb.data.size for *_, cb in layers), initial=c0))
    params = [p for layer in layers for p in layer]
    cells, ctot = h * w, starts[-1]
    rows = buf.reshape(ctot, cells)
    b = layers[0][0].data.shape[3]
    band = min(BAND_ROWS, h)
    # a band's bottleneck rows r0 - 1 .. r1 from column 1, w values a row
    scratch = np.zeros((b, (band + 2) * w + 2))
    for (rk, rb, ck, cb), c, end in zip(layers, starts, starts[1:]):
        grown = buf[c:end]
        for r0, r1 in _bands(h):
            first, last = max(r0 - 1, 0), min(r1 + 1, h)  # the map rows the band's 3x3 reads
            fresh = slice(1 + (first - r0 + 1) * w, 1 + (last - r0 + 1) * w)
            np.matmul(rk.data[0, 0].T, rows[:c, first * w:last * w], out=scratch[:, fresh])
            # bias and ReLU over whole rows (numpy buffers a strided operand
            # that is updated in place); then every other value is zero, as
            # outside the map
            scratch += rb.data[:, None]
            np.maximum(scratch, 0.0, out=scratch)
            scratch[:, :fresh.start] = scratch[:, fresh.stop:] = 0.0
            _conv3x3(scratch, ck.data, grown[:, r0:r1])
        grown += cb.data[:, None, None]
        np.maximum(grown, 0.0, out=grown)

    def sweep(g):
        """Input gradient, then each parameter's, in ``params`` order."""
        grad = np.array(g.reshape(ctot, cells))  # each layer adds its prefix's gradient here
        dparams = []
        for (rk, rb, ck, cb), c, end in reversed(list(zip(layers, starts, starts[1:]))):
            growth, reduce = end - c, rk.data[0, 0]
            dgrown = grad[c:end]  # complete: only layers after this one read these channels
            dgrown *= rows[c:end] > 0.0
            padded = np.pad(dgrown.reshape(growth, h, w), ((0, 0), (1, 1), (1, 1)))
            flipped = ck.data[::-1, ::-1].transpose(2, 0, 1, 3).reshape(b, 9 * growth)
            dkernel, dreduce, dbias = 0.0, 0.0, 0.0
            for r0, r1 in _bands(h):
                cols = slice(r0 * w, r1 * w)
                # the 1x1 is pointwise, so the band's bottleneck needs no halo rows
                bottleneck = reduce.T @ rows[:c, cols]
                bottleneck += rb.data[:, None]
                np.maximum(bottleneck, 0.0, out=bottleneck)
                # window row (p*3 + q)*G + k of cell (a, b), dgrown[k, a + p - 1, b + q - 1],
                # reached bottleneck pixel (a, b) through kernel tap (2 - p, 2 - q), so
                # the flipped kernel maps the windows to the bottleneck gradient, and
                # the bottleneck maps them to the flipped kernel gradient
                patches = _taps(padded[:, r0:r1 + 2], 3, 3, 1)
                dkernel += bottleneck @ patches.T
                active = bottleneck > 0.0
                dreduced = np.matmul(flipped, patches, out=bottleneck)
                dreduced *= active
                del patches, active, bottleneck  # before the band's 1x1 input-gradient product
                dreduce += rows[:c, cols] @ dreduced.T
                dbias += dreduced.sum(axis=1)
                grad[:c, cols] += reduce @ dreduced
                del dreduced  # before the next band's bottleneck
            dkernel = dkernel.reshape(b, 3, 3, growth).transpose(1, 2, 0, 3)
            dparams[:0] = [dreduce.reshape(rk.data.shape), dbias, dkernel[::-1, ::-1],
                           dgrown.sum(axis=1)]
        return [np.array(grad[:c0]).reshape(c0, h, w), *dparams]

    return _record(buf, (x, *params), sweep)


def _channels_last(x: Tensor) -> Tensor:
    """A C x H x W map as the H x W x C grid the decoder reads: one transposed copy."""
    return _record(x.data.transpose(1, 2, 0), (x,), lambda g: (g.transpose(2, 0, 1),))


def _window_corners(x: np.ndarray) -> list[tuple[slice, slice, slice]]:
    """A C x H x W map's 2x2 window corners at stride 2, row-major; ``encode`` makes H, W >= 2."""
    ho, wo = x.shape[1] // 2, x.shape[2] // 2
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

    The result is written into ``out``, block 0's first channels, whose
    shape ``encode`` sets; the page is padded once, by half the kernel's
    extent, and the convolution map is never built. For each band of
    ``BAND_ROWS`` output rows and each 2x2 window corner, in row-major
    order, ``conv2d`` convolves the padded page cut at that corner's offset
    and the band's rows at twice the stem's stride, which gives that band of
    that corner's map alone, and ``pool2d`` folds it into ``out``. A
    trailing odd row or column of the convolution is never computed. Bias
    and ReLU then go in place on the pooled map. A recorded stem keeps the
    padded page and, per output cell, one byte that names the window's first
    max corner. Its vjp takes the kernel's gradient as four corner products:
    each corner's tap stack, cut again from the padded page, times the
    masked gradient where the byte names that corner.
    """
    kh, kw = kernel.shape[:2]
    cout, ho, wo = out.shape
    stride = 2 * STEM_STRIDE
    padded = np.pad(page[:, :, 0], kh // 2)
    cuts = [padded[i * STEM_STRIDE:i * STEM_STRIDE + (ho - 1) * stride + kh,
                   j * STEM_STRIDE:j * STEM_STRIDE + (wo - 1) * stride + kw]
            for i in (0, 1) for j in (0, 1)]
    first = np.zeros(out.shape, np.uint8) if _recording(kernel, bias) else None
    for r0, r1 in _bands(ho):
        for n, cut in enumerate(cuts):
            rows = cut[r0 * stride:(r1 - 1) * stride + kh, :, None]
            pool2d(conv2d(rows, kernel.data, stride=stride, padding=0), out[:, r0:r1], n,
                   None if first is None else first[:, r0:r1])
    out += bias.data[:, None, None]
    np.maximum(out, 0.0, out=out)

    def vjp(g):
        masked = g * (out > 0.0)
        routed = (np.where(first == n, masked, 0.0).reshape(cout, -1) for n in range(len(cuts)))
        dkernel = sum(_taps(cut[None], kh, kw, stride) @ r.T for cut, r in zip(cuts, routed))
        return dkernel.reshape(kernel.shape), masked.sum(axis=1).sum(axis=1)

    return _record(out, (kernel, bias), vjp)


def transition(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """``avgpool(relu(conv1x1(x) + bias))`` of a Cin x H x W map as one node.

    The 1x1 convolution runs one band of ``BAND_ROWS`` rows (whole row
    pairs) at a time: a ``kernel.T @ x`` product written into one band-sized
    array, rectified in place and averaged over its 2x2 windows straight
    into the output, so the full rectified map never exists. A recorded
    transition keeps one byte per cell of that map, its sign, filled band by
    band, and not the map. The vjp writes each corner's share g/4, masked by
    that sign, into a zeroed map, and takes the input's and the kernel's
    gradients as one product each.
    """
    corners = _window_corners(x.data)
    cin, h, w = x.data.shape
    k = kernel.data.reshape(cin, -1)
    cout, paired = k.shape[1], h // 2 * 2  # a trailing odd row is dropped
    cells = x.data.reshape(cin, h * w)
    out = np.empty((cout, h // 2, w // 2))
    active = np.zeros((cout, h, w), bool) if _recording(x, kernel, bias) else None
    band = np.empty((cout, min(BAND_ROWS, paired) * w))
    for r0, r1 in _bands(paired):
        rectified = band[:, :(r1 - r0) * w]
        np.matmul(k.T, cells[:, r0 * w:r1 * w], out=rectified)
        rectified += bias.data[:, None]
        np.maximum(rectified, 0.0, out=rectified)
        rectified = rectified.reshape(cout, r1 - r0, w)
        if active is not None:
            np.greater(rectified, 0.0, out=active[:, r0:r1])
        c00, c01, c10, c11 = (rectified[corner] for corner in _window_corners(rectified))
        pooled = out[:, r0 // 2:r1 // 2]
        np.add(c00, c01, out=pooled)
        pooled += c10
        pooled += c11
        pooled /= 4

    def vjp(g):
        masked, share = np.zeros(active.shape), g / 4
        for corner in corners:
            np.multiply(share, active[corner], out=masked[corner])
        rows = masked.reshape(-1, h * w)
        return ((k @ rows).reshape(x.data.shape), (cells @ rows.T).reshape(kernel.data.shape),
                masked.sum(axis=1).sum(axis=1))

    return _record(out, (x, kernel, bias), vjp)


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
                del buf  # unless recorded, block b's buffer goes before block b+1's exists
                buf = np.empty((plan[2 * block + 3], *x.shape[1:]))
                buf[:plan[2 * block + 2]] = x.data
        return FeatureGrid(features=_channels_last(x))
