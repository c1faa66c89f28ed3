"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation hands ``_record`` its result and one edge per
differentiable input: the input tensor and a vector-Jacobian product
(vjp) that maps the result's gradient to that input's gradient.
``_record`` keeps only the edges whose input requires a gradient, and none
inside ``no_grad`` (per thread), so a constant input is never
differentiated. ``backward`` replays the reachable part of the graph
exactly once, children before parents, and is the only place that
accumulates gradients into ``Tensor.grad``. It frees the graph as it
sweeps: each interior node gives up its gradient and its edges (with the
forward buffers their vjps hold) as soon as the sweep reaches it.

Conventions, fixed once for the whole package:

* buffers are row-major ``numpy`` float64 arrays;
* images and feature grids are laid out height x width x channels;
* convolution is cross-correlation (no kernel flip);
* pooling (``pool2d``) is a fixed 2x2 window at stride 2, and max-pool
  ties break toward the first corner in row-major scan order;
* ``backward`` frees the graph it sweeps. Leaves keep their ``grad``
  (accumulated across sweeps until ``zero_grads``); an interior node's
  ``grad`` is not readable afterwards. A later sweep that reaches a freed
  node -- the same root again, or another root built on part of the
  swept graph -- raises ``RuntimeError``: re-run the forward pass instead;
* every ``grad`` array is read-only: a first gradient is adopted without
  a copy, so two tensors may share one array (after
  ``backward(sum_all(x + y))``, ``x.grad is y.grad``), and writing into
  one raises ``ValueError`` instead of changing the other. Update a
  gradient out of place or on a copy;
* runs are bit-identical for a fixed BLAS thread count. The thread count
  can change how a product's sums are split, so gradients of the same
  seed may differ in their last bits between thread counts; compare
  outputs byte for byte with ``OPENBLAS_NUM_THREADS=1``.

The only convolution here is inside ``dense_block``; the encoder's stem
and transitions are matrix products over fixed rows (see ``encoder``).

``dense_block`` records a whole DenseNet block as one node. Its layers
write into one preallocated H x W x C_total buffer, and each reads its
channel prefix as a strided view, so no layer copies the running feature
map. Its 3x3 convolutions are nine shifted matrix products over the
flattened, zero-padded bottleneck, so no im2col buffer is built. For
backward the node holds only that buffer and each layer's
zero-padded bottleneck activation, which grows linearly with depth where a
graph of per-layer concatenations grows quadratically; under ``no_grad`` it
holds nothing per layer and reuses one scratch pad.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible, or a size or setting is out of range.

    Raised by the ops on mismatched shapes, by the model and generator
    settings on invalid sizes, by a decode step past ``max_decode_len``, and
    by ``encode`` on an image that requires a gradient.
    """


class NumericError(ArithmeticError):
    """A value is non-finite or outside its valid range.

    Raised when a computation, an input image or a loaded parameter holds a
    non-finite value, and when ``encode`` or ``write_pgm`` gets a pixel
    outside [0, 1].
    """


class DatasetError(RuntimeError):
    """Stored or supplied content is malformed.

    Raised on a malformed dataset directory or graymap, a dataset image path
    outside the dataset root, a vocabulary that breaks the file format, a
    token or token index missing from the vocabulary, sample ids that cannot
    be split, and an empty evaluation.
    """


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)

Vjp = Callable[[np.ndarray], np.ndarray]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the ``with`` block (pure inference)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """An n-dimensional float64 array, optionally tracked by the graph."""

    __slots__ = ("data", "grad", "requires_grad", "_edges", "_freed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._edges: tuple[tuple[Tensor, Vjp], ...] = ()
        self._freed = False  # a backward sweep dropped this node's grad and edges

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar; all graph recording happens in the module functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(data: np.ndarray, *edges: tuple[Tensor, Vjp]) -> Tensor:
    """Wrap an op result, keeping the ``(input, vjp)`` edges whose input needs a gradient."""
    out = Tensor(data)
    if _grad_enabled.get():
        kept = tuple([edge for edge in edges if edge[0].requires_grad])
        if kept:
            out.requires_grad = True
            out._edges = kept
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad`` and make the stored array read-only."""
    g = g if t.grad is None else t.grad + g
    g.flags.writeable = False
    t.grad = g


def _per_gradient(fn: Vjp) -> Vjp:
    """``fn`` with a one-slot cache keyed on the gradient array's identity.

    A node's vjps all receive the same gradient array, so work they share
    (a mask, a padded copy) runs once per sweep. The slot holds the array
    itself, not its id, so the key cannot be recycled; it goes with the
    node's edges.
    """
    slot: list = [None, None]

    def cached(g: np.ndarray) -> np.ndarray:
        if slot[0] is not g:
            slot[:] = g, fn(g)
        return slot[1]
    return cached


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def execution_order(root: Tensor) -> list[Tensor]:
    """Each node reachable from ``root`` once, parents first (iterative post-order DFS)."""
    seen = {id(root)}
    nodes: list[Tensor] = []
    stack = [(root, iter(root._edges))]
    while stack:
        node, edges = stack[-1]
        for parent, _ in edges:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._edges)))
                break
        else:
            stack.pop()
            nodes.append(node)
    return nodes


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root that frees the graph behind it.

    Visits every recorded operation exactly once, children before
    parents. A node comes off the execution order as the sweep reaches it,
    and an interior node drops its ``grad`` and edges before its vjps run,
    so each gradient and forward buffer goes as soon as nothing later
    needs it. Leaves keep their gradients, which accumulate across graphs
    until ``zero_grads`` is called. A sweep that would reach a node an
    earlier sweep freed raises RuntimeError before touching any gradient.
    """
    if root.data.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        return
    nodes = execution_order(root)
    if any(node._freed for node in nodes):
        raise RuntimeError("backward already ran on (part of) this graph; "
                           "re-run the forward pass first")
    _accumulate(root, np.ones_like(root.data))
    while nodes:
        node = nodes.pop()  # every child has accumulated into node.grad
        if not node._edges:
            continue  # a leaf keeps its gradient
        g, edges = node.grad, node._edges
        node.grad, node._edges, node._freed = None, (), True
        for parent, vjp in edges:
            _accumulate(parent, vjp(g))


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(a.data + b.data,
                   (a, lambda g: _unbroadcast(g, a.data.shape)),
                   (b, lambda g: _unbroadcast(g, b.data.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record(-a.data, (a, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(a.data * b.data,
                   (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                   (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return _record(np.asarray(a.data.sum()), (a, lambda g: np.full_like(a.data, g.reshape(()))))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _record(y, (a, lambda g: g * (1.0 - y * y)))


def sigmoid(a) -> Tensor:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow."""
    a = _as_tensor(a)
    x = a.data
    with np.errstate(under="ignore"):  # exp(-|x|) below the subnormals is 0, the limit
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    y = np.where(x >= 0, 1.0 / d, e / d)
    return _record(y, (a, lambda g: g * y * (1.0 - y)))


def bias_relu(x, b) -> Tensor:
    """``relu(x + b)`` as one node, with ``b`` broadcast against ``x``.

    The sum is rectified in place, so no unrectified copy is kept.
    """
    x, b = _as_tensor(x), _as_tensor(b)
    y = x.data + b.data
    np.maximum(y, 0.0, out=y)
    masked = _per_gradient(lambda g: g * (y > 0.0))
    return _record(y,
                   (x, lambda g: _unbroadcast(masked(g), x.data.shape)),
                   (b, lambda g: _unbroadcast(masked(g), b.data.shape)))


def softmax_flat(a) -> Tensor:
    """Softmax over all entries, stabilized by max subtraction.

    The output keeps the input's shape; entries are non-negative and sum
    to one.
    """
    a = _as_tensor(a)
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()
    return _record(y, (a, lambda g: y * (g - (g * y).sum())))


def logsumexp(a) -> Tensor:
    """Scalar log(sum(exp(x))) over all entries, max-stabilized."""
    a = _as_tensor(a)
    m = a.data.max()
    e = np.exp(a.data - m)
    s = e.sum()
    return _record(np.asarray(m + np.log(s)), (a, lambda g: (e / s) * g.reshape(())))


def _scattered(like: np.ndarray, index, g: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with ``g`` written at ``index``."""
    z = np.zeros_like(like)
    z[index] = g
    return z


def pick(a, flat_index: int) -> Tensor:
    """Select one entry (row-major flat index) as a scalar tensor."""
    a = _as_tensor(a)
    flat_index = int(flat_index)
    if not 0 <= flat_index < a.data.size:
        raise DimensionError(f"pick index {flat_index} out of range for shape {a.shape}")
    index = np.unravel_index(flat_index, a.data.shape)
    return _record(np.asarray(a.data[index]), (a, lambda g: _scattered(a.data, index, g.reshape(()))))


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    return _record(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat needs at least one tensor")
    base = ts[0].data.shape
    for t in ts[1:]:
        other = t.data.shape
        if len(other) != len(base) or any(
                o != b for d, (o, b) in enumerate(zip(other, base)) if d != axis % len(base)):
            raise DimensionError(f"concat: shape {other} incompatible with {base} on axis {axis}")
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])
    lead = (slice(None),) * (axis % data.ndim)
    return _record(data, *[(t, lambda g, index=lead + (slice(start, stop),): g[index])
                           for t, start, stop in zip(ts, offsets[:-1], offsets[1:])])


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate H x W x C tensors along the channel axis."""
    ts = [_as_tensor(t) for t in tensors]
    for t in ts:
        if t.data.ndim != 3:
            raise DimensionError(f"concat_channels expects H x W x C tensors, got {t.shape}")
    spatial = {t.data.shape[:2] for t in ts}
    if len(spatial) > 1:
        raise DimensionError(f"concat_channels: mismatched spatial extents {sorted(spatial)}")
    return concat(ts, axis=2)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = _as_tensor(a)
    extent = a.data.shape[axis]
    if start < 0 or length < 0 or start + length > extent:
        raise DimensionError(f"narrow [{start}:{start + length}] out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    return _record(a.data[index].copy(), (a, lambda g: _scattered(a.data, index, g)))


# ---------------------------------------------------------------------------
# linear algebra and spatial ops


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    return _record(a.data @ b.data,
                   (a, lambda g: g @ b.data.T),
                   (b, lambda g: a.data.T @ g))


def _padded_rows(h: int, w: int, c: int) -> np.ndarray:
    """Zeros for an h x w x c grid padded by 1, flattened to rows.

    Row r is padded pixel (r // wp, r % wp); two trailing zero rows keep
    the last shifted product of a 3x3 kernel in range.
    """
    return np.zeros(((h + 2) * (w + 2) + 2, c))


def _interior(rows: np.ndarray, h: int, w: int) -> np.ndarray:
    """The h x w x c view of the unpadded pixels inside padded ``rows``."""
    return rows[:(h + 2) * (w + 2)].reshape(h + 2, w + 2, -1)[1:h + 1, 1:w + 1]


def _offsets(kernel_shape: tuple[int, ...], wp: int) -> list[tuple[int, int, int]]:
    return [(i, j, i * wp + j) for i in range(kernel_shape[0]) for j in range(kernel_shape[1])]


def _shifted_products(rows: np.ndarray, kernel: np.ndarray, wp: int, n: int) -> np.ndarray:
    """Stride-1 convolution at full padded width ``wp``: n x Cout.

    Output pixel (u, v) reads ``rows[u*wp + v + i*wp + j]`` at kernel
    offset (i, j), so each offset is one product over rows ``o:o + n``
    with ``o = i*wp + j``. Columns ``wo..wp-1`` of the result wrap into
    the next row; callers drop them.
    """
    wide = rows[:n] @ kernel[0, 0]
    for i, j, o in _offsets(kernel.shape, wp)[1:]:
        wide += rows[o:o + n] @ kernel[i, j]
    return wide


def _widen(g: np.ndarray, wp: int) -> np.ndarray:
    """An ho x wo x C gradient at full padded width (zero columns ``wo..wp-1``) as rows."""
    ho, wo, c = g.shape
    gw = np.zeros((ho, wp, c))
    gw[:, :wo] = g
    return gw.reshape(ho * wp, c)


def _shifted_drows(gw: np.ndarray, kernel: np.ndarray, wp: int, count: int) -> np.ndarray:
    """Gradient of ``_shifted_products`` with respect to its ``count`` input rows."""
    n = gw.shape[0]
    drows = np.empty((count, kernel.shape[2]))
    np.matmul(gw, kernel[0, 0].T, out=drows[:n])
    drows[n:] = 0.0
    for i, j, o in _offsets(kernel.shape, wp)[1:]:
        drows[o:o + n] += gw @ kernel[i, j].T
    return drows


def _shifted_dkernel(rows: np.ndarray, gw: np.ndarray, kernel_shape: tuple[int, ...],
                     wp: int) -> np.ndarray:
    """Gradient of ``_shifted_products`` with respect to its kernel."""
    n = gw.shape[0]
    dk = np.empty(kernel_shape)
    for i, j, o in _offsets(kernel_shape, wp):
        dk[i, j] = rows[o:o + n].T @ gw
    return dk


def dense_block(x, layers: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """A DenseNet block over an H x W x C0 input, recorded as one graph node.

    ``layers`` holds one ``(reduce_kernel, reduce_bias, conv_kernel,
    conv_bias)`` tuple per layer: a 1 x 1 x C_l x B kernel with B biases,
    then a 3 x 3 x B x G kernel (pad 1) with G biases, where C_l is the
    channel count the layer sees. Layer l computes
    ``relu(conv3x3(relu(conv1x1(prefix) + rb)) + cb)`` from the first C_l
    channels and appends its G channels, so the output has the input's
    extents and C0 + sum(G) channels. An empty list returns ``x`` itself.

    Every layer writes into one preallocated output buffer and reads its
    channel prefix as a view, so nothing is concatenated. The node holds
    that buffer and, when recording, each layer's padded bottleneck
    activation; one reverse sweep over a single gradient buffer serves
    every edge. Without recording, one scratch pad is reused and nothing
    is kept per layer.
    """
    x = _as_tensor(x)
    if not layers:
        return x
    if x.data.ndim != 3:
        raise DimensionError(f"dense_block expects an H x W x C input, got {x.shape}")
    h, w, c0 = x.data.shape
    starts = [c0]
    for rk, rb, ck, cb in layers:
        b, g = rb.data.size, cb.data.size
        if ((rk.data.shape, rb.data.shape, ck.data.shape, cb.data.shape)
                != ((1, 1, starts[-1], b), (b,), (3, 3, b, g), (g,))):
            raise DimensionError(
                f"dense_block layer {len(starts) - 1} on {starts[-1]} channels has kernels "
                f"{rk.shape}, {ck.shape} and biases {rb.shape}, {cb.shape}")
        starts.append(starts[-1] + g)
    params = [p for layer in layers for p in layer]
    cells, ctot, wp = h * w, starts[-1], w + 2
    buf = np.empty((h, w, ctot))
    buf[..., :c0] = x.data
    rows = buf.reshape(cells, ctot)
    recording = _grad_enabled.get() and any(t.requires_grad for t in (x, *params))
    pads: list[np.ndarray] = []
    for (rk, rb, ck, cb), c, end in zip(layers, starts, starts[1:]):
        reduced = rows[:, :c] @ rk.data[0, 0]
        reduced += rb.data
        np.maximum(reduced, 0.0, out=reduced)
        if recording or not pads:
            pads.append(_padded_rows(h, w, reduced.shape[1]))
        _interior(pads[-1], h, w)[...] = reduced.reshape(h, w, -1)
        del reduced  # the pad holds it now; keeps the no_grad peak at three bottlenecks
        wide = _shifted_products(pads[-1], ck.data, wp, h * wp)
        wide += cb.data
        np.maximum(wide, 0.0, out=wide)
        buf[..., c:end] = wide.reshape(h, wp, -1)[:, :w]
    if not recording:
        return Tensor(buf)

    @_per_gradient
    def sweep(g):
        """Input gradient, then each parameter's, in ``params`` order."""
        grad = np.array(g).reshape(cells, ctot)  # writable; layers add into its prefix
        dparams = []
        for (rk, rb, ck, cb), c, end, pad in reversed(list(zip(layers, starts, starts[1:], pads))):
            dgrown = grad[:, c:end] * (rows[:, c:end] > 0.0)
            gw = _widen(dgrown.reshape(h, w, -1), wp)
            dpad = _shifted_drows(gw, ck.data, wp, len(pad))
            active = _interior(pad, h, w) > 0.0
            dreduced = (_interior(dpad, h, w) * active).reshape(cells, -1)
            del dpad, active
            dparams[:0] = [(rows[:, :c].T @ dreduced).reshape(rk.data.shape),
                           dreduced.sum(axis=0),
                           _shifted_dkernel(pad, gw, ck.data.shape, wp),
                           dgrown.sum(axis=0)]
            grad[:, :c] += dreduced @ rk.data[0, 0].T
        return [grad[:, :c0].reshape(h, w, c0), *dparams]

    return _record(buf, *[(t, lambda g, k=k: sweep(g)[k]) for k, t in enumerate((x, *params))])


def pool2d(x, kind: str) -> Tensor:
    """Max or average pooling per channel over 2x2 windows at stride 2.

    The window is fixed: an H x W x C input gives H//2 x W//2 x C, and a
    trailing odd row or column is dropped. Max pooling routes the gradient
    to the first window corner, in row-major scan order, that holds the max.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise DimensionError(f"pool2d expects an H x W x C input, got {x.shape}")
    if kind not in ("max", "average"):
        raise DimensionError(f"pool2d kind must be 'max' or 'average', got {kind!r}")
    ho, wo = x.data.shape[0] // 2, x.data.shape[1] // 2
    if ho < 1 or wo < 1:
        raise DimensionError(f"pool2d needs extents >= 2, got {x.shape[:2]}")
    corners = [(slice(i, 2 * ho, 2), slice(j, 2 * wo, 2)) for i in (0, 1) for j in (0, 1)]
    c00, c01, c10, c11 = (x.data[corner] for corner in corners)

    if kind == "max":
        data = np.maximum(c00, c01)
        np.maximum(data, np.maximum(c10, c11), out=data)

        def vjp(g):
            dx = np.zeros_like(x.data)
            free = np.ones(data.shape, dtype=bool)  # windows whose max is not yet taken
            for corner in corners:
                hit = free & (x.data[corner] == data)
                np.copyto(dx[corner], g, where=hit)
                free &= ~hit
            return dx
    else:
        data = (c00 + c01 + c10 + c11) / 4

        def vjp(g):
            dx = np.zeros_like(x.data)
            share = g / 4
            for corner in corners:
                dx[corner] = share
            return dx

    return _record(data, (x, vjp))


# ---------------------------------------------------------------------------
# verification

GRAD_CHECK_EPSILON = 1e-5  # relative finite-difference step of grad_check


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``loss_fn`` must rebuild the graph and return a deterministic scalar.
    Each parameter entry is perturbed by eps_i = GRAD_CHECK_EPSILON * max(1, |x_i|);
    the relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-4) -- the floor keeps finite-difference roundoff on near-zero
    gradients from dominating the ratio. Returns the maximum over all
    entries. Intended for small models; cost is two forward passes per
    parameter entry.
    """
    zero_grads(params)
    loss = loss_fn()
    if not np.isfinite(loss.item()):
        raise NumericError(f"loss is not finite: {loss.item()}")
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    floor = 1e-4
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            eps = GRAD_CHECK_EPSILON * max(1.0, abs(original))
            with no_grad():
                flat[i] = original + eps
                f_plus = loss_fn().item()
                flat[i] = original - eps
                f_minus = loss_fn().item()
            flat[i] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"loss is not finite near parameter entry {i}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), floor)
            if err > worst:
                worst = err
    return worst
