"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation that consumes a tensor requiring gradients records itself
onto an implicit graph of parent links, unless the current thread is inside
``no_grad``. ``backward`` replays the reachable part of that graph exactly
once, children before parents, accumulating gradients into ``Tensor.grad``.

Conventions, fixed once for the whole package:

* buffers are row-major ``numpy`` float64 arrays;
* images and feature grids are laid out height x width x channels;
* convolution is cross-correlation (no kernel flip);
* max-pool ties break toward the first index in scan order;
* calling ``backward`` twice on the same root is an error -- rebuild the
  graph (re-run the forward pass) instead;
* once an array has been passed to ``_accumulate``, nothing writes into
  it: a first gradient is adopted without a copy, so a ``grad`` may be a
  view of another tensor's gradient (a ``concat`` slice, say).

``conv2d`` picks one of two paths from the input's shape and the stride:

* stride 1 on a multi-channel input (every dense-block and transition
  convolution, 1x1 included): kh*kw shifted matrix products over the
  flattened, zero-padded input. No im2col buffer is built; backward keeps
  only the padded input, about 1/(kh*kw) of what im2col columns take.
* stride > 1, or a single input channel (the stem): im2col, one product
  over windowed columns. With one channel each shifted product has an
  inner extent of 1; on a 256 x 192 page the 3x3 stem took about three
  times as long that way as one im2col product with an inner extent of
  9, and its columns are small.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_ran = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar; all graph recording happens in the module functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result; attach graph links only when gradients are live."""
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``; nothing writes into ``g`` after this call."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


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
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                break
        else:
            stack.pop()
            nodes.append(node)
    return nodes


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root.

    Visits every recorded operation exactly once, children before
    parents. Running backward twice on the same root raises RuntimeError;
    gradients accumulate across graphs until ``zero_grads`` is called.
    """
    if root.data.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.shape}")
    if root._backward_ran:
        raise RuntimeError("backward already ran on this graph; re-run the forward pass first")
    root._backward_ran = True
    if not root.requires_grad:
        return
    nodes = execution_order(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(nodes):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _record(data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, -g)

    return _record(-a.data, (a,), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(data, (a, b), backward_fn)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, g.reshape(())))

    return _record(np.asarray(a.data.sum()), (a,), backward_fn)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - y * y))

    return _record(y, (a,), backward_fn)


def sigmoid(a) -> Tensor:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow."""
    a = _as_tensor(a)
    x = a.data
    with np.errstate(under="ignore"):  # exp(-|x|) below the subnormals is 0, the limit
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    y = np.where(x >= 0, 1.0 / d, e / d)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * y * (1.0 - y))

    return _record(y, (a,), backward_fn)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    y = np.maximum(a.data, 0.0)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0.0))

    return _record(y, (a,), backward_fn)


def softmax_flat(a) -> Tensor:
    """Softmax over all entries, stabilized by max subtraction.

    The output keeps the input's shape; entries are non-negative and sum
    to one.
    """
    a = _as_tensor(a)
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, y * (g - (g * y).sum()))

    return _record(y, (a,), backward_fn)


def logsumexp(a) -> Tensor:
    """Scalar log(sum(exp(x))) over all entries, max-stabilized."""
    a = _as_tensor(a)
    m = a.data.max()
    e = np.exp(a.data - m)
    s = e.sum()

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, (e / s) * g.reshape(()))

    return _record(np.asarray(m + np.log(s)), (a,), backward_fn)


def pick(a, flat_index: int) -> Tensor:
    """Select one entry (row-major flat index) as a scalar tensor."""
    a = _as_tensor(a)
    flat_index = int(flat_index)
    if not 0 <= flat_index < a.data.size:
        raise DimensionError(f"pick index {flat_index} out of range for shape {a.shape}")

    def backward_fn(g):
        if a.requires_grad:
            z = np.zeros_like(a.data)
            z.reshape(-1)[flat_index] = g.reshape(())
            _accumulate(a, z)

    return _record(np.asarray(a.data.reshape(-1)[flat_index]), (a,), backward_fn)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _record(a.data.reshape(shape), (a,), backward_fn)


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
    extents = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + extents)

    def backward_fn(g):
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accumulate(t, g[tuple(index)])

    return _record(data, ts, backward_fn)


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

    def backward_fn(g):
        if a.requires_grad:
            z = np.zeros_like(a.data)
            z[index] = g
            _accumulate(a, z)

    return _record(a.data[index].copy(), (a,), backward_fn)


def embedding_lookup(table, index: int) -> Tensor:
    """Row ``index`` of a V x E table as a 1 x E tensor."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise DimensionError(f"embedding_lookup expects a 2-d table, got {table.shape}")
    index = int(index)
    if not 0 <= index < table.data.shape[0]:
        raise DimensionError(f"embedding index {index} out of range for table {table.shape}")

    def backward_fn(g):
        if table.requires_grad:
            z = np.zeros_like(table.data)
            z[index] = g.reshape(-1)
            _accumulate(table, z)

    return _record(table.data[index:index + 1].copy(), (table,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra and spatial ops


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(data, (a, b), backward_fn)


def _im2col(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Window the padded H x W x C input into (Ho*Wo) x (kh*kw*C) columns."""
    windows = sliding_window_view(padded, (kh, kw), axis=(0, 1))
    windows = windows[::stride, ::stride]  # Ho x Wo x C x kh x kw
    ho, wo = windows.shape[:2]
    cols = windows.transpose(0, 1, 3, 4, 2).reshape(ho * wo, kh * kw * padded.shape[2])
    return np.ascontiguousarray(cols)


def conv2d(x, kernel, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate an H x W x Cin input with a kh x kw x Cin x Cout kernel.

    Output extents follow floor((extent + 2*padding - k) / stride) + 1.
    Stride-1 multi-channel input runs ``_conv2d_shifted``; strided or
    single-channel input runs im2col (see the module docstring).
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise DimensionError(f"conv2d expects H x W x Cin input and kh x kw x Cin x Cout kernel, "
                             f"got {x.shape} and {kernel.shape}")
    h, w, cin = x.data.shape
    kh, kw, kcin, cout = kernel.data.shape
    if kcin != cin:
        raise DimensionError(f"conv2d: input channels {cin} do not match kernel {kernel.shape}")
    if stride < 1:
        raise DimensionError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"conv2d: padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"conv2d: kernel {kernel.shape} larger than padded input "
                             f"{(hp, wp, cin)} (from {x.shape}, padding {padding})")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if stride == 1 and cin > 1:
        return _conv2d_shifted(x, kernel, padding, ho, wo)

    kmat = kernel.data.reshape(kh * kw * cin, cout)
    padded = np.pad(x.data, ((padding, padding), (padding, padding), (0, 0)))
    cols = _im2col(padded, kh, kw, stride)
    data = (cols @ kmat).reshape(ho, wo, cout)

    def backward_fn(g):
        gmat = g.reshape(ho * wo, cout)
        if kernel.requires_grad:
            _accumulate(kernel, (cols.T @ gmat).reshape(kernel.data.shape))
        if x.requires_grad:
            dcols = (gmat @ kmat.T).reshape(ho, wo, kh, kw, cin)
            dpad = np.zeros((hp, wp, cin))
            for i in range(kh):
                for j in range(kw):
                    dpad[i:i + ho * stride:stride, j:j + wo * stride:stride] += dcols[:, :, i, j]
            if padding:
                dpad = dpad[padding:padding + h, padding:padding + w]
            _accumulate(x, dpad)

    return _record(data, (x, kernel), backward_fn)


def _conv2d_shifted(x: Tensor, kernel: Tensor, padding: int, ho: int, wo: int) -> Tensor:
    """Stride-1 convolution as kh*kw shifted products over the flattened padded input.

    Row r of ``flat`` is padded pixel (r // wp, r % wp). Output pixel
    (u, v) reads ``flat[u*wp + v + i*wp + j]`` at kernel offset (i, j), so
    the products over rows ``o:o + ho*wp`` with ``o = i*wp + j`` build the
    output at full padded width; columns ``wo..wp-1`` wrap into the next
    row and are dropped. ``kw - 1`` trailing zero rows keep the last
    offset's rows in range. Backward keeps only ``flat``.
    """
    h, w, cin = x.data.shape
    kh, kw, _, cout = kernel.data.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    n = ho * wp
    offsets = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    if padding == 0 and kw == 1:
        flat = x.data.reshape(h * w, cin)
    else:
        flat = np.zeros((hp * wp + kw - 1, cin))
        flat[:hp * wp].reshape(hp, wp, cin)[padding:padding + h, padding:padding + w] = x.data
    wide = flat[:n] @ kernel.data[0, 0]
    for i, j, o in offsets[1:]:
        wide += flat[o:o + n] @ kernel.data[i, j]
    data = wide.reshape(ho, wp, cout)[:, :wo]

    def backward_fn(g):
        gw = (g if wo == wp else np.pad(g, ((0, 0), (0, wp - wo), (0, 0)))).reshape(n, cout)
        if kernel.requires_grad:
            dk = np.empty_like(kernel.data)
            for i, j, o in offsets:
                dk[i, j] = flat[o:o + n].T @ gw
            _accumulate(kernel, dk)
        if x.requires_grad:
            dflat = np.empty_like(flat)
            np.matmul(gw, kernel.data[0, 0].T, out=dflat[:n])
            dflat[n:] = 0.0
            for i, j, o in offsets[1:]:
                dflat[o:o + n] += gw @ kernel.data[i, j].T
            dpad = dflat[:hp * wp].reshape(hp, wp, cin)
            _accumulate(x, dpad[padding:padding + h, padding:padding + w])

    return _record(data, (x, kernel), backward_fn)


def pool2d(x, kind: str, window: int, stride: int) -> Tensor:
    """Windowed max or average pooling per channel over an H x W x C input.

    Max pooling routes the gradient to the window argmax; ties go to the
    first index in row-major scan order.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise DimensionError(f"pool2d expects an H x W x C input, got {x.shape}")
    if kind not in ("max", "average"):
        raise ValueError(f"pool2d kind must be 'max' or 'average', got {kind!r}")
    if window < 1 or stride < 1:
        raise DimensionError(f"pool2d: window and stride must be >= 1, got {window}, {stride}")
    h, w, c = x.data.shape
    if window > h or window > w:
        raise DimensionError(f"pool2d: window {window} exceeds input extents {(h, w)}")
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    windows = sliding_window_view(x.data, (window, window), axis=(0, 1))[::stride, ::stride]
    # Ho x Wo x C x win x win -> Ho x Wo x win*win x C for row-major argmax
    patches = windows.transpose(0, 1, 3, 4, 2).reshape(ho, wo, window * window, c)

    if kind == "max":
        flat_arg = patches.argmax(axis=2)  # first occurrence on ties
        data = np.take_along_axis(patches, flat_arg[:, :, None, :], axis=2)[:, :, 0, :]

        def backward_fn(g):
            if not x.requires_grad:
                return
            ys = (np.arange(ho) * stride)[:, None, None] + flat_arg // window
            xs = (np.arange(wo) * stride)[None, :, None] + flat_arg % window
            cs = np.broadcast_to(np.arange(c), flat_arg.shape)
            dx = np.zeros_like(x.data)
            np.add.at(dx, (ys, xs, cs), g)
            _accumulate(x, dx)
    else:
        data = patches.mean(axis=2)

        def backward_fn(g):
            if not x.requires_grad:
                return
            dx = np.zeros_like(x.data)
            share = g / (window * window)
            for i in range(window):
                for j in range(window):
                    dx[i:i + ho * stride:stride, j:j + wo * stride:stride] += share
            _accumulate(x, dx)

    return _record(np.ascontiguousarray(data), (x,), backward_fn)


# ---------------------------------------------------------------------------
# verification


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
               epsilon: float = 1e-5) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``loss_fn`` must rebuild the graph and return a deterministic scalar.
    Each parameter entry is perturbed by eps_i = epsilon * max(1, |x_i|);
    the relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-4) -- the floor keeps finite-difference roundoff on near-zero
    gradients from dominating the ratio. Returns the maximum over all
    entries. Intended for small models; cost is two forward passes per
    parameter entry.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
            eps = epsilon * max(1.0, abs(original))
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
