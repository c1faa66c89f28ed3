"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation hands ``_record`` its result, its inputs and one
vector-Jacobian product (vjp): a function from the result's gradient to
an iterable of gradients, one per input, in input order. A fused node
computes what its inputs' gradients share once inside that one call.
``_record`` keeps the inputs and the vjp only when some input requires a
gradient, and never inside ``no_grad`` (per thread). ``backward`` replays
the reachable part of the graph exactly once, children before parents,
calls each node's vjp once, and is the only place that accumulates
gradients into ``Tensor.grad``. It follows and accumulates into only the
inputs that require a gradient, so a constant input gets no ``grad`` and
is not in the execution order. It frees the graph as it sweeps: each
interior node gives up its gradient, its inputs and its vjp (with the
forward buffers the vjp holds) as soon as the sweep reaches it.

Conventions, fixed once for the whole package:

* buffers are row-major ``numpy`` float64 arrays;
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

No convolution or pooling lives here; the encoder's are in ``encoder``.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible, or a size or setting is out of range.

    Raised by the ops on mismatched shapes; by a size, seed or token index
    that is not an integer (a bool is not) or is below its minimum; by a
    generator setting of the wrong kind (a range that is not a pair, a
    noise level that is not a real number in [0, 1]); by glyphs that do not
    fit their layout or share one bitmap; by a decode step past
    ``max_decode_len`` or given a token outside the vocabulary; and by a
    page that is not an H x W x 1 numpy array with pixels (``check_page``,
    run by ``write_pgm``, ``encode`` and ``recognize``).
    """


class NumericError(ArithmeticError):
    """A value is not a finite real number, or is outside its valid range.

    Raised when a computation holds a non-finite value; when a page or a
    loaded parameter is not real-valued (a string, a complex or object
    array) or not finite (``check_real``); and when a page has a pixel
    outside [0, 1] (``check_page``, run by ``write_pgm``, ``encode`` and
    ``recognize``).
    """


class DatasetError(RuntimeError):
    """Stored or supplied content is malformed.

    Raised on a malformed graymap or one with no pixels, a vocabulary whose
    tokens break its rules (markers first, unique, one word each), a token
    or token index missing from the vocabulary, a token index that is not
    an integer (a bool is not), and an empty evaluation.
    """


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)

# a node's gradient -> one gradient per input, in input order; a generator may
# yield them one at a time, so each is accumulated before the next exists
Vjp = Callable[[np.ndarray], Iterable[np.ndarray]]


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

    __slots__ = ("data", "grad", "requires_grad", "_inputs", "_vjp", "_freed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._inputs: tuple[Tensor, ...] = ()
        self._vjp: Vjp | None = None
        self._freed = False  # a backward sweep dropped this node's grad, inputs and vjp

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
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(data: np.ndarray, inputs: Sequence[Tensor], vjp: Vjp) -> Tensor:
    """Wrap an op result, keeping its ``inputs`` and ``vjp`` when ``_recording(*inputs)``."""
    out = Tensor(data)
    if _recording(*inputs):
        out.requires_grad = True
        out._inputs = tuple(inputs)
        out._vjp = vjp
    return out


def _recording(*inputs: Tensor) -> bool:
    """Whether an op over ``inputs`` records a node: grad is on and some input needs one."""
    return _grad_enabled.get() and any(t.requires_grad for t in inputs)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad`` and make the stored array read-only."""
    g = g if t.grad is None else t.grad + g
    g.flags.writeable = False
    t.grad = g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def execution_order(root: Tensor) -> list[Tensor]:
    """Each node reachable from ``root`` once, parents first (iterative post-order DFS).

    It follows only inputs that require a gradient, so a constant input is
    not in the order.
    """
    seen = {id(root)}
    nodes: list[Tensor] = []
    stack = [(root, iter(root._inputs))]
    while stack:
        node, inputs = stack[-1]
        for parent in inputs:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._inputs)))
                break
        else:
            stack.pop()
            nodes.append(node)
    return nodes


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root that frees the graph behind it.

    Visits every recorded operation exactly once, children before
    parents, and calls its vjp once. A node comes off the execution order
    as the sweep reaches it, and an interior node drops its ``grad``,
    inputs and vjp before the vjp runs, so each gradient and forward
    buffer goes as soon as nothing later needs it. Each gradient the vjp
    gives is accumulated before the next is taken, and only into an input
    that requires one. Leaves keep their gradients, which accumulate
    across graphs until ``zero_grads`` is called. A sweep that would reach
    a node an earlier sweep freed raises RuntimeError before touching any
    gradient.
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
        if node._vjp is None:
            continue  # a leaf keeps its gradient
        g, inputs, vjp = node.grad, node._inputs, node._vjp
        node.grad, node._inputs, node._vjp, node._freed = None, (), None, True
        for parent, d in zip(inputs, vjp(g), strict=True):
            if parent.requires_grad:
                _accumulate(parent, d)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(a.data * b.data, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.data.shape),
                              _unbroadcast(g * a.data, b.data.shape)))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return _record(np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, g.reshape(())),))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _record(y, (a,), lambda g: (g * (1.0 - y * y),))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in a new array; exp only ever sees -|x|, so it cannot overflow."""
    with np.errstate(under="ignore"):  # exp(-|x|) below the subnormals is 0, the limit
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a) -> Tensor:
    """Logistic function, overflow-safe (``_logistic``)."""
    a = _as_tensor(a)
    y = _logistic(a.data)
    return _record(y, (a,), lambda g: (g * y * (1.0 - y),))


def _softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max(x)) / sum over all entries, into ``out`` (which may be ``x``) or a new array."""
    y = np.subtract(x, x.max(), out=out)
    np.exp(y, out=y)
    y /= y.sum()
    return y


def softmax_flat(a) -> Tensor:
    """Softmax over all entries, stabilized by max subtraction.

    The output keeps the input's shape; entries are non-negative and sum
    to one.
    """
    a = _as_tensor(a)
    y = _softmax(a.data)
    return _record(y, (a,), lambda g: (y * (g - (g * y).sum()),))


def logsumexp(a) -> Tensor:
    """Scalar log(sum(exp(x))) over all entries, max-stabilized."""
    a = _as_tensor(a)
    m = a.data.max()
    e = np.exp(a.data - m)
    s = e.sum()
    return _record(np.asarray(m + np.log(s)), (a,), lambda g: ((e / s) * g.reshape(()),))


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
    return _record(np.asarray(a.data[index]), (a,),
                   lambda g: (_scattered(a.data, index, g.reshape(())),))


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


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
    return _record(data, ts, lambda g: [g[lead + (slice(start, stop),)]
                                        for start, stop in zip(offsets[:-1], offsets[1:])])


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
    return _record(a.data[index].copy(), (a,), lambda g: (_scattered(a.data, index, g),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    return _record(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


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
