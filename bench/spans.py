"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``kuzureader`` from outside the
package: module attributes (``encoder.dense_block``, ``decoder.matmul``,
...) and class methods (``DenseEncoder.encode``, ``AttentionDecoder.step``,
...). Wrappers are installed around one traced item and removed after it,
so untraced items run the unmodified code. Spans stay in memory as
``[name, start, end, parent, root]`` and are written out when the run ends.

Counts that need only tensor shapes (convolution FLOPs, im2col and concat
bytes) are taken on the way in. Graph-node counts walk the recorded graph,
so they are deferred until the item's root span has closed and do not add
to any span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from kuzureader import autodiff, data
from kuzureader import decoder as decoder_mod
from kuzureader import encoder as encoder_mod
from kuzureader.decoder import AttentionDecoder
from kuzureader.encoder import DenseEncoder
from kuzureader.model import Recognizer

# decoder ops timed per step; they are module attributes of kuzureader.decoder
DECODER_OPS = ("matmul", "tanh", "sigmoid", "narrow", "softmax_flat")

BYTES_PER_FLOAT = 8

PER_LAYER_UNITS = {
    "encoder.encode_s": "s",
    "encoder.stem_s": "s",
    **{f"encoder.block{i}_s": "s" for i in range(3)},
    **{f"encoder.trans{i}_s": "s" for i in range(2)},
    "encoder.concat_mb": "MB",
    "autodiff.im2col_mb": "MB",
    "autodiff.conv2d_gflop": "GFLOP",
    "autodiff.conv2d_calls": "count",
    "autodiff.conv2d_s": "s",
    "autodiff.pool2d_s": "s",
    "model.recognize_graph_nodes": "count",
    "decoder.decode_s": "s",
    "decoder.steps": "count",
    "decoder.step_ms": "ms",
    "decoder.attend_ms": "ms",
    "decoder.step_self_ms": "ms",
    **{f"decoder.op.{op}_ms": "ms" for op in DECODER_OPS},
    "autodiff.backward_s": "s",
    "autodiff.graph_nodes": "count",
    "decoder.tf_forward_s": "s",
    "decoder.step_graph_nodes": "count",
    "data.read_pgm_ms": "ms",
    "data.generate_s": "s",
}


class Tracer:
    """In-memory spans plus per-root counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._deferred: list[tuple[int, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else index
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent, root])
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, value: float) -> None:
        self.counts[self._stack[0]][name] += value

    def defer(self, name: str, compute) -> None:
        """Count ``compute()`` under ``name`` once the current root has closed."""
        self._deferred.append((self._stack[0], name, compute))

    def count_deferred(self) -> None:
        """Run the deferred counts; call after the root span has closed."""
        for root, name, compute in self._deferred:
            self.counts[root][name] += compute()
        self._deferred.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced entry points for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attribute, replacement in _patches(self):
                original = getattr(owner, attribute)
                setattr(owner, attribute, replacement(original))
                stack.callback(setattr, owner, attribute, original)
            yield self

    def write(self, path: Path) -> None:
        """Write spans as JSON lines with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9),
                                     parent]) + "\n")


def _timed(tracer: Tracer, name):
    """Wrapper factory: a span named ``name`` (or ``name()``) around each call."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name() if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return wrapper
    return wrap


def _reachable(tensor) -> int:
    return len(autodiff.execution_order(tensor))


def _patches(tracer: Tracer):
    # dense_block and transition spans are numbered within each encode call
    numbering = {"block": 0, "trans": 0}

    def numbered(kind):
        def name():
            numbering[kind] += 1
            return f"encoder.{kind}{numbering[kind] - 1}"
        return name

    def encode(fn):
        inner = _timed(tracer, "encoder.encode")(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            numbering.update(block=0, trans=0)
            return inner(*args, **kwargs)
        return wrapper

    def conv2d(fn):
        inner = _timed(tracer, "autodiff.conv2d")(fn)

        @functools.wraps(fn)
        def wrapper(x, kernel, stride=1, padding=0):
            h, w, cin = x.shape
            kh, kw, _, cout = kernel.shape
            ho = (h + 2 * padding - kh) // stride + 1
            wo = (w + 2 * padding - kw) // stride + 1
            tracer.count("autodiff.conv2d_gflop", 2.0 * ho * wo * kh * kw * cin * cout / 1e9)
            if not (kh == kw == 1 and stride == 1 and padding == 0):  # 1x1 convs use a view
                tracer.count("autodiff.im2col_mb", ho * wo * kh * kw * cin * BYTES_PER_FLOAT / 1e6)
            return inner(x, kernel, stride=stride, padding=padding)
        return wrapper

    def concat_channels(fn):
        @functools.wraps(fn)
        def wrapper(tensors):
            h, w = tensors[0].shape[:2]
            channels = sum(t.shape[2] for t in tensors)
            tracer.count("encoder.concat_mb", h * w * channels * BYTES_PER_FLOAT / 1e6)
            return fn(tensors)
        return wrapper

    def recognizer_encode(fn):
        @functools.wraps(fn)
        def wrapper(self, image):
            grid = fn(self, image)
            if tracer.current() == "model.recognize":
                tracer.defer("model.recognize_graph_nodes",
                             functools.partial(_reachable, grid.features))
            return grid
        return wrapper

    def backward(fn):
        inner = _timed(tracer, "autodiff.backward")(fn)

        @functools.wraps(fn)
        def wrapper(root):
            tracer.defer("autodiff.graph_nodes", functools.partial(_reachable, root))
            return inner(root)
        return wrapper

    def tf_forward(fn):
        inner = _timed(tracer, "decoder.tf_forward")(fn)

        @functools.wraps(fn)
        def wrapper(decoder, grid, target):
            loss, logits, alphas = inner(decoder, grid, target)

            def step_nodes():
                return (_reachable(logits[-1]) - _reachable(grid.features)) / len(logits)
            tracer.defer("decoder.step_graph_nodes", step_nodes)
            return loss, logits, alphas
        return wrapper

    patches = [
        (DenseEncoder, "encode", encode),
        (encoder_mod, "dense_block", _timed(tracer, numbered("block"))),
        (encoder_mod, "transition", _timed(tracer, numbered("trans"))),
        (encoder_mod, "conv2d", conv2d),
        (encoder_mod, "pool2d", _timed(tracer, "autodiff.pool2d")),
        (autodiff, "concat_channels", concat_channels),
        (autodiff, "backward", backward),
        (Recognizer, "recognize", _timed(tracer, "model.recognize")),
        (Recognizer, "encode", recognizer_encode),
        (AttentionDecoder, "decode_greedy", _timed(tracer, "decoder.decode_greedy")),
        (AttentionDecoder, "step", _timed(tracer, "decoder.step")),
        (AttentionDecoder, "attend", _timed(tracer, "decoder.attend")),
        (data, "read_pgm", _timed(tracer, "data.read_pgm")),
        (data, "generate_document", _timed(tracer, "data.generate")),
        (workloads, "teacher_forced_loss", tf_forward),
    ]
    patches += [(decoder_mod, op, _timed(tracer, f"decoder.op.{op}")) for op in DECODER_OPS]
    return patches


def _per_root(tracer: Tracer, root_name: str) -> list[tuple[dict, dict, dict]]:
    """(span seconds by name, span calls by name, counters) for each root named ``root_name``."""
    seconds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, start, end, _, root in tracer.spans:
        seconds[root][name] += end - start
        calls[root][name] += 1
    return [(seconds[r], calls[r], tracer.counts[r])
            for r in seconds if tracer.spans[r][0] == root_name]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and layer shares of item time, each a median over traced items.

    Times in ``_s`` are per item; ``_ms`` decoder times are per decoder
    step; ``encoder.stem_s`` is encode time not spent in a dense block or
    transition, and ``decoder.step_self_ms`` is step time not spent in
    ``attend`` (embedding, LSTM and read-out).
    """
    rows: list[dict[str, float]] = []
    shares: list[dict[str, float]] = []
    for seconds, calls, counts in _per_root(tracer, "item"):
        steps = calls["decoder.step"]
        per_step = 1000.0 / steps if steps else 0.0
        encode = seconds["encoder.encode"]
        stages = {f"encoder.{kind}{i}_s": seconds[f"encoder.{kind}{i}"]
                  for kind, n in (("block", 3), ("trans", 2)) for i in range(n)}
        row = {
            "encoder.encode_s": encode,
            "encoder.stem_s": encode - sum(stages.values()),
            **stages,
            "encoder.concat_mb": counts["encoder.concat_mb"],
            "autodiff.im2col_mb": counts["autodiff.im2col_mb"],
            "autodiff.conv2d_gflop": counts["autodiff.conv2d_gflop"],
            "autodiff.conv2d_calls": calls["autodiff.conv2d"],
            "autodiff.conv2d_s": seconds["autodiff.conv2d"],
            "autodiff.pool2d_s": seconds["autodiff.pool2d"],
            "model.recognize_graph_nodes": counts["model.recognize_graph_nodes"],
            "decoder.decode_s": seconds["decoder.decode_greedy"],
            "decoder.steps": steps,
            "decoder.step_ms": seconds["decoder.step"] * per_step,
            "decoder.attend_ms": seconds["decoder.attend"] * per_step,
            "decoder.step_self_ms": (seconds["decoder.step"] - seconds["decoder.attend"]) * per_step,
            **{f"decoder.op.{op}_ms": seconds[f"decoder.op.{op}"] * per_step for op in DECODER_OPS},
            "autodiff.backward_s": seconds["autodiff.backward"],
            "autodiff.graph_nodes": counts["autodiff.graph_nodes"],
            "decoder.tf_forward_s": seconds["decoder.tf_forward"],
            "decoder.step_graph_nodes": counts["decoder.step_graph_nodes"],
            "data.read_pgm_ms": 1000.0 * seconds["data.read_pgm"],
        }
        rows.append(row)
        item = seconds["item"]
        shares.append({
            "encode": encode / item,
            "decode": seconds["decoder.decode_greedy"] / item,
            "tf_forward": seconds["decoder.tf_forward"] / item,
            "backward": seconds["autodiff.backward"] / item,
        })
    setups = _per_root(tracer, "setup")
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["data.generate_s"] = statistics.median(s["data.generate"] for s, _, _ in setups)
    return metrics, {name: statistics.median(s[name] for s in shares) for name in shares[0]}
