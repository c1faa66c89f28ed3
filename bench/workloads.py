"""Seeded workloads, output checks and the measured loop of the benchmark.

Every workload drives the public ``kuzureader`` API from one process as a
closed loop: one caller, one item at a time, BLAS left at its default
thread count. An item is one page read (``Recognizer.recognize`` on a page
loaded with ``read_pgm``) or one teacher-forced training step (forward,
``backward``, ``zero_grads``). The workload seed picks the pages; the
model seed is fixed, so every seed reads with the same weights.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# measure the checkout's own sources, never an installed copy
if not (ROOT / "src" / "kuzureader").is_dir():
    raise ImportError(f"no kuzureader sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from kuzureader import autodiff, data, vocab  # noqa: E402
from kuzureader.decoder import AttentionDecoder, DecoderConfig  # noqa: E402
from kuzureader.encoder import EncoderConfig  # noqa: E402
from kuzureader.model import Recognizer  # noqa: E402

MODEL_SEED = 0
REFERENCE_SEED = 0           # the seed whose outputs bench/reference.json records
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SEED_STRIDE = 1_000_000      # document seed = workload seed * stride + page index
NUM_CLASSES = 10
DECODER = DecoderConfig(hidden_size=256, embed_size=256, attention_size=128, max_decode_len=128)
ATTENTION_TOL = 1e-9         # |sum(alpha) - 1| allowed per attention map
LOSS_RTOL = 1e-9             # relative tolerance against the recorded reference loss


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    canvas: tuple[int, int]   # page height, width in pixels
    growth_rate: int
    block_depth: int
    pages: int                # distinct pages per set-up; items cycle through them


WORKLOADS = {w.name: w for w in (
    Workload("read_small", train=False, canvas=(96, 64), growth_rate=12, block_depth=4, pages=16),
    Workload("read_mid", train=False, canvas=(256, 192), growth_rate=24, block_depth=8, pages=8),
    Workload("train_mid", train=True, canvas=(256, 192), growth_rate=24, block_depth=8, pages=8),
)}


@dataclass
class Setup:
    model: Recognizer
    samples: list[data.Sample]
    paths: list[Path]          # one PGM per page, read workloads only


def set_up(workload: Workload, seed: int, page_dir: Path) -> Setup:
    """Build the model and the seeded pages; read workloads write them as PGM files."""
    spec = data.build_spec(num_classes=NUM_CLASSES, canvas=workload.canvas)
    model = Recognizer(EncoderConfig(growth_rate=workload.growth_rate,
                                     block_depth=workload.block_depth),
                       DECODER, spec.vocabulary(), seed=MODEL_SEED)
    samples = [data.generate_document(spec, seed * SEED_STRIDE + i) for i in range(workload.pages)]
    paths = []
    if not workload.train:
        page_dir.mkdir(parents=True, exist_ok=True)
        for i, sample in enumerate(samples):
            paths.append(page_dir / f"page{i:03d}.pgm")
            data.write_pgm(paths[-1], sample.image)
    return Setup(model, samples, paths)


def teacher_forced_loss(decoder: AttentionDecoder, grid, target: tuple[int, ...]):
    """Sum over target + END of logsumexp(logits) - logits[token], teacher-forced.

    Returns the loss, every step's logits and every step's attention map.
    """
    state = decoder.initial_state(grid)
    prev = vocab.START
    loss = None
    logits_seen = []
    for token in (*target, vocab.END):
        logits, state = decoder.step(grid, state, prev)
        term = autodiff.logsumexp(logits) - autodiff.pick(logits, token)
        loss = term if loss is None else loss + term
        logits_seen.append(logits)
        prev = token
    return loss, logits_seen, state.attention_trace


@dataclass
class Output:
    """What an item produced, reduced to what the checks need."""
    steps: int                  # decoder steps the step probe counted
    attention: list[np.ndarray]
    finite: bool                # every logit, and the loss, is finite
    tokens: tuple[int, ...] = ()
    truncated: bool = False
    loss: float | None = None

    def key(self) -> tuple:
        return self.tokens, self.steps, self.loss


class StepProbe:
    """Counts decoder steps and steps with non-finite logits.

    It wraps ``AttentionDecoder.step`` for the whole run, traced or not,
    because ``recognize`` returns neither the logits nor a step count.
    Its cost is one ``isfinite`` over the vocabulary per step.
    """

    def __init__(self):
        self.steps = 0
        self.nonfinite = 0

    @contextlib.contextmanager
    def installed(self):
        original = AttentionDecoder.step

        def step(decoder, grid, state, prev_token):
            logits, new_state = original(decoder, grid, state, prev_token)
            self.steps += 1
            if not np.isfinite(logits.data).all():
                self.nonfinite += 1
            return logits, new_state

        AttentionDecoder.step = step
        try:
            yield self
        finally:
            AttentionDecoder.step = original


def read_page(setup: Setup, page: int):
    return setup.model.recognize(data.read_pgm(setup.paths[page]))


def train_step(setup: Setup, page: int):
    model = setup.model
    sample = setup.samples[page]
    grid = model.encode(sample.image)
    loss, logits, alphas = teacher_forced_loss(model.decoder, grid, sample.target)
    autodiff.backward(loss)
    autodiff.zero_grads(model.parameters().values())
    return loss, logits, alphas


@dataclass
class Checker:
    """Runs items, checks every output and keeps the failure accounting."""
    workload: Workload
    reference: list[dict] | None      # per page, for the reference seed only
    probe: StepProbe
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    seen: dict[int, tuple] = field(default_factory=dict)   # page -> first output key

    def run(self, setup: Setup, page: int, tracer=None, peak: bool = False):
        """Run one item; returns (seconds, tracemalloc peak bytes or None)."""
        steps, nonfinite = self.probe.steps, self.probe.nonfinite
        peak_bytes = None
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("item"))
            if peak:
                tracemalloc.start()
                stack.callback(tracemalloc.stop)
            start = perf_counter()
            try:
                result = (train_step if self.workload.train else read_page)(setup, page)
            except Exception as exc:  # an item that raises is a failed item; the run goes on
                result = exc
            seconds = perf_counter() - start
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
        if tracer is not None:
            tracer.count_deferred()
        self.attempted += 1
        if isinstance(result, Exception):
            problems = [f"{type(result).__name__}: {result}"]
        else:
            problems = self.check(page, self._output(result, self.probe.steps - steps,
                                                     self.probe.nonfinite - nonfinite))
        if problems:
            self.failed += 1
            self.problems += [f"item {self.attempted} (page {page}): {p}" for p in problems]
        return seconds, peak_bytes

    def _output(self, result, steps: int, nonfinite: int) -> Output:
        if self.workload.train:
            loss, logits, alphas = result
            finite = np.isfinite(loss.item()) and all(np.isfinite(l.data).all() for l in logits)
            return Output(steps=steps, attention=[a.data for a in alphas],
                          finite=bool(finite), loss=loss.item())
        return Output(steps=steps, attention=result.trace, finite=nonfinite == 0,
                      tokens=result.tokens, truncated=result.truncated)

    def check(self, page: int, out: Output) -> list[str]:
        problems = []
        if len(out.attention) != out.steps:
            problems.append(f"attention trace has {len(out.attention)} maps for {out.steps} steps")
        for t, alpha in enumerate(out.attention, start=1):
            total = float(alpha.sum())
            if not (np.isfinite(alpha).all() and abs(total - 1.0) <= ATTENTION_TOL):
                problems.append(f"step {t}: attention map sums to {total!r}")
                break
        if not out.finite:
            problems.append("non-finite logits or loss")
        if out.truncated and out.steps != DECODER.max_decode_len:
            problems.append(f"truncated after {out.steps} < {DECODER.max_decode_len} steps")
        first = self.seen.setdefault(page, out.key())
        if first != out.key():
            problems.append(f"output {out.key()} differs from the first run of the page {first}")
        if self.reference is not None and page < len(self.reference):
            ref = self.reference[page]
            if list(out.tokens) != ref["tokens"] or out.steps != ref["steps"]:
                problems.append(f"tokens/steps {out.tokens}/{out.steps} differ from reference "
                                f"{tuple(ref['tokens'])}/{ref['steps']}")
            if ref["loss"] is not None and not abs(out.loss - ref["loss"]) <= LOSS_RTOL * abs(ref["loss"]):
                problems.append(f"loss {out.loss!r} differs from reference {ref['loss']!r}")
        return problems

    def fingerprint(self) -> str:
        """Hash of each page's first output; losses rounded to 10 significant digits."""
        rows = [[page, list(tokens), steps, None if loss is None else f"{loss:.9e}"]
                for page, (tokens, steps, loss) in sorted(self.seen.items())]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def reference_rows(self) -> list[dict]:
        return [{"tokens": list(tokens), "steps": steps, "loss": loss}
                for _, (tokens, steps, loss) in sorted(self.seen.items())]


def load_reference(workload: Workload, seed: int) -> list[dict] | None:
    """The recorded per-page outputs at the reference seed; None at any other seed."""
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"][workload.name]
