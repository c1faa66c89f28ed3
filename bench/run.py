"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload read_small --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead. A summary goes to standard output, the
full record (environment, fingerprint, latencies, problems) to
``.bench_build/results/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Workloads and
their metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads as wl  # raises ImportError when the checkout has no kuzureader sources

SETUP_REPEATS = 5      # set-up is timed this often per run; the median is reported
SETTLE_SECONDS = 3.0   # untimed, checked items between set-up and the timed loop
P90_MIN_ITEMS = 100    # latency_p90_s needs at least ten samples beyond it


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    details: dict


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    """Set up, run the closed loop for ``seconds`` and measure.

    Untraced runs report the end-to-end metrics; peak memory comes from
    one more item under ``tracemalloc`` after the timed loop. Traced runs
    alternate untraced and traced items and report the per-layer metrics;
    the difference of their median latencies is the tracing overhead.
    Page files and the span file go under ``out_dir``.
    """
    tracer = spans.Tracer() if trace else None
    probe = wl.StepProbe()
    checker = wl.Checker(workload, wl.load_reference(workload, seed), probe)
    page_dir = out_dir / "pages" / f"{workload.name}-{os.getpid()}"
    setup_seconds = []
    try:
        with probe.installed():
            for _ in range(SETUP_REPEATS):
                setup = None  # release the previous model and pages before the next set-up
                with contextlib.ExitStack() as stack:
                    if tracer is not None:
                        stack.enter_context(tracer.installed())
                        stack.enter_context(tracer.span("setup"))
                    start = perf_counter()
                    setup = wl.set_up(workload, seed, page_dir)
                    checker.run(setup, 0)  # warm-up item
                    setup_seconds.append(perf_counter() - start)
                if tracer is not None:
                    tracer.count_deferred()

            # the first items of a fresh process run slower than the rest
            i = 1
            settle_end = perf_counter() + SETTLE_SECONDS
            while perf_counter() < settle_end:
                checker.run(setup, i % workload.pages)
                i += 1

            plain, traced = [], []
            ok_before = checker.attempted - checker.failed
            loop_start = perf_counter()
            deadline = loop_start + seconds
            while True:
                use_tracer = tracer if len(plain) > len(traced) else None
                (traced if use_tracer else plain).append(
                    checker.run(setup, i % workload.pages, tracer=use_tracer)[0])
                i += 1
                if perf_counter() >= deadline and (tracer is None or traced):
                    break
            loop_seconds = perf_counter() - loop_start
            completed = checker.attempted - checker.failed - ok_before
            peak_bytes = None if trace else checker.run(setup, 0, peak=True)[1]
    finally:
        shutil.rmtree(page_dir, ignore_errors=True)

    steps = [key[1] for key in checker.seen.values()]
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "items_timed": len(plain) + len(traced),
        "loop_seconds": loop_seconds,
        "setup_seconds": setup_seconds,
        "fingerprint": checker.fingerprint(),
        "pages_checked": len(checker.seen),
        "reference_checked": checker.reference is not None,
        "decoder_steps": {"min": min(steps), "max": max(steps), "pages": len(steps),
                          "pages_at_limit": sum(s == wl.DECODER.max_decode_len for s in steps)},
        "problems": checker.problems[:20],
    }
    if trace:
        metrics, shares = spans.layer_metrics(tracer)
        plain_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
        details.update(
            layer_shares=shares,
            tracing_overhead={"untraced_p50_s": plain_p50, "traced_p50_s": traced_p50,
                              "overhead_s": traced_p50 - plain_p50,
                              "overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50},
            spans=len(tracer.spans))
        tracer.write(out_dir / "trace" / f"{workload.name}-seed{seed}.jsonl")
        reported = {name: (value, spans.PER_LAYER_UNITS[name]) for name, value in metrics.items()}
    else:
        reported = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "latency_p50_s": (statistics.median(plain), "s"),
            "throughput_per_s": (completed / loop_seconds, "1/s"),
            "peak_mem_mb": (peak_bytes / 1e6, "MB"),
        }
        if len(plain) >= P90_MIN_ITEMS:
            details["latency_p90_s"] = statistics.quantiles(plain, n=10)[-1]
        details["latencies_s"] = plain
    return Result(correct=checker.failed == 0, attempted=checker.attempted,
                  failed=checker.failed, metrics=reported, details=details)


def _blas() -> dict:
    """BLAS name and version from numpy's build; threads from the loaded OpenBLAS."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("*openblas*"):
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "commit": _git_commit(wl.ROOT),
        "seed": seed,
        "model_seed": wl.MODEL_SEED,
    }


def summary(result: Result) -> list[str]:
    d = result.details
    env = d["environment"]
    lines = [
        f"workload {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  trace {int(d['trace'])}",
        f"environment: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']['name']} "
        f"{env['blas']['version']} ({env['blas']['threads']} threads), nproc {env['nproc']}, "
        f"commit {env['commit']}",
        f"items attempted {result.attempted}, failed {result.failed}, correct {result.correct}",
    ]
    lines += [f"  {name:<30} {value:>14.6g} {unit}" for name, (value, unit) in result.metrics.items()]
    if not d["trace"]:
        p90 = d.get("latency_p90_s")
        lines.append(f"  {'latency_p90_s':<30} {p90:>14.6g} s" if p90 is not None else
                     f"  {'latency_p90_s':<30} {'not reported':>14} "
                     f"({len(d['latencies_s'])} timed items < {P90_MIN_ITEMS})")
    else:
        o = d["tracing_overhead"]
        lines.append(f"tracing overhead: {o['overhead_s']:.6g} s per item ({o['overhead_pct']:.3g}%), "
                     f"traced p50 {o['traced_p50_s']:.6g} s vs untraced {o['untraced_p50_s']:.6g} s")
        lines.append("layer shares of item time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in d["layer_shares"].items()))
    s = d["decoder_steps"]
    lines.append(f"decoder steps per page: min {s['min']}, max {s['max']}; "
                 f"{s['pages_at_limit']}/{s['pages']} pages hit the step limit")
    lines.append(f"output fingerprint {d['fingerprint']} over {d['pages_checked']} pages"
                 f"{' (reference checked)' if d['reference_checked'] else ''}")
    lines += [f"problem: {p}" for p in d["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")

    out_dir = wl.ROOT / ".bench_build"
    result = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    out = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    line = {"correct": result.correct, "attempted": result.attempted, "failed": result.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**line, **result.details}, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary(result)))
    print(f"result file: {out.relative_to(wl.ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
