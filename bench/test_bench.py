"""Tests of the benchmark itself: metric names and units, and that its checks can fail."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from kuzureader.decoder import AttentionDecoder

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = wl.WORKLOADS["read_small"]


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETTLE_SECONDS", 0.0)


@pytest.mark.parametrize("trace, group", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_appears_with_its_unit(quick, tmp_path, trace, group):
    result = run.measure(SMALL, seed=0, seconds=0.3, trace=trace, out_dir=tmp_path)
    assert result.correct and result.failed == 0 and result.attempted >= 3
    assert result.details["reference_checked"]
    units = {name: unit for name, (_, unit) in result.metrics.items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[group]}
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
    else:
        assert result.metrics["decoder.steps"][0] == wl.DECODER.max_decode_len
        assert (tmp_path / "trace" / "read_small-seed0.jsonl").stat().st_size > 0


@pytest.mark.parametrize("seed, perturb, expected", [
    # at the reference seed a shifted read-out changes the tokens
    (wl.REFERENCE_SEED, lambda w: w.__setitem__((slice(None), 2), w[:, 2] + 1.0), "reference"),
    # at any seed a NaN weight makes the logits non-finite
    (1, lambda w: w.__setitem__((0, 0), float("nan")), "non-finite"),
], ids=["shifted-at-reference-seed", "nan-at-other-seed"])
def test_a_perturbed_decoder_weight_fails_items(quick, tmp_path, monkeypatch, seed, perturb, expected):
    init = AttentionDecoder.__init__

    def perturbed(self, *args, **kwargs):
        init(self, *args, **kwargs)
        perturb(self.params["out.vocab_proj"].data)

    monkeypatch.setattr(AttentionDecoder, "__init__", perturbed)
    result = run.measure(SMALL, seed=seed, seconds=0.3, trace=False, out_dir=tmp_path)
    assert not result.correct
    assert result.failed == result.attempted >= 3
    assert expected in result.details["problems"][0]


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "read_small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
