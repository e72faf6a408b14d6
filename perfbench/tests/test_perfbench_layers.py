"""Smoke-size runs: every named layer is exercised on its heavy workload,
and every check passes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "run.py"

#: Per-layer metric -> the workload that loads it most.
HEAVY = {
    "paper-attack": [
        "setup.keys_s", "setup.nodes_s", "setup.bootstrap_s",
        "node.run_cycle.self_ms", "node.receive.self_ms", "node.activations",
        "channel.requests", "channel.self_ms",
        "push.sent", "push.self_ms", "push.useful_ratio",
        "verify.calls", "verify.memo_hit_ratio", "descriptor.sign.self_ms",
        "observe.descriptors", "observe.self_ms", "observe.proofs_found",
        "proofs.validate.calls", "proofs.validate.self_ms", "blacklist.proofs_held",
        "observer.self_ms", "gc.collections", "gc.pause_ms",
    ],
    "wire-event": [
        "scheduler.self_ms",
        "codec.encode.calls", "codec.encode.self_ms", "codec.decode.self_ms",
        "codec.frame_bytes_mean", "codec.intern_hit_rate",
        "verify.calls", "verify.self_ms",
        "checkpoint.save_s", "checkpoint.read_s", "checkpoint.apply_s", "checkpoint.rebuild_s",
    ],
    "sharded": [
        "shard.start_s", "shard.cycle_wait_ms", "shard.finish_s", "shard.cross_bytes",
        "node.activations", "channel.requests",
    ],
}


def run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "4", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(HEAVY))
def test_traced_smoke_run_covers_its_layers(workload):
    lines = run(workload, trace=1)
    report = json.loads(lines[-1])
    assert report["correct"], lines
    assert report["failed"] == 0
    metrics = report["metrics"]
    for name in HEAVY[workload]:
        assert metrics[name]["value"] > 0, name
    assert abs(metrics["trace.self_sum_ratio"]["value"] - 1.0) <= 0.05
    assert any(line.startswith("# largest self time: ") for line in lines)


def test_untraced_run_reports_every_end_to_end_metric():
    benchmark = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    lines = run("wire-event", trace=0)
    report = json.loads(lines[-1])
    assert report["correct"], lines
    assert set(report["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
    for metric in benchmark["end_to_end"]:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert report["metrics"][metric["name"]]["value"] > 0


def test_missing_source_tree_fails_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in RUN.parent.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharded", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
