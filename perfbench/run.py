"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-attack --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the lines before it give every metric with its unit, the run's
environment and the checks made.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Set-up-only episodes per untraced run, besides the measured one.
SETUP_REPEATS = 2
#: Longest any one episode may take before the run is abandoned.
EPISODE_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "node_cycles_per_s": "1/s",
    "cycle_ms_p50": "ms",
    "cycle_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "view_fill": "fraction",
}

LAYER_UNITS = {
    "setup.keys_s": "s",
    "setup.nodes_s": "s",
    "setup.bootstrap_s": "s",
    "scheduler.self_ms": "ms",
    "node.run_cycle.self_ms": "ms",
    "node.receive.self_ms": "ms",
    "node.activations": "count",
    "channel.requests": "count",
    "channel.failed": "count",
    "channel.self_ms": "ms",
    "push.sent": "count",
    "push.self_ms": "ms",
    "push.useful_ratio": "ratio",
    "codec.encode.calls": "count",
    "codec.encode.self_ms": "ms",
    "codec.decode.self_ms": "ms",
    "codec.frame_bytes_mean": "B",
    "codec.intern_hit_rate": "ratio",
    "verify.calls": "count",
    "verify.self_ms": "ms",
    "verify.memo_hit_ratio": "ratio",
    "descriptor.sign.self_ms": "ms",
    "observe.descriptors": "count",
    "observe.self_ms": "ms",
    "observe.proofs_found": "count",
    "proofs.validate.calls": "count",
    "proofs.validate.self_ms": "ms",
    "blacklist.proofs_held": "count",
    "observer.self_ms": "ms",
    "checkpoint.save_s": "s",
    "checkpoint.read_s": "s",
    "checkpoint.apply_s": "s",
    "checkpoint.rebuild_s": "s",
    "shard.start_s": "s",
    "shard.cycle_wait_ms": "ms",
    "shard.finish_s": "s",
    "shard.cross_bytes": "B",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
    "trace.overhead_pct": "%",
    "trace.self_sum_ratio": "ratio",
}


class EpisodeError(RuntimeError):
    """An episode process failed or printed no result."""


def start_child(args: List[str]) -> subprocess.Popen:
    """Start ``episode.py`` in a fresh process and process group."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return subprocess.Popen(
        [sys.executable, str(HERE / "episode.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(ROOT),
        start_new_session=True,
    )


def collect_child(process: subprocess.Popen, args: List[str]) -> Dict[str, Any]:
    """Wait for an episode and parse its result.

    The group is killed on timeout, and after the episode ends, so
    shard workers forked by the episode never outlive it.
    """
    try:
        out, err = process.communicate(timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise EpisodeError(f"episode {args} exceeded {EPISODE_TIMEOUT_S}s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise EpisodeError(f"episode {args} exited {process.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def run_children(*arg_lists: List[str]) -> List[Dict[str, Any]]:
    """Run episodes side by side and return their results in order."""
    processes = [start_child(args) for args in arg_lists]
    try:
        return [collect_child(process, args) for process, args in zip(processes, arg_lists)]
    finally:
        for process in processes:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()


def run_child(args: List[str]) -> Dict[str, Any]:
    return run_children(args)[0]


def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with ten samples above it, and its value.

    With ten or fewer samples no such percentile exists; the maximum
    is returned with percentile 100 so the line still reads honestly.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measured_s(result: Dict[str, Any], reference: bool = False) -> float:
    """Host time of the measured phases of one episode, or that time
    rescaled to the reference host speed."""
    suffix = "_ref_s" if reference else "_s"
    return (
        result["setup" + suffix]
        + sum(result["cycle" + suffix])
        + result.get("finish_s", 0.0)
        + result.get("checkpoint" + suffix, 0.0)
        + result.get("resume" + suffix, 0.0)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="test-sized overlays")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    cycles = workloads.timed_cycles(workload, args.seconds)
    scratch = str(ROOT / ".perfbench_scratch")
    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--cycles", str(cycles), "--scratch", scratch,
    ] + (["--smoke"] if args.smoke else [])

    failures: List[str] = []
    try:
        plain_args = base + ["--mode", "run", "--trace", "0"]
        traced_args = base + ["--mode", "run", "--trace", "1"]
        setups: List[Dict[str, Any]] = []
        if not args.trace:
            main_run = run_child(plain_args)
            setups = [run_child(base + ["--mode", "setup"]) for _ in range(SETUP_REPEATS)]
        elif workload.trace_alongside:
            # One process each on the two CPUs: both episodes see the
            # same host speed, which also steadies the overhead ratio.
            main_run, traced = run_children(plain_args, traced_args)
        else:
            main_run = run_child(plain_args)
            traced = run_child(traced_args)
    except EpisodeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures += main_run["failures"]
    for other in setups:
        if other["build_digest"] != main_run["build_digest"]:
            failures.append("set-up is not deterministic: build digests differ")
    attempted = len(main_run["cycle_s"]) + 1 + len(setups)
    if "checkpoint_s" in main_run:
        attempted += 2

    print(
        f"# workload={args.workload} seed={args.seed} cycles={cycles} nodes="
        f"{workload.smoke_nodes if args.smoke else workload.nodes} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"shards={workloads.SHARDS if args.workload == 'sharded' else 1}"
    )
    if args.trace:
        metrics, extra_failures = traced_metrics(args.workload, main_run, traced)
        failures += extra_failures
    else:
        metrics = end_to_end(main_run, setups)
    attempted = max(attempted, len(failures))
    print(f"# checks: {'all passed' if not failures else '; '.join(failures)}")
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(report))
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


def end_to_end(main_run: Dict[str, Any], setups: List[Dict[str, Any]]) -> Dict[str, Any]:
    cycle_s = main_run["cycle_ref_s"]
    percentile, tail = tail_percentile(cycle_s)
    activations = main_run["counts"].get("node.activations", 0)
    setup_s = [episode["setup_ref_s"] for episode in [main_run] + setups]
    values = {
        "setup_s": statistics.median(setup_s),
        "node_cycles_per_s": activations / sum(cycle_s),
        "cycle_ms_p50": statistics.median(cycle_s) * 1e3,
        "cycle_ms_tail": tail * 1e3,
        "peak_rss_mb": main_run["peak_rss_kb"] / 1024,
        "view_fill": main_run["stats"]["view_fill"],
    }
    stats = main_run["stats"]
    counts = main_run["counts"]
    requests = counts.get("channel.requests", 0)
    extra = {
        "exchange_fail_ratio": (counts.get("channel.failed", 0) / requests if requests else 0.0, "ratio"),
        "traffic_kb_per_cycle": (stats["traffic_bytes"] / 1e3 / len(cycle_s), "kB"),
    }
    if "malicious_link_fraction" in main_run:
        extra["malicious_link_fraction"] = (main_run["malicious_link_fraction"], "fraction")
        extra["attackers_blacklisted"] = (stats["attackers_blacklisted"], "fraction")
    if "checkpoint_mb" in main_run:
        extra["checkpoint_s"] = (main_run["checkpoint_ref_s"], "s")
        extra["resume_s"] = (main_run["resume_ref_s"], "s")
        extra["checkpoint_mb"] = (main_run["checkpoint_mb"], "MB")
    for name, value in values.items():
        print(f"{name:<24} {value:14.4f} {END_TO_END_UNITS[name]}")
    print(f"# cycle_ms_tail is p{percentile:.1f} of {len(cycle_s)} timed cycles")
    probes = main_run["probes"]
    print(
        f"# timings rescaled to reference host speed: unscaled cycle_ms_p50 "
        f"{statistics.median(main_run['cycle_s']) * 1e3:.4f} ms; "
        + "; ".join(
            f"{len(times)} {where} probes, median {statistics.median(times) * 1e3:.4f} ms"
            for where, times in probes.items() if times
        )
    )
    for name, (value, unit) in extra.items():
        print(f"{name:<24} {value:14.4f} {unit}   (workload-specific, not gated)")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def traced_metrics(
    name: str, plain: Dict[str, Any], traced: Dict[str, Any]
) -> Tuple[Dict[str, Any], List[str]]:
    failures = []
    if name != "sharded":
        # Free-running shards interleave cross-shard dialogues by host
        # timing, so only their set-up is reproducible.
        if traced["digest"] != plain["digest"]:
            failures.append("traced run's state digest differs from the untraced run")
        if traced["stats"] != plain["stats"]:
            failures.append("traced run's simulated statistics differ from the untraced run")
    if traced["build_digest"] != plain["build_digest"]:
        failures.append("traced set-up differs from the untraced one")
    failures += traced["failures"]
    layers = traced["layers"]
    wall = measured_s(traced)
    self_sum = sum(traced["self_ms"].values()) / 1e3
    # At reference speed: the two episodes may see different host speeds.
    layers["trace.overhead_pct"] = (measured_s(traced, True) / measured_s(plain, True) - 1.0) * 100.0
    layers["trace.self_sum_ratio"] = self_sum / wall
    if abs(self_sum / wall - 1.0) > 0.05:
        failures.append(f"self times sum to {self_sum:.3f}s against {wall:.3f}s traced wall")
    for metric, value in layers.items():
        print(f"{metric:<26} {value:16.4f} {LAYER_UNITS[metric]}")
    ranked = sorted(traced["self_ms"].items(), key=lambda item: -item[1])
    print("# self time by span (ms, share of traced wall):")
    for span, ms in ranked[:12]:
        print(f"#   {span:<22} {ms:12.1f}  {ms / 1e3 / wall:6.1%}")
    print(f"# largest self time: {ranked[0][0]}")
    return {metric: {"value": value, "unit": LAYER_UNITS[metric]} for metric, value in layers.items()}, failures


if __name__ == "__main__":
    sys.exit(main())
