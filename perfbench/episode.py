"""One episode of one workload, in a fresh process.

    python3 perfbench/episode.py --workload paper-attack --seed 1 \\
        --cycles 26 --mode run --trace 0 --scratch .perfbench_scratch

``--mode setup`` only sets the overlay up (a ``setup_s`` sample);
``--mode run`` sets up, runs the timed cycles and the workload's
extras.  The result is one JSON object on the last line of stdout.
``run.py`` starts this script once per episode, so no episode inherits
another's heap or collector state.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Any, Dict

import workloads
from tracer import Tracer, install


def layer_metrics(result: Dict[str, Any], tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced episode."""
    stats = tracer.stats
    counts = result["counts"]
    setup_spans = result.pop("setup_spans")

    def self_ms(*names: str) -> float:
        return sum(stats[name][2] for name in names if name in stats) * 1e3

    def total_s(name: str, source=stats) -> float:
        return source[name][1] if name in source else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cycles = result["cycles"]
    encodes = counts.get("codec.encode.calls", 0)
    sharded = result.get("finish_s") is not None
    return {
        "setup.keys_s": total_s("setup.keys", setup_spans),
        "setup.nodes_s": total_s("setup.nodes", setup_spans),
        "setup.bootstrap_s": total_s("setup.bootstrap", setup_spans),
        "scheduler.self_ms": self_ms("scheduler"),
        "node.run_cycle.self_ms": self_ms("node.run_cycle"),
        "node.receive.self_ms": self_ms("node.receive"),
        "node.activations": counts.get("node.activations", 0),
        "channel.requests": counts.get("channel.requests", 0),
        "channel.failed": counts.get("channel.failed", 0),
        "channel.self_ms": self_ms("channel"),
        "push.sent": counts.get("push.sent", 0),
        "push.self_ms": self_ms("push.send", "push.receive"),
        "push.useful_ratio": ratio(counts.get("push.adopted", 0), counts.get("push.delivered", 0)),
        "codec.encode.calls": encodes,
        "codec.encode.self_ms": self_ms("codec.encode"),
        "codec.decode.self_ms": self_ms("codec.decode"),
        "codec.frame_bytes_mean": ratio(counts.get("codec.frame_bytes", 0), encodes),
        "codec.intern_hit_rate": result["intern_hit_rate"],
        "verify.calls": counts.get("verify.calls", 0),
        "verify.self_ms": self_ms("verify", "verify.plan"),
        "verify.memo_hit_ratio": ratio(counts.get("verify.memo_hits", 0), counts.get("verify.calls", 0)),
        "descriptor.sign.self_ms": self_ms("descriptor.sign"),
        "observe.descriptors": counts.get("observe.descriptors", 0),
        "observe.self_ms": self_ms("observe", "observe.expire"),
        "observe.proofs_found": counts.get("observe.proofs_found", 0),
        "proofs.validate.calls": counts.get("proofs.validate.calls", 0),
        "proofs.validate.self_ms": self_ms("proofs.validate"),
        "blacklist.proofs_held": result["stats"]["blacklist_proofs"],
        "observer.self_ms": self_ms("observer"),
        "checkpoint.save_s": total_s("checkpoint.save"),
        "checkpoint.read_s": total_s("checkpoint.read"),
        "checkpoint.apply_s": total_s("checkpoint.apply") - total_s("checkpoint.read"),
        "checkpoint.rebuild_s": total_s("checkpoint.rebuild"),
        "shard.start_s": total_s("shard.start"),
        "shard.cycle_wait_ms": ratio(total_s("shard.cycle_wait"), cycles) * 1e3,
        "shard.finish_s": total_s("shard.finish"),
        "shard.cross_bytes": counts.get("codec.frame_bytes", 0) if sharded else 0,
        "gc.pause_ms": counts.get("gc.pause_s", 0.0) * 1e3,
        "gc.collections": counts.get("gc.collections", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="test-sized overlay")
    parser.add_argument("--scratch", required=True, help="directory for checkpoint files")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    nodes = workload.smoke_nodes if args.smoke else workload.nodes
    # Import the whole stack before patching, so every name-bound copy
    # of a wrapped function exists when the tracer looks for it.
    import repro.experiments.scenarios  # noqa: F401
    import repro.ops.checkpoint  # noqa: F401
    import repro.ops.metrics_stream  # noqa: F401
    import repro.sim.shardcoord  # noqa: F401

    tracer = Tracer(timed=bool(args.trace))
    bound = install(tracer)
    gc.collect()
    if args.mode == "setup":
        state = workloads.setup(args.workload, args.seed, nodes, tracer)
        if "session" in state:
            state["session"].close()
        result = {key: state[key] for key in ("setup_s", "setup_ref_s", "build_digest")}
    else:
        result = workloads.run_episode(
            args.workload, args.seed, nodes, args.cycles, tracer, args.scratch
        )
        if args.trace:
            result["layers"] = layer_metrics(result, tracer)
            result["self_ms"] = {name: entry[2] * 1e3 for name, entry in tracer.stats.items()}
            result["bound"] = bound
        else:
            result.pop("setup_spans")
    tracer.unpatch()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the overlay's heap object by object at exit: it
    # takes seconds on the larger workloads and measures nothing.
    os._exit(status)
