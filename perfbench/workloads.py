"""The benchmark's workloads: how each builds its overlay and runs.

Every workload is a pure function of its seed (and of ``cycles``,
which the runner derives from ``--seconds`` alone), so two runs with
one seed simulate exactly the same thing.  Each returns plain data:
host timings, the simulated statistics, and a digest of the final
protocol state for the correctness checks in :mod:`episode`.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import os
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import speed
from tracer import WORKER_PREFIX, Tracer, node_classes, peak_rss_kb


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed cycles when ``--seconds`` equals ``REFERENCE_SECONDS``.
    cycles: int
    #: Node count at full and at smoke size.
    nodes: int
    smoke_nodes: int
    #: Run the traced episode beside the untraced one, not after it.
    #: Only for one-process workloads small enough to hold twice in
    #: memory, where the trace's cost would otherwise make a traced
    #: run too long.
    trace_alongside: bool = False


#: The ``run_seconds`` the cycle counts above are sized for.
REFERENCE_SECONDS = 20

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper-attack", cycles=26, nodes=1000, smoke_nodes=60, trace_alongside=True),
        Workload("wire-event", cycles=20, nodes=300, smoke_nodes=40),
        Workload("sharded", cycles=30, nodes=500, smoke_nodes=60),
    )
}

#: paper-attack: 40 % SecureHubAttackers (the Fig 5 extreme row) that
#: start after this many clean cycles.
MALICIOUS_SHARE = 0.4
ATTACK_START = 3
SHARDS = 2
#: Fewest timed cycles a run may use: the attack must have started.
MIN_CYCLES = ATTACK_START + 2


def timed_cycles(workload: Workload, seconds: float) -> int:
    """Timed cycles for a run of ``seconds`` (never below the minimum)."""
    scaled = round(workload.cycles * seconds / REFERENCE_SECONDS)
    return max(MIN_CYCLES, scaled)


# ----------------------------------------------------------------------
# overlays
# ----------------------------------------------------------------------


def build(name: str, seed: int, nodes: int) -> Any:
    """Build one workload's overlay, with every knob at its default
    except the workload's semantic choices."""
    from repro.core.config import SecureCyclonConfig
    from repro.experiments.scenarios import build_secure_overlay

    if name == "paper-attack":
        from repro.ops.metrics_stream import StreamingObserver

        overlay = build_secure_overlay(
            n=nodes,
            malicious=round(nodes * MALICIOUS_SHARE),
            attack_start=ATTACK_START,
            seed=seed,
        )
        overlay.engine.add_observer(StreamingObserver())
        return overlay
    if name == "wire-event":
        from repro.sim.latency import LognormalLatency
        from repro.sim.scheduler import EventScheduler, PeriodJitter

        scheduler = EventScheduler(
            latency=LognormalLatency(median_s=0.5, sigma=0.5),
            jitter=PeriodJitter(mode="uniform", spread=0.1),
            timeout_s=5.0,
        )
        return build_secure_overlay(
            n=nodes,
            config=SecureCyclonConfig(transport="wire"),
            seed=seed,
            runtime=scheduler,
        )
    if name == "sharded":
        return build_secure_overlay(n=nodes, seed=seed)
    raise KeyError(name)


# ----------------------------------------------------------------------
# state digest and invariants
# ----------------------------------------------------------------------


def state_digest(engine: Any) -> str:
    """SHA-256 over every node's view, blacklist and sample-cache identities.

    Views carry each entry's chain digest, so a changed ownership hop
    changes the digest, not only a changed neighbour.
    """
    from repro.core.samples import _BY_TS, _TIMESTAMPS

    h = hashlib.sha256()
    for node_id in sorted(engine.nodes, key=lambda key: key.digest):
        node = engine.nodes[node_id]
        h.update(b"N" + node_id.digest)
        for entry in node.view:
            h.update(b"V" + entry.creator.digest)
            h.update(repr((entry.timestamp, entry.non_swappable)).encode())
            h.update(entry.descriptor.chain_digest())
        for culprit in sorted(node.blacklist.members(), key=lambda key: key.digest):
            h.update(b"B" + culprit.digest)
        cache = node.sample_cache._by_creator
        for creator in sorted(cache, key=lambda key: key.digest):
            slot = cache[creator]
            h.update(b"S" + creator.digest)
            for ts in slot[_TIMESTAMPS]:
                h.update(repr(ts).encode())
                h.update(slot[_BY_TS][ts].chain_digest())
    return h.hexdigest()


def invariant_failures(engine: Any) -> List[str]:
    """Protocol invariants every final state must satisfy.

    Verifies through the unwrapped function: the check is not traced work.
    """
    import repro.core.descriptor as descriptor_mod

    verify_descriptor = inspect.unwrap(descriptor_mod.verify_descriptor)
    failures = []
    registry = engine.registry
    for node in engine.legit_nodes():
        entries = list(node.view)
        if len(entries) > node.config.view_length:
            failures.append(f"view over capacity at {node.node_id!r}")
        for entry in entries:
            if entry.creator in node.blacklist:
                failures.append(f"blacklisted creator in view at {node.node_id!r}")
            if not verify_descriptor(entry.descriptor, registry):
                failures.append(f"unverifiable descriptor in view at {node.node_id!r}")
    return failures[:5]


def simulated_stats(engine: Any) -> Dict[str, Any]:
    """Deterministic statistics of the simulated run (no host timings)."""
    from repro.metrics.links import blacklisted_malicious_fraction, view_fill_fraction

    network = engine.network
    stats = {
        "cycle": engine.clock.cycle,
        "view_fill": view_fill_fraction(engine),
        "dialogues_opened": network.dialogues_opened,
        "pushes_sent": network.pushes_sent,
        "traffic_bytes": network.push_bytes
        + network.dialogue_bytes_forward
        + network.dialogue_bytes_backward,
        "blacklist_proofs": sum(len(node.blacklist) for node in engine.nodes.values()),
    }
    if engine.malicious_ids:
        stats["attackers_blacklisted"] = blacklisted_malicious_fraction(engine)
    return stats


# ----------------------------------------------------------------------
# episodes
# ----------------------------------------------------------------------


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def setup(name: str, seed: int, nodes: int, tracer: Tracer) -> Dict[str, Any]:
    """Build the overlay, and start the fleet on ``sharded``: the set-up
    a user of the workload waits for, timed as ``setup_s``."""
    state: Dict[str, Any] = {}
    before = speed.boundary()

    def make() -> None:
        state["overlay"] = tracer.span("setup", build, name, seed, nodes)
        if name == "sharded":
            from repro.sim.shardcoord import ShardedSession

            session = ShardedSession(state["overlay"], SHARDS, mode="free")
            state["session"] = session
            session.start()

    try:
        state["setup_s"] = _timed(make)
    except BaseException:
        if "session" in state:
            state["session"].close()
        raise
    state["setup_ref_s"] = speed.at_reference(state["setup_s"], before, speed.boundary())
    state["build_digest"] = state_digest(state["overlay"].engine)
    return state


def run_episode(
    name: str, seed: int, nodes: int, cycles: int, tracer: Tracer, scratch: str
) -> Dict[str, Any]:
    """Set up, run ``cycles`` timed cycles, then the workload's extras."""
    holder = setup(name, seed, nodes, tracer)
    result: Dict[str, Any] = {
        "cycles": cycles,
        "failures": [],
        "setup_s": holder["setup_s"],
        "build_digest": holder["build_digest"],
        "setup_ref_s": holder["setup_ref_s"],
        "setup_spans": {key: list(value) for key, value in tracer.stats.items()},
    }
    overlay = holder["overlay"]
    engine = overlay.engine
    session = holder.get("session")

    from repro.metrics.links import malicious_link_fraction

    cycle_s: List[float] = []
    cycle_ref_s: List[float] = []
    malicious_links: List[float] = []
    timer = speed.CycleTimer()
    if session is None and not tracer.timed:
        timer.install(node_classes())
    try:
        if session is not None:
            step = lambda: tracer.span("cycle", session.run_cycles, 1)  # noqa: E731
        else:
            step = lambda: tracer.span("cycle", overlay.run, 1)  # noqa: E731
        for _ in range(cycles):
            host, reference = timer.run(step)
            cycle_s.append(host)
            cycle_ref_s.append(reference)
            if overlay.malicious_nodes:
                malicious_links.append(malicious_link_fraction(engine))
        counters: Dict[str, int] = {}
        if session is not None:
            result["finish_s"] = _timed(lambda: counters.update(session.finish()))
    finally:
        timer.uninstall()
        if session is not None:
            session.close()
    result["cycle_s"] = cycle_s
    result["cycle_ref_s"] = cycle_ref_s
    result["probes"] = {"in-cycle": timer.in_cycle, "boundary": timer.boundaries}
    if malicious_links:
        result["malicious_link_fraction"] = sum(malicious_links) / len(malicious_links)

    counts = dict(tracer.counts)
    for key, value in counters.items():
        if key.startswith(WORKER_PREFIX):
            key = key[len(WORKER_PREFIX):]
            counts[key] = counts.get(key, 0) + value
    result["counts"] = counts
    stats = simulated_stats(engine)
    if session is not None:
        # The mirror runs no protocol code: the workers' network
        # counters are the run's traffic.
        for key in ("dialogues_opened", "pushes_sent"):
            stats[key] = counters.get(key, 0)
        stats["traffic_bytes"] = counts.get("codec.frame_bytes", 0)
    result["stats"] = stats
    result["digest"] = state_digest(engine)
    result["failures"] += invariant_failures(engine)
    result["intern_hit_rate"] = _intern_hit_rate(engine)

    if name == "wire-event":
        # Drop every reference to the run's overlay so the twin's
        # rebuild does not stack on top of it.
        del overlay, engine, step
        result.update(_checkpoint_resume(holder, name, seed, nodes, tracer, scratch))
        if result["resumed_digest"] != result["digest"]:
            result["failures"].append("resumed twin digest differs from checkpointed engine")
    result["peak_rss_kb"] = peak_rss_kb() + counts.pop("rss_growth_kb", 0)
    return result


def _intern_hit_rate(engine: Any) -> float:
    intern = getattr(engine.network.message_transport, "intern", None)
    return intern.hit_rate if intern is not None else 0.0


def _checkpoint_resume(
    holder: Dict[str, Any], name: str, seed: int, nodes: int, tracer: Tracer, scratch: str
) -> Dict[str, Any]:
    """Checkpoint the engine held in ``holder``, then rebuild a twin and
    restore into it; the original is released before the rebuild."""
    directory = os.path.join(scratch, str(os.getpid()))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "engine.ckpt")
    try:
        engine = holder.pop("overlay").engine
        before = speed.boundary()
        checkpoint_s = _timed(lambda: tracer.span("checkpoint", engine.checkpoint, path))
        checkpoint_bytes = os.path.getsize(path)
        del engine
        gc.collect()
        middle = speed.boundary()

        def resume() -> None:
            twin = tracer.span("checkpoint.rebuild", build, name, seed, nodes)
            tracer.span("checkpoint.restore", twin.engine.resume, path)
            holder["twin"] = twin

        resume_s = _timed(resume)
        after = speed.boundary()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "checkpoint_s": checkpoint_s,
        "resume_s": resume_s,
        "checkpoint_ref_s": speed.at_reference(checkpoint_s, before, middle),
        "resume_ref_s": speed.at_reference(resume_s, middle, after),
        "checkpoint_mb": checkpoint_bytes / 1e6,
        "resumed_digest": state_digest(holder["twin"].engine),
    }
