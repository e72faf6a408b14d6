"""Layer tracer: wraps the public functions of each layer from outside.

Nothing under ``src/`` knows about it.  :func:`install` replaces layer
entry points (class attributes, and module-level functions in every
``repro`` module that bound them by name) with wrappers that record,
per layer name, the call count, the total (inclusive) time and the
self time -- the span's duration minus the part its child spans cover.
Self times of all spans therefore sum to the root span's duration.

Two modes share one patch table:

* ``timed=True``: every entry is wrapped with a span and its counters.
* ``timed=False``: only the entries that feed end-to-end metrics
  (dialogue outcomes, activations, frame bytes, worker counters) are
  wrapped, by counting wrappers that never read the clock.

Wrappers draw no randomness and return what the wrapped function
returns, so a traced run's simulated state equals the untraced one's;
the benchmark checks that on every traced run.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Prefix of counters shipped back from shard workers through
#: ``ShardWorker._final_state`` (their spans are not collected).
WORKER_PREFIX = "perfbench:"


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self, timed: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.timed = timed
        self.clock = clock
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        # Open spans, innermost last.
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_start: Optional[float] = None

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name`` (untimed: just call)."""
        if not self.timed:
            return fn(*args, **kwargs)
        return self.wrap(name, fn)(*args, **kwargs)

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    def self_times(self) -> Dict[str, float]:
        return {name: entry[2] for name, entry in self.stats.items()}

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: Any, fn: Callable, hook: Any = None) -> Callable:
        """A wrapper of ``fn`` recording span ``name``.

        ``name`` may be a callable of the tracer, to name the span
        after its caller, or None to count without a span.  ``hook``
        is a counter name to bump once per call, or ``hook(tracer,
        args, kwargs, result, raised)`` run after each call, where
        ``raised`` is the exception or None.
        The bodies are flat on purpose: the flood path makes millions
        of wrapped calls per traced run.
        """
        tracer = self
        counts = self.counts
        count_key = hook if isinstance(hook, str) else None
        call_hook = None if isinstance(hook, str) else hook

        if not self.timed or name is None:
            def counting(*args: Any, **kwargs: Any) -> Any:
                if count_key is not None:
                    counts[count_key] += 1
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    call_hook(tracer, args, kwargs, None, exc)
                    raise
                call_hook(tracer, args, kwargs, result, None)
                return result

            counting.__wrapped__ = fn
            return counting

        stack = self._stack
        clock = self.clock
        stats = self.stats
        dynamic = callable(name)

        def timed(*args: Any, **kwargs: Any) -> Any:
            span = name(tracer) if dynamic else name
            # A frame is [span name, time covered by child spans].
            frame = [span, 0.0]
            stack.append(frame)
            raised = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = stats.get(span)
                if entry is None:
                    entry = stats[span] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    # A subclass method calling its base under the same
                    # name is one call for the inclusive total.
                    if parent[0] != span:
                        entry[1] += elapsed
                else:
                    entry[1] += elapsed
                if count_key is not None:
                    counts[count_key] += 1
                elif call_hook is not None:
                    call_hook(tracer, args, kwargs, result, raised)

        timed.__wrapped__ = fn
        return timed

    def patch_attr(self, owner: Any, attr: str, name: Any, hook: Any = None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def patch_function(
        self,
        module: Any,
        attr: str,
        name: Any,
        hook: Any = None,
        inner: Optional[Callable[[Callable], Callable]] = None,
    ) -> List[str]:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the reference into the importing
        module, so patching only the defining module would let calls
        through the copies escape the span.  Returns the qualified
        names of every binding replaced.  ``inner`` may wrap the
        original first, for counters that must look before the call.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(name, inner(original) if inner else original, hook)
        replaced = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    replaced.append(f"{mod_name}.{key}")
        return replaced

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- garbage collector -----------------------------------------------

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.counts["gc.collections"] += 1
            self.counts["gc.pause_s"] += self.clock() - self._gc_start
            self._gc_start = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)


# ----------------------------------------------------------------------
# counter hooks
# ----------------------------------------------------------------------


def _channel_hook(tracer, args, kwargs, result, raised):
    from repro.sim.channel import MessageDropped

    tracer.counts["channel.requests"] += 1
    if isinstance(raised, MessageDropped):
        tracer.counts["channel.failed"] += 1


def _encode_hook(tracer, args, kwargs, result, raised):
    if raised is None:
        tracer.counts["codec.encode.calls"] += 1
        tracer.counts["codec.frame_bytes"] += len(result)


def _observe_stream_hook(tracer, args, kwargs, result, raised):
    tracer.counts["observe.descriptors"] += len(args[1])


def _adopt_hook(tracer, args, kwargs, result, raised):
    validated = kwargs.get("already_validated", args[3] if len(args) > 3 else False)
    if validated:
        tracer.counts["observe.proofs_found"] += 1


def _blacklist_add_hook(tracer, args, kwargs, result, raised):
    if result and "push.receive" in (frame[0] for frame in tracer._stack):
        tracer.counts["push.adopted"] += 1


def _worker_start_hook(tracer, args, kwargs, result, raised):
    """A forked worker inherits the parent's counters and pages: note both."""
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    tracer.worker_base = (Counter(tracer.counts), resident_pages * PAGE_KB)


def _final_state_hook(tracer, args, kwargs, result, raised):
    """Ship this worker's counters back inside the FINAL envelope.

    Only what the worker added since it started, so summing the
    shards' counters with the parent's counts nothing twice; memory is
    the worker's growth past the pages it shares with the parent.
    """
    if raised is None:
        base, base_rss = tracer.worker_base
        counters = result["counters"]
        for key, value in (tracer.counts - base).items():
            counters[WORKER_PREFIX + key] = value
        counters[WORKER_PREFIX + "rss_growth_kb"] = peak_rss_kb() - base_rss


PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def peak_rss_kb() -> int:
    """This process's peak resident set size, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _verify_memo_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """verify_descriptor: count answers served by the per-object memo."""

    def check(descriptor, registry, *rest, **kwargs):
        if descriptor._verified_by is registry:
            tracer.counts["verify.memo_hits"] += 1
        return fn(descriptor, registry, *rest, **kwargs)

    check.__wrapped__ = fn
    return check


# ----------------------------------------------------------------------
# the patch table
# ----------------------------------------------------------------------


def node_classes() -> Tuple[type, ...]:
    """The node classes whose ``run_cycle`` is one activation."""
    from repro.adversary.hub import SecureHubAttacker
    from repro.core.node import SecureCyclonNode

    return (SecureCyclonNode, SecureHubAttacker)


def install(tracer: Tracer) -> Dict[str, List[str]]:
    """Patch every layer boundary; returns the function bindings replaced.

    Imports happen here, after the workload's modules are loaded, so
    ``patch_function`` finds every name-bound copy.
    """
    import repro.bootstrap as bootstrap_mod
    import repro.core.codec as codec_mod
    import repro.core.descriptor as descriptor_mod
    import repro.experiments.scenarios  # noqa: F401 - binds bootstrap_secure
    import repro.ops.checkpoint as checkpoint_mod
    from repro.core.blacklist import Blacklist
    from repro.core.codec_batch import BatchEncoder, FastDecoder
    from repro.core.proofs import CloningProof, FrequencyProof, ViolationProof
    from repro.core.samples import SampleCache
    from repro.crypto.batch import VerificationPlan
    from repro.crypto.registry import KeyRegistry
    from repro.ops.metrics_stream import StreamingObserver
    from repro.sim.channel import Channel
    from repro.sim.network import Network
    from repro.sim.scheduler import CycleScheduler, EventScheduler
    from repro.sim.shard import ShardWorker
    from repro.sim.shardcoord import ShardedSession

    timed = tracer.timed
    bound: Dict[str, List[str]] = {}

    def attr(owner, name, span, hook=None, counted=False):
        if timed or counted:
            if name in owner.__dict__:
                tracer.patch_attr(owner, name, span, hook)

    def function(module, name, span, hook=None, inner=None):
        if timed:
            bound[name] = tracer.patch_function(module, name, span, hook, inner)

    # Counted in every run: they feed end-to-end metrics.
    attr(Channel, "request", "channel", _channel_hook, counted=True)
    for cls in node_classes():
        attr(cls, "run_cycle", "node.run_cycle", "node.activations", counted=True)
    attr(BatchEncoder, "encode", "codec.encode", _encode_hook, counted=True)
    attr(BatchEncoder, "encode_frames", "codec.encode", _encode_hook, counted=True)
    attr(ShardWorker, "__init__", "shard.worker", _worker_start_hook, counted=True)
    attr(ShardWorker, "_final_state", "shard.worker", _final_state_hook, counted=True)

    # Timed runs only.
    attr(KeyRegistry, "new_keypair", "setup.keys")
    for cls in node_classes():
        attr(cls, "__init__", "setup.nodes")
        attr(cls, "begin_cycle", "node.begin_cycle")
        attr(cls, "receive", "node.receive")
        attr(cls, "receive_push", "push.receive", "push.delivered")
        # Counted, not spanned: one call per flooded proof received,
        # and a span here doubles the tracer's cost on the flood path.
        attr(cls, "_adopt_proof", None, _adopt_hook)
    function(bootstrap_mod, "bootstrap_secure", "setup.bootstrap")
    attr(CycleScheduler, "run", "scheduler")
    attr(EventScheduler, "run", "scheduler")
    attr(Network, "push", "push.send", "push.sent")
    attr(FastDecoder, "decode", "codec.decode")
    attr(FastDecoder, "decode_frames", "codec.decode")
    function(codec_mod, "encode_message", "codec.record")
    function(codec_mod, "decode_message", "codec.record")
    function(descriptor_mod, "verify_descriptor", "verify", "verify.calls",
             inner=lambda fn: _verify_memo_wrapper(tracer, fn))
    attr(VerificationPlan, "verify", "verify.plan")
    attr(VerificationPlan, "verify_batch", "verify.plan")
    attr(descriptor_mod.SecureDescriptor, "transfer", "descriptor.sign")
    attr(descriptor_mod.SecureDescriptor, "redeem", "descriptor.sign")
    function(descriptor_mod, "mint", "descriptor.sign")
    attr(SampleCache, "observe", "observe", "observe.descriptors")
    attr(SampleCache, "observe_stream", "observe", _observe_stream_hook)
    attr(SampleCache, "observe_stream_planned", "observe", _observe_stream_hook)
    attr(SampleCache, "expire", "observe.expire")
    for cls in (ViolationProof, CloningProof, FrequencyProof):
        attr(cls, "validate", "proofs.validate", "proofs.validate.calls")
    attr(Blacklist, "add", None, _blacklist_add_hook)
    attr(StreamingObserver, "on_cycle_end", "observer")
    function(checkpoint_mod, "save_checkpoint", "checkpoint.save")
    function(checkpoint_mod, "read_checkpoint", "checkpoint.read")
    function(checkpoint_mod, "restore_checkpoint", "checkpoint.apply")
    attr(ShardedSession, "start", "shard.start")
    attr(ShardedSession, "run_cycles", "shard.cycle")
    attr(ShardedSession, "finish", "shard.finish")
    # Waiting for the workers inside run_cycles is the cycle wait; the
    # same calls under start/finish are lifecycle waits.
    wait = lambda t: "shard.cycle_wait" if t.parent_name() == "shard.cycle" else "shard.wait"  # noqa: E731
    attr(ShardedSession, "_collect_all", wait)
    attr(ShardedSession, "_collect_any", wait)
    if timed:
        tracer.watch_gc()
    return bound
