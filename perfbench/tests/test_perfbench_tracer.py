"""Self-time accounting and patch coverage of the layer tracer."""

import inspect

import pytest

from run import tail_percentile
from tracer import Tracer, install


class FakeClock:
    """Advances by a fixed step per reading, so span durations are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def test_self_time_is_total_minus_children_and_sums_to_wall():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)

    def root():
        clock.advance(3.0)
        wrapped_middle()
        wrapped_leaf()
        clock.advance(0.25)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    start = clock()
    tracer.span("root", root)
    wall = clock() - start

    calls = {name: entry[0] for name, entry in tracer.stats.items()}
    total = {name: entry[1] for name, entry in tracer.stats.items()}
    self_s = tracer.self_times()
    assert calls == {"leaf": 2, "middle": 1, "root": 1}
    assert total == {"leaf": 4.0, "middle": 3.5, "root": 8.75}
    assert self_s["middle"] == total["middle"] - 2.0
    assert self_s["root"] == total["root"] - total["middle"] - 2.0
    assert self_s["leaf"] == total["leaf"]
    assert sum(self_s.values()) == pytest.approx(wall)


def test_same_name_nesting_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def base():
        clock.advance(1.0)

    wrapped_base = tracer.wrap("init", base)

    def derived():
        clock.advance(1.0)
        wrapped_base()

    tracer.wrap("init", derived)()
    calls, total, self_s = tracer.stats["init"]
    assert (calls, total, self_s) == (2, 2.0, 2.0)


def test_exceptions_close_spans_and_reach_hooks():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def failing():
        clock.advance(1.0)
        raise KeyError("x")

    wrapped = tracer.wrap("f", failing, lambda t, a, k, r, e: seen.append(type(e)))
    with pytest.raises(KeyError):
        tracer.span("root", wrapped)
    assert seen == [KeyError]
    assert tracer.stats["f"][1] == 1.0
    assert tracer.self_times()["root"] == 0.0


def test_name_bound_imports_are_patched_and_restored():
    import repro.core.descriptor as descriptor_mod
    import repro.core.node as node_mod
    import repro.core.samples as samples_mod
    import repro.experiments.scenarios as scenarios_mod

    original_verify = descriptor_mod.verify_descriptor
    original_bootstrap = scenarios_mod.bootstrap_secure
    tracer = Tracer()
    bound = install(tracer)
    try:
        for name in (
            "repro.core.descriptor.verify_descriptor",
            "repro.core.node.verify_descriptor",
            "repro.core.samples.verify_descriptor",
        ):
            assert name in bound["verify_descriptor"]
        assert "repro.experiments.scenarios.bootstrap_secure" in bound["bootstrap_secure"]
        for module in (descriptor_mod, node_mod, samples_mod):
            assert inspect.unwrap(module.verify_descriptor) is original_verify
            assert module.verify_descriptor is not original_verify
        assert scenarios_mod.bootstrap_secure is not original_bootstrap
    finally:
        tracer.unpatch()
    for module in (descriptor_mod, node_mod, samples_mod):
        assert module.verify_descriptor is original_verify
    assert scenarios_mod.bootstrap_secure is original_bootstrap


def test_untimed_tracer_only_counts():
    from repro.sim.channel import Channel
    from repro.core.node import SecureCyclonNode

    original = Channel.__dict__["request"]
    original_begin = SecureCyclonNode.__dict__["begin_cycle"]
    tracer = Tracer(timed=False)
    install(tracer)
    try:
        assert Channel.__dict__["request"] is not original
        assert SecureCyclonNode.__dict__["begin_cycle"] is original_begin
    finally:
        tracer.unpatch()
    assert Channel.__dict__["request"] is original
    assert tracer.stats == {}


def test_tail_percentile_keeps_ten_samples_above():
    samples = [float(i) for i in range(40)]
    percentile, value = tail_percentile(samples)
    assert percentile == 75.0
    assert sum(1 for s in samples if s > value) == 10


def test_cycle_timer_rescales_each_stretch_by_the_probes_around_it(monkeypatch):
    import time

    import speed

    # The host reads twice as slow as the reference at every probe.
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_PROBE_S)
    monkeypatch.setattr(speed, "boundary", lambda: 2 * speed.REFERENCE_PROBE_S)

    class Node:
        def run_cycle(self):
            time.sleep(speed.PROBE_INTERVAL_S)

    timer = speed.CycleTimer()
    timer.install([Node])
    try:
        host, reference = timer.run(lambda: [Node().run_cycle() for _ in range(5)])
    finally:
        timer.uninstall()
    assert "__wrapped__" not in vars(Node.__dict__["run_cycle"])
    assert len(timer.in_cycle) >= 4
    assert reference == pytest.approx(host / 2)
