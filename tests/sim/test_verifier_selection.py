"""The chain verifier follows the engine's message transport.

``Engine.add_node`` is the one place that picks a node's verifier: on a
wire-transport engine every SecureCyclon node verifying against the
engine's registry shares ``engine.verification_plan()``; on an
object-transport engine, and outside any engine, nodes keep the
sequential verifier.
"""

import pytest

from repro.adversary.hub import SecureHubAttacker
from repro.core.config import SecureCyclonConfig
from repro.core.node import SecureCyclonNode
from repro.crypto.registry import KeyRegistry
from repro.experiments.scenarios import build_secure_overlay
from repro.sim.clock import SimClock
from repro.sim.engine import SimConfig
from repro.sim.network import NetworkAddress
from repro.sim.rng import RngHub
from repro.sim.transport import ENV_TRANSPORT

NODES = 24
MALICIOUS = 3
WIRE = SecureCyclonConfig(view_length=6, swap_length=3, transport="wire")


def _overlay(config=None, sim_config=None):
    return build_secure_overlay(
        n=NODES,
        config=config or SecureCyclonConfig(view_length=6, swap_length=3),
        malicious=MALICIOUS,
        attack_start=1,
        seed=9,
        sim_config=sim_config,
    )


def _standalone_node(registry):
    keypair = registry.new_keypair(RngHub(3).stream("keys"))
    return SecureCyclonNode(
        keypair=keypair,
        address=NetworkAddress(host=1, port=1),
        config=WIRE,
        clock=SimClock(period_seconds=10.0),
        registry=registry,
        rng=RngHub(3).stream("node"),
    )


def test_object_overlay_runs_without_a_plan(monkeypatch):
    monkeypatch.delenv(ENV_TRANSPORT, raising=False)
    overlay = _overlay()
    overlay.run(3)
    engine = overlay.engine
    assert engine._verification_plan is None
    assert all(node._vplan is None for node in engine.nodes.values())


@pytest.mark.parametrize(
    "config, sim_config",
    [
        (WIRE, None),
        (None, SimConfig(seed=9, transport="wire")),
    ],
    ids=["protocol-config", "sim-config"],
)
def test_wire_overlay_shares_the_engine_plan(monkeypatch, config, sim_config):
    monkeypatch.delenv(ENV_TRANSPORT, raising=False)
    overlay = _overlay(config, sim_config)
    engine = overlay.engine
    plan = engine.verification_plan()
    secure_nodes = [
        node
        for node in engine.nodes.values()
        if isinstance(node, SecureCyclonNode)
    ]
    assert len(secure_nodes) == NODES
    attackers = [n for n in secure_nodes if isinstance(n, SecureHubAttacker)]
    assert len(attackers) == MALICIOUS
    assert all(node._vplan is plan for node in secure_nodes)
    overlay.run(3)
    assert engine._verification_plan is plan
    assert plan.chains_verified > 0


def test_wire_engine_leaves_foreign_registry_nodes_alone(monkeypatch):
    monkeypatch.delenv(ENV_TRANSPORT, raising=False)
    engine = _overlay(WIRE).engine
    foreign = _standalone_node(KeyRegistry())
    engine.add_node(foreign)
    assert foreign._vplan is None


def test_standalone_node_has_no_plan():
    assert _standalone_node(KeyRegistry())._vplan is None
