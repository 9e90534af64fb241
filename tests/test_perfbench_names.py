"""The entry points that perfbench's per-layer tracer wraps still exist.

`perfbench/layers.py` replaces named brsim methods and functions with timing
wrappers, so renaming or deleting one breaks the benchmark. Installing the
tracer fails with AttributeError on a missing name, and a renamed hook
point leaves its counter at zero. The tracer files events by class, so a
renamed or split arrival class would leave the arrival counts at zero too.
The exact counts of two fixed runs are pinned, traced and untraced, so a
skipped or extra call of a wrapped name fails as well.
"""

import pathlib

from brsim import simulation
from brsim.engine import Engine
from brsim.scenario import load_scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# Tracer.exact() after tandem12 at 5 nodes, seed 0, br then aodv, both traced.
# Nodes put routing frames and acks on the air through transmit_at, not
# transmit, and cli.trace_lines is 0 because traced runs stream their trace
# to a file instead of returning it. A br epoch coin is a keyed hash, not a
# stream draw, so no run calls Engine.bernoulli: rng.coin_flips and
# protocol.coins_listen are 0. A br station runs epochs only while it holds
# a packet, so the traced br run takes 603 epochs, not 1200.
TANDEM5_SEED0 = {
    "engine.events": 3365,
    "engine.events.arrive": 1100,
    "engine.events.timer": 1360,
    "engine.events.epoch": 603,
    "engine.events.beacon": 302,
    "engine.heap_peak": 25,
    "rng.draws": 640,
    "rng.coin_flips": 0,
    "channel.link_queries": 642,
    "channel.link_pairs": 24,
    "channel.sir_checks": 2141,
    "channel.arrivals_scheduled": 1102,
    "channel.arrivals_accepted": 2119,
    "simulation.transmissions.src_bcast": 184,
    "simulation.transmissions.response": 296,
    "simulation.transmissions.routing": 184,
    "simulation.transmissions.ack": 160,
    "simulation.transmissions.dst_bcast": 302,
    "simulation.cca_checks": 316,
    "simulation.cca_busy": 0,
    "protocol.handshakes": 184,
    "protocol.hop_attempts": 184,
    "protocol.hops_acked": 160,
    "protocol.backoffs": 24,
    "protocol.coins_listen": 0,
    "cli.trace_lines": 0,
}


# The same two runs untraced, as the end-to-end benchmark runs them: each
# stops at quiescence and leaves out beacon arrivals at stations that already
# hold a destination reading, so fewer events, arrivals and beacons.
TANDEM5_SEED0_UNTRACED = {
    **TANDEM5_SEED0,
    "engine.events": 3021,
    "engine.events.arrive": 802,
    "engine.events.timer": 1358,
    "engine.events.epoch": 602,
    "engine.events.beacon": 259,
    "channel.sir_checks": 949,
    "channel.arrivals_scheduled": 802,
    "channel.arrivals_accepted": 927,
    "simulation.transmissions.dst_bcast": 259,
}


def tandem5_counts(monkeypatch, trace_dir):
    """Tracer.exact() of the tandem5 pair; traced runs write to `trace_dir`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    run_until = Engine.run_until
    tracer = layers.Tracer()
    try:
        tracer.install()
        scenario = load_scenario("tandem12", ["topology.count=5"])
        for protocol in ("br", "aodv"):
            trace_path = None if trace_dir is None else str(trace_dir / protocol)
            simulation.run_scenario(scenario, protocol, 0, trace_path=trace_path)
    finally:
        tracer.uninstall()
    assert Engine.run_until is run_until
    return tracer.exact()


def test_tracer_wraps_counts_and_restores(monkeypatch, tmp_path):
    # every count of these two runs, so that a hot-path edit that skips or
    # adds a wrapped call fails here instead of moving perfbench's counts
    assert tandem5_counts(monkeypatch, tmp_path) == TANDEM5_SEED0


def test_tracer_counts_of_untraced_runs(monkeypatch):
    assert tandem5_counts(monkeypatch, None) == TANDEM5_SEED0_UNTRACED
