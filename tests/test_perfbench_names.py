"""The entry points that perfbench's per-layer tracer wraps still exist.

`perfbench/layers.py` replaces named brsim methods and functions with timing
wrappers, so renaming or deleting one breaks the benchmark. Installing the
tracer fails with AttributeError on a missing name, and a renamed hook
point leaves its counter at zero. The tracer files events by class, so a
renamed or split arrival class would leave the arrival counts at zero too.
The exact counts of two fixed runs are pinned, so a skipped or extra call
of a wrapped name fails as well.
"""

import pathlib

from brsim import simulation
from brsim.engine import Engine
from brsim.scenario import load_scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# Tracer.exact() after tandem12 at 5 nodes, seed 0, br then aodv, both traced.
# Nodes put routing frames and acks on the air through transmit_at, not
# transmit, and cli.trace_lines is 0 because traced runs stream their trace
# to a file instead of returning it.
TANDEM5_SEED0 = {
    "engine.events": 4000,
    "engine.events.arrive": 1114,
    "engine.events.timer": 1384,
    "engine.events.epoch": 1200,
    "engine.events.beacon": 302,
    "engine.heap_peak": 26,
    "rng.draws": 654,
    "rng.coin_flips": 1204,
    "channel.link_queries": 656,
    "channel.link_pairs": 24,
    "channel.sir_checks": 2160,
    "channel.arrivals_scheduled": 1116,
    "channel.arrivals_accepted": 2130,
    "simulation.transmissions.src_bcast": 189,
    "simulation.transmissions.response": 305,
    "simulation.transmissions.routing": 189,
    "simulation.transmissions.ack": 160,
    "simulation.transmissions.dst_bcast": 302,
    "simulation.cca_checks": 316,
    "simulation.cca_busy": 0,
    "protocol.handshakes": 189,
    "protocol.hop_attempts": 189,
    "protocol.hops_acked": 160,
    "protocol.backoffs": 29,
    "protocol.coins_listen": 1001,
    "cli.trace_lines": 0,
}


def test_tracer_wraps_counts_and_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    run_until = Engine.run_until
    tracer = layers.Tracer()
    try:
        tracer.install()
        scenario = load_scenario("tandem12", ["topology.count=5"])
        for protocol in ("br", "aodv"):
            # a traced run: the tracer reads its RunMetrics.trace
            simulation.run_scenario(scenario, protocol, 0, trace_path=str(tmp_path / protocol))
    finally:
        tracer.uninstall()
    # every count of these two runs, so that a hot-path edit that skips or
    # adds a wrapped call fails here instead of moving perfbench's counts
    assert tracer.exact() == TANDEM5_SEED0
    assert Engine.run_until is run_until
