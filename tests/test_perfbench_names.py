"""The entry points that perfbench's per-layer tracer wraps still exist.

`perfbench/layers.py` replaces named brsim methods and functions with timing
wrappers, so renaming or deleting one breaks the benchmark. Installing the
tracer fails with AttributeError on a missing name, and a renamed hook
point leaves its counter at zero. The tracer files events by class, so a
renamed or split arrival class would leave the arrival counts at zero too.
"""

import pathlib

from brsim import simulation
from brsim.engine import Engine
from brsim.scenario import load_scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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
    exact = tracer.exact()
    for name in (
        "engine.events",
        "engine.events.arrive",
        "channel.sir_checks",
        "channel.arrivals_scheduled",
        "rng.draws",
        "rng.coin_flips",
        "simulation.cca_checks",
        # nodes put these on the air through transmit_at, not transmit
        "simulation.transmissions.routing",
        "simulation.transmissions.ack",
        "protocol.handshakes",
        "protocol.hop_attempts",
        "protocol.backoffs",
    ):
        assert exact[name] > 0, name
    assert Engine.run_until is run_until
