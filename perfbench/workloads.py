"""The benchmark's workloads and the per-run timer they share.

Every workload runs single-process (`--jobs 1`, no threads) and is cut into
passes: a pass is one fixed job list, and a measurement repeats passes with
fresh simulation seeds until its time is up. The first pass of a measurement
is the same for every mode, so its behaviour digest, model outputs and
per-layer counts compare exactly across runs and commits.

Why these four:

    chain_sweep   the paper's headline node-count sweep through `brsim sweep`;
                  cost splits between br's epoch/RNG path and aodv's CSMA
                  timers, with a cheap channel (at most 15 nodes)
    loop_guard    the loop-guard spiral: one packet that resolves at ~10 % of
                  a long horizon, so idle DecisionEpochs dominate; engine + RNG
                  heavy, channel light
    dense_grid    100 stations, 28 neighbours inside the grid, every node a
                  source; every broadcast checks all 99 other stations, so the
                  channel is the largest layer after the engine
    traced_sweep  a relay-probability sweep through `brsim sweep --trace`:
                  runs must reach the horizon, and the CLI holds and writes
                  every trace, so it shows trace cost and memory
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass

from brsim import cli, scenario, simulation

ACCEPTANCE_OVERRIDES = [
    "traffic.packets_per_source=6",
    "traffic.inter_arrival_ms=90000",
    "horizon_s=800",
]


@dataclass
class RunRecord:
    scenario: object
    protocol: str
    seed: int
    metrics: object
    ms: float  # host ms from Simulation construction through run()
    cpu_ms: float  # process CPU ms over the same span


class Recorder:
    """Times every Simulation from construction to the end of run().

    It also shifts each run's seed by `offset`: `brsim sweep` always runs
    seeds 0..N-1, and the shift is how a benchmark seed selects other runs.
    """

    def __init__(self) -> None:
        self.offset = 0
        self.records: list[RunRecord] = []
        self._starts: dict[int, float] = {}
        self._undo: list[tuple[str, object]] = []

    def install(self) -> None:
        sim_cls = simulation.Simulation
        init, run = sim_cls.__init__, sim_cls.run
        starts, records = self._starts, self.records
        clock, cpu = time.perf_counter, time.process_time

        def timed_init(sim, scen, protocol, seed, *args, **kwargs):
            starts[id(sim)] = (clock(), cpu())
            init(sim, scen, protocol, seed + self.offset, *args, **kwargs)

        def timed_run(sim):
            result = run(sim)
            t1, c1 = clock(), cpu()
            t0, c0 = starts.pop(id(sim))
            records.append(
                RunRecord(sim.scenario, sim.protocol, result.seed, result,
                          (t1 - t0) * 1000.0, (c1 - c0) * 1000.0)
            )
            return result

        self._undo = [("__init__", init), ("run", run)]
        sim_cls.__init__ = timed_init
        sim_cls.run = timed_run

    def uninstall(self) -> None:
        for name, original in self._undo:
            setattr(simulation.Simulation, name, original)
        self._undo = []

    def take(self) -> list[RunRecord]:
        """Records since the last call; forget runs that never finished."""
        taken = self.records[:]
        self.records.clear()
        self._starts.clear()
        return taken


class CliSweep:
    """A `brsim sweep` invocation made in-process through brsim.cli.main."""

    protocols = ("br", "aodv")

    def __init__(self, name, axis, warm_axis, values, extra, sets, seeds) -> None:
        self.name = name
        self.axis = axis  # e.g. ("--nodes", "5..15")
        self.warm_axis = warm_axis  # the first value alone
        self.values = values  # the overrides the CLI derives from axis
        self.extra = extra
        self.sets = sets
        self.seeds = seeds

    def setup(self) -> None:
        """Load and validate every scenario the sweep builds."""
        raw, name = scenario.load_raw("tandem12")
        raw = scenario.apply_overrides(raw, self.sets)
        for value in self.values:
            scenario.build_scenario(scenario.apply_overrides(raw, [value]), name)

    def _argv(self, axis: tuple[str, str], seeds: int, out: str) -> list[str]:
        argv = ["sweep", "--scenario", "tandem12", *axis]
        argv += [*self.extra, "--protocol", "both", "--seeds", str(seeds)]
        argv += ["--jobs", "1", "--out", out]
        for s in self.sets:
            argv += ["--set", s]
        return argv

    def run_pass(self, out: str) -> tuple[int, list[str]]:
        """Run one pass; return the jobs attempted and any failures seen."""
        return self._sweep(self.axis, self.seeds, len(self.values), out)

    def warm_up(self, out: str) -> None:
        self._sweep(self.warm_axis, 1, 1, out)

    def _sweep(self, axis, seeds, values, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._argv(axis, seeds, out))
        errors = [] if code == 0 else [f"brsim sweep exited with {code}"]
        return values * len(self.protocols) * seeds, errors


class LibraryRuns:
    """Runs of one validated scenario made through brsim.simulation.run_scenario."""

    def __init__(self, name, document, protocols, seeds) -> None:
        self.name = name
        self.document = document
        self.protocols = protocols
        self.seeds = seeds
        self.scenario = None

    def setup(self) -> None:
        self.scenario = scenario.build_scenario(self.document, self.name)

    def run_pass(self, out: str) -> tuple[int, list[str]]:
        return self._runs(self.seeds)

    def warm_up(self, out: str) -> None:
        self._runs(1)

    def _runs(self, seeds: int) -> tuple[int, list[str]]:
        errors = []
        for seed in range(seeds):
            for protocol in self.protocols:
                try:
                    simulation.run_scenario(self.scenario, protocol, seed)
                except Exception as exc:  # a failed run is counted, not fatal
                    errors.append(f"{protocol} seed+{seed}: {type(exc).__name__}: {exc}")
        return seeds * len(self.protocols), errors


def _spiral_document() -> dict:
    """Twelve relays spiralling in from 30 m to 8 m around an unreachable sink.

    Adjacent relays are 5 m apart inside a 6 m data range, so the packet
    climbs the whole chain past the loop threshold and then dies retrying.
    """
    radii = [30.0 - 2.0 * k for k in range(12)]
    nodes = [{"id": 0, "x": 0.0, "y": 0.0}]
    theta = 0.0
    for k, r in enumerate(radii):
        if k:
            a = radii[k - 1]
            theta += math.acos((a * a + r * r - 25.0) / (2 * a * r))
        nodes.append({"id": 1 + k, "x": r * math.cos(theta), "y": r * math.sin(theta)})
    return {
        "name": "spiral",
        "protocol": "br",
        "horizon_s": 3600,
        "topology": {"destination": 0, "nodes": nodes},
        "channel": {"tx_range_m": 6.0},
        "traffic": {"sources": [1], "packets_per_source": 1, "inter_arrival_ms": 60000},
    }


def _dense_grid_document() -> dict:
    return {
        "name": "dense_grid",
        "protocol": "both",
        "horizon_s": 800,
        "topology": {
            "generator": "grid",
            "rows": 10,
            "cols": 10,
            "floor_width_m": 18.0,
            "floor_length_m": 18.0,
        },
        "channel": {"tx_range_m": 6.0},
        "traffic": {"sources": "all", "packets_per_source": 1},
    }


def make_workloads() -> dict:
    chain = CliSweep(
        "chain_sweep",
        ("--nodes", "5..15"),
        ("--nodes", "5..5"),
        [f"topology.count={n}" for n in range(5, 16)],
        [],
        ACCEPTANCE_OVERRIDES,
        seeds=4,
    )
    traced = CliSweep(
        "traced_sweep",
        ("--p", "0.5..0.9:0.1"),
        ("--p", "0.5..0.5:0.1"),
        [f"br.relay_probability={p}" for p in (0.5, 0.6, 0.7, 0.8, 0.9)],
        ["--trace"],
        [],
        seeds=2,
    )
    loop_guard = LibraryRuns("loop_guard", _spiral_document(), ("br",), seeds=20)
    dense = LibraryRuns("dense_grid", _dense_grid_document(), ("br", "aodv"), seeds=1)
    return {w.name: w for w in (chain, loop_guard, dense, traced)}
