"""Golden behaviour fixture: fixed runs must keep producing the same results.

`golden_behaviour.json` holds, for a fixed matrix of (scenario, protocol,
seed) runs, a sha256 over each run's `generated`, `outcomes`, `hops` and
`routing_log`, plus the sha256 of the full event trace of two traced runs.
A refactor or a speed-up must leave every hash unchanged.

Rewrite the file (`PYTHONPATH=src python tests/test_golden.py`) only for a
change that alters simulated behaviour on purpose, and say so in the change.
A change meant to move one protocol only rewrites that protocol's hashes
with `--protocol br` (or `aodv`): it refuses to write if any hash of the
other protocol moved, and lists the keys it rewrote.
"""

import argparse
import hashlib
import io
import json
import pathlib
import sys

import pytest

from test_acceptance import SWEEP_OVERRIDES, _bounce_scenario, _spiral_scenario

from brsim.scenario import build_scenario, load_scenario
from brsim.simulation import Simulation

FIXTURE = pathlib.Path(__file__).with_name("golden_behaviour.json")

# An ack wait longer than the gap between packets: an ack timer from an earlier
# hop is still in flight when the next hop is waiting for its own ack, so these
# runs fire stale ack timers that timer liveness must ignore.
STALE_TIMERS = [
    "topology.count=6",
    "traffic.packets_per_source=5",
    "traffic.inter_arrival_ms=1000",
    "br.ack_wait_ms=20000",
    "br.response_wait_ms=2000",
]

# Every station a source on a 10 x 10 grid, 2 m apart, with a 6 m data range:
# each RTS is answered by a storm of Responses from up to 28 neighbours, and
# many senders share ticks. This is the benchmark's dense_grid workload.
DENSE_GRID = {
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

BOTH = ("br", "aodv")
# group -> (scenario builder, protocols, seeds)
GROUPS = {
    "tandem12": (lambda: load_scenario("tandem12"), BOTH, range(5)),
    "motion_testbed": (lambda: load_scenario("motion_testbed"), BOTH, range(5)),
    **{
        f"tandem_n{n}": (
            lambda n=n: load_scenario(
                "tandem12", overrides=[f"topology.count={n}", *SWEEP_OVERRIDES]
            ),
            BOTH,
            range(3),
        )
        for n in (5, 10, 15)
    },
    "spiral": (_spiral_scenario, ("br",), range(10)),
    "bounce": (_bounce_scenario, ("br",), range(10)),
    "stale_timers": (
        lambda: load_scenario("tandem12", overrides=STALE_TIMERS), BOTH, range(5)
    ),
    "dense_grid": (lambda: build_scenario(DENSE_GRID), BOTH, range(3)),
}

# traced runs: key -> (scenario builder, protocol, seed)
TRACED = {
    "tandem_n6/br/7": (
        lambda: load_scenario(
            "tandem12",
            overrides=[
                "topology.count=6",
                "horizon_s=120",
                "traffic.packets_per_source=2",
                "traffic.inter_arrival_ms=30000",
            ],
        ),
        "br",
        7,
    ),
    "motion_testbed/aodv/1": (lambda: load_scenario("motion_testbed"), "aodv", 1),
    "stale_timers/aodv/0": (
        lambda: load_scenario("tandem12", overrides=STALE_TIMERS), "aodv", 0
    ),
    "dense_grid/aodv/0": (lambda: build_scenario(DENSE_GRID), "aodv", 0),
}


def behaviour_hash(metrics) -> str:
    h = hashlib.sha256()
    h.update(f"generated={metrics.generated}\n".encode())
    for uid in sorted(metrics.outcomes):
        h.update(f"{metrics.outcomes[uid]!r}\n".encode())
    for hop in metrics.hops:
        h.update(f"{hop!r}\n".encode())
    for rec in metrics.routing_log:
        h.update(f"{rec!r}\n".encode())
    return h.hexdigest()


def trace_hash(trace: io.StringIO) -> str:
    """sha256 of the trace file `brsim run --trace` writes for this run."""
    return hashlib.sha256(trace.getvalue().encode()).hexdigest()


def group_hashes(group: str) -> dict[str, str]:
    build, protocols, seeds = GROUPS[group]
    scenario = build()
    return {
        f"{group}/{protocol}/{seed}": behaviour_hash(Simulation(scenario, protocol, seed).run())
        for protocol in protocols
        for seed in seeds
    }


def traced_hashes() -> dict[str, str]:
    out = {}
    for key, (build, protocol, seed) in TRACED.items():
        trace = io.StringIO()
        metrics = Simulation(build(), protocol, seed, trace=trace).run()
        out[key] = trace_hash(trace)
        out[key + "/behaviour"] = behaviour_hash(metrics)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("group", list(GROUPS))
def test_behaviour_matches_golden(golden, group):
    assert group_hashes(group) == golden[group]


def test_traces_match_golden(golden):
    assert traced_hashes() == golden["traced"]


def moved_keys(old: dict, new: dict) -> list[str]:
    """Every "group/protocol/seed" key whose hash differs, is new or is gone."""
    return sorted(
        key
        for group in old.keys() | new.keys()
        for key in old.get(group, {}).keys() | new.get(group, {}).keys()
        if old.get(group, {}).get(key) != new.get(group, {}).get(key)
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden behaviour fixture.")
    parser.add_argument(
        "--protocol",
        choices=BOTH,
        help="rewrite only this protocol's hashes; refuse if another protocol's moved",
    )
    args = parser.parse_args()
    table = {group: group_hashes(group) for group in GROUPS}
    table["traced"] = traced_hashes()
    if args.protocol:
        moved = moved_keys(json.loads(FIXTURE.read_text()), table)
        others = [key for key in moved if key.split("/")[1] != args.protocol]
        if others:
            sys.exit(f"not written: {len(others)} hashes of other protocols moved: {others}")
        print("\n".join(moved))
        print(f"{len(moved)} {args.protocol} hashes moved")
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} hashes to {FIXTURE}")
