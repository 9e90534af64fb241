"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Plants faults in a run record and checks that the correctness gate reports
each. Runs each workload shrunk to a few tiny runs, in both modes, and checks that
every metric named in BENCHMARK.json appears with a valid name and unit and
that no run failed. It then checks run.py's last output line against the
contract, and that run.py fails without output in a directory holding only
BENCHMARK.json and the benchmark's files. The file name keeps it out of a
bare `pytest` collection; it takes about ten seconds. Exit code 0 on success.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _shrink(workloads: dict) -> None:
    chain = workloads["chain_sweep"]
    chain.axis, chain.values, chain.seeds = ("--nodes", "5..6"), chain.values[:2], 1
    traced = workloads["traced_sweep"]
    traced.axis, traced.values, traced.seeds = ("--p", "0.5..0.6:0.1"), traced.values[:2], 1
    workloads["loop_guard"].seeds = 2
    dense = workloads["dense_grid"]
    dense.document["topology"].update(rows=4, cols=4, floor_width_m=6.0, floor_length_m=6.0)
    dense.seeds = 1


def _check_spec(spec: dict, names: list[str], problems: list[str]) -> None:
    if [w["name"] for w in spec["workloads"]] != names:
        problems.append(f"BENCHMARK.json workloads differ from {names}")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
                problems.append(f"bad name or unit: {m}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound out of range: {m}")


def _check_metrics(label: str, metrics: dict, units: dict, problems: list[str]) -> None:
    if set(metrics) != set(units):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(units))} missing or extra")
    for name, m in metrics.items():
        value = m["value"]
        if m["unit"] != units.get(name) or not isinstance(value, (int, float)):
            problems.append(f"{label}: {name} = {m}")
        elif not math.isfinite(value):
            problems.append(f"{label}: {name} is not finite")


def _check_gate(problems: list[str]) -> None:
    """The gate must see a revisit past the loop threshold, a cap breach and a lost outcome."""
    import checks
    from brsim.metrics import HopRecord, RoutingRecord, RunMetrics
    from brsim.scenario import load_scenario
    from workloads import RunRecord

    scen = load_scenario("tandem12", ["br.loop_threshold=1", "br.hard_hop_cap=2"])
    m = RunMetrics("br", 12, 0, generated=1)
    m.hops = [HopRecord(0, 1, 2, 10, 1.0, True, 1), HopRecord(0, 2, 3, 20, 1.0, True, 1)]
    m.routing_log = [RoutingRecord(30, 3, 2, 0, 2), RoutingRecord(40, 2, 1, 0, 3)]
    found = checks.problems(RunRecord(scen, "br", 0, m, 0.0, 0.0))
    expected = ("outcomes for []", "above cap 2", "revisited 1 at hop 3")
    if not all(any(e in f for f in found) for e in expected):
        problems.append(f"correctness gate missed a planted fault: {found}")


def main() -> int:
    run._import_brsim()
    from workloads import make_workloads

    problems: list[str] = []
    _check_gate(problems)
    spec = run.load_spec()
    units = {
        trace: {m["name"]: m["unit"] for m in spec[group]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer"))
    }
    workloads = make_workloads()
    _check_spec(spec, list(workloads), problems)
    _shrink(workloads)
    for name, workload in workloads.items():
        workload.setup()
        for trace in (0, 1):
            result, m = run.measure(workload, 0, 0.0, trace, probes=1)
            label = f"{name} trace {trace}"
            try:
                metrics = run.contract_metrics(result, trace)
            except KeyError as missing:
                problems.append(f"{label}: run.py does not produce metric {missing}")
                continue
            _check_metrics(label, metrics, units[trace], problems)
            if m.failed or m.errors or m.attempted < 1:
                problems.append(f"{label}: {m.failed}/{m.attempted} failed {m.errors[:3]}")
            print(f"{label}: {m.attempted} runs, {len(metrics)} metrics")

    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "loop_guard",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or set(last) != CONTRACT_KEYS or last["attempted"] < 1:
        problems.append(f"run.py contract line: {done.returncode} {last}")
    else:
        _check_metrics("run.py", last["metrics"], units[0], problems)
    print(f"run.py: exit {done.returncode}, last line keys {sorted(last)}")

    bare = os.path.join(run.ROOT, ".perfbench_out", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a benchmark run is using it
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare checkout: exit {done.returncode}, output {done.stdout!r}")
    print(f"bare checkout: exit {done.returncode}, {done.stderr.strip()}")

    for line in problems:
        print(f"FAIL {line}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
