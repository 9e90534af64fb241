"""Command-line entry point.

Two subcommands:

    brsim run --scenario PATH|NAME --seed N --out DIR
              [--protocol br|aodv|both] [--trace] [--set key.path=value]...
    brsim sweep --scenario PATH|NAME (--nodes A..B | --p A..B:STEP)
                --seeds N --out DIR [--protocol ...] [--jobs J] [--trace]
                [--set key.path=value]...

`--scenario` takes a YAML file path or the name of a bundled scenario.
`run` writes one hop-record TSV per protocol plus summary.csv; `sweep` writes
sweep.csv (node sweeps) or one sweep_p*.csv per probability value. With
--trace, each run also writes its full event trace, one event per line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .metrics import RunMetrics, summarize, write_csv, write_hop_trace
from .scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    build_scenario,
    load_raw,
)
from .simulation import JobError, run_many, run_scenario


class UsageError(SystemExit):
    """A malformed command-line value; `main` reports it with exit status 2."""


def _parse_node_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--nodes: expected A..B, got {text!r}") from None
    if lo < 2 or hi < lo:
        raise UsageError(f"--nodes: need 2 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


_MAX_P_VALUES = 1000


def _parse_p_range(text: str) -> list[float]:
    try:
        span, step_text = text.split(":")
        lo_text, hi_text = span.split("..")
        lo, hi, step = float(lo_text), float(hi_text), float(step_text)
    except ValueError:
        raise UsageError(f"--p: expected A..B:STEP, got {text!r}") from None
    if not 0.0 < step < math.inf or not 0.0 <= lo <= hi <= 1.0:
        raise UsageError(f"--p: need 0 <= A <= B <= 1 and 0 < STEP < inf, got {text!r}")
    last = (hi - lo) / step + 1e-9  # the largest i with A + i*STEP <= B, give or take
    if last >= _MAX_P_VALUES:
        raise UsageError(f"--p: more than {_MAX_P_VALUES} values, got {text!r}")
    values = [min(round(lo + i * step, 10), 1.0) for i in range(int(last) + 1)]
    if len({f"{v:g}" for v in values}) < len(values):
        # each value names its output file, sweep_p{value:g}.csv
        raise UsageError(f"--p: STEP too small to name each value's file, got {text!r}")
    return values


def _protocols(scenario: Scenario, flag: str | None) -> list[str]:
    choice = flag or scenario.protocol
    return ["br", "aodv"] if choice == "both" else [choice]


def _write_trace(run: RunMetrics, path: str) -> None:
    assert run.trace is not None
    with open(path, "w", encoding="utf-8") as fh:
        for line in run.trace:
            fh.write(line + "\n")


def _describe(run: RunMetrics) -> str:
    parts = [
        f"{run.protocol}: generated={run.generated}",
        f"delivered={run.delivered_count}",
        f"ratio={run.delivery_ratio():.3f}",
    ]
    hops = run.mean_hops()
    if hops is not None:
        parts.append(f"mean_hops={hops:.3f}")
    dist = run.mean_perhop_distance()
    if dist is not None:
        parts.append(f"mean_perhop_m={dist:.3f}")
    drops = run.drop_reasons()
    if drops:
        parts.append(f"drops={dict(drops)}")
    return " ".join(parts)


def _cmd_run(args: argparse.Namespace) -> int:
    raw, default_name = load_raw(args.scenario)
    raw = apply_overrides(raw, args.set)
    scenario = build_scenario(raw, default_name)
    os.makedirs(args.out, exist_ok=True)
    runs = []
    for protocol in _protocols(scenario, args.protocol):
        try:
            run = run_scenario(scenario, protocol, args.seed, trace=args.trace)
        except Exception as exc:
            print(
                f"error: scenario={scenario.name} protocol={protocol}"
                f" seed={args.seed}: {exc}",
                file=sys.stderr,
            )
            return 1
        runs.append(run)
        stem = f"{scenario.name}_{protocol}_seed{args.seed}"
        write_hop_trace(run, os.path.join(args.out, f"{stem}_hops.tsv"))
        if args.trace:
            _write_trace(run, os.path.join(args.out, f"{stem}.trace"))
        print(_describe(run))
    write_csv(summarize(runs), os.path.join(args.out, "summary.csv"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    raw, default_name = load_raw(args.scenario)
    raw = apply_overrides(raw, args.set)
    build_scenario(raw, default_name)  # validate before reading its sections
    if args.nodes is not None:
        if "generator" not in raw["topology"]:
            raise UsageError("--nodes sweeps need a generator topology")
        values = [("n", n) for n in _parse_node_range(args.nodes)]
        variable = "topology.count"
    else:
        values = [("p", p) for p in _parse_p_range(args.p)]
        variable = "br.relay_probability"

    jobs = []
    labels = []
    for tag, value in values:
        scenario = build_scenario(
            apply_overrides(raw, [f"{variable}={value}"]), default_name
        )
        for protocol in _protocols(scenario, args.protocol):
            for seed in range(args.seeds):
                jobs.append((scenario, protocol, seed, args.trace))
                labels.append((scenario.name, f"{tag}{value:g}", protocol, seed))

    os.makedirs(args.out, exist_ok=True)
    try:
        runs = run_many(jobs, max_workers=args.jobs)
    except JobError as exc:
        name, tag, protocol, seed = labels[exc.index]
        print(
            f"error: scenario={name} {tag} protocol={protocol} seed={seed}: {exc}",
            file=sys.stderr,
        )
        return 1

    if args.trace:
        for (name, tag, protocol, seed), run in zip(labels, runs):
            _write_trace(
                run, os.path.join(args.out, f"{name}_{protocol}_{tag}_seed{seed}.trace")
            )

    if args.nodes is not None:
        rows = summarize(runs)
        write_csv(rows, os.path.join(args.out, "sweep.csv"))
        _print_rows(rows)
    else:
        per_value = len(runs) // len(values)
        for i, (tag, value) in enumerate(values):
            rows = summarize(runs[i * per_value : (i + 1) * per_value])
            write_csv(rows, os.path.join(args.out, f"sweep_p{value:g}.csv"))
            print(f"p = {value:g}")
            _print_rows(rows)
    return 0


def _print_rows(rows) -> None:
    def cell(v):
        return "-" if v is None else (f"{v:.3f}" if isinstance(v, float) else str(v))

    print("protocol nodes seeds mean_hops sd mean_perhop_m sd delivery")
    for a in rows:
        print(
            f"{a.protocol:8s} {a.node_count:5d} {a.seed_count:5d}"
            f" {cell(a.mean_hops):>9s} {cell(a.sd_hops):>6s}"
            f" {cell(a.mean_perhop_distance_m):>13s} {cell(a.sd_perhop_distance_m):>6s}"
            f" {a.delivery_ratio:.3f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="brsim",
        description="Discrete-event simulator for coin-flip relay routing"
        " and its greedy CSMA/CA baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario", required=True, help="scenario YAML path or bundled name"
    )
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument(
        "--protocol",
        choices=["br", "aodv", "both"],
        default=None,
        help="override the scenario's protocol selection",
    )
    common.add_argument(
        "--trace", action="store_true", help="write per-run event trace files"
    )
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override any scenario field, e.g. br.relay_probability=0.5",
    )

    p_run = sub.add_parser("run", parents=[common], help="run one seed")
    p_run.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="run a node-count or probability sweep"
    )
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", help="node-count range A..B")
    group.add_argument("--p", help="relay-probability range A..B:STEP")
    p_sweep.add_argument("--seeds", type=int, required=True, help="seeds 0..N-1")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel worker processes (default: all cores)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ScenarioError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
