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
--trace, each run also writes its full event trace, one event per line, to
its own file as it runs (in the worker process that runs it).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterator
from itertools import groupby

from .metrics import RunMetrics, summarize, write_csv, write_hop_trace
from .scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    build_scenario,
    load_raw,
    load_scenario,
)
from .simulation import run_many


class UsageError(SystemExit):
    """A malformed command-line value; `main` reports it with exit status 2."""


# most values one --nodes or --p sweep may take; each value adds its own runs
_MAX_SWEEP_VALUES = 1000


def _parse_node_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--nodes: expected A..B, got {text!r}") from None
    if lo < 2 or hi < lo:
        raise UsageError(f"--nodes: need 2 <= A <= B, got {text!r}")
    if hi - lo + 1 > _MAX_SWEEP_VALUES:
        raise UsageError(f"--nodes: more than {_MAX_SWEEP_VALUES} sizes, got {text!r}")
    return range(lo, hi + 1)


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
    if last >= _MAX_SWEEP_VALUES:
        raise UsageError(f"--p: more than {_MAX_SWEEP_VALUES} values, got {text!r}")
    values = [min(round(lo + i * step, 10), 1.0) for i in range(int(last) + 1)]
    if len({f"{v:g}" for v in values}) < len(values):
        # each value names its output file, sweep_p{value:g}.csv
        raise UsageError(f"--p: STEP too small to name each value's file, got {text!r}")
    return values


def _protocols(scenario: Scenario, flag: str | None) -> list[str]:
    choice = flag or scenario.protocol
    return ["br", "aodv"] if choice == "both" else [choice]


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


class RunError(Exception):
    """A run that raised; the message names the run. `main` exits 1 on it."""


def _stem(scenario: Scenario, protocol: str, tag: str, seed: int) -> str:
    """The start of every file name a run writes."""
    return "_".join(filter(None, (scenario.name, protocol, tag, f"seed{seed}")))


def _check_file_names(out: str, names: list[str]) -> None:
    """Fail before any run if a file to be written has too long a name.

    Only the scenario's free-form name can make one too long.
    """
    limit = os.pathconf(out, "PC_NAME_MAX")
    longest = max(names, key=lambda name: len(os.fsencode(name)))
    size = len(os.fsencode(longest))
    if size > limit:
        raise UsageError(
            f"name: too long for a file name: {longest[:40]!r}... has {size} bytes,"
            f" {out} allows {limit}"
        )


def _job(args: argparse.Namespace, scenario: Scenario, protocol: str, tag: str, seed: int):
    """A run_many job; with --trace, its run writes `{stem}.trace` in --out."""
    name = f"{_stem(scenario, protocol, tag, seed)}.trace"
    return scenario, protocol, seed, os.path.join(args.out, name) if args.trace else None


def _each_run(
    jobs: list[tuple], tags: list[str], workers: int = 1
) -> Iterator[tuple[str, str, RunMetrics]]:
    """Yield (tag, file stem, run) for each job in job order, as its run arrives.

    A run that raises ends the stream with a RunError naming it.
    """
    runs = run_many(jobs, max_workers=workers)
    for (scenario, protocol, seed, _), tag in zip(jobs, tags):
        try:
            run = next(runs)
        except Exception as exc:
            where = (f"scenario={scenario.name}", tag, f"protocol={protocol}", f"seed={seed}")
            raise RunError(f"{' '.join(filter(None, where))}: {exc}") from exc
        yield tag, _stem(scenario, protocol, tag, seed), run


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, args.set)
    jobs = [_job(args, scenario, p, "", args.seed) for p in _protocols(scenario, args.protocol)]
    os.makedirs(args.out, exist_ok=True)
    # a trace file's name is shorter than the hop file's of the same run
    hop_files = [f"{_stem(scenario, p, '', args.seed)}_hops.tsv" for _, p, _, _ in jobs]
    _check_file_names(args.out, ["summary.csv", *hop_files])
    runs = []
    for _, stem, run in _each_run(jobs, [""] * len(jobs)):
        write_hop_trace(run, os.path.join(args.out, f"{stem}_hops.tsv"))
        print(_describe(run))
        runs.append(run)
    write_csv(summarize(runs), os.path.join(args.out, "summary.csv"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    cores = os.cpu_count() or 1
    if not 1 <= args.jobs <= cores:
        raise UsageError(f"--jobs: need 1 <= J <= {cores} (the CPU count), got {args.jobs}")
    raw, default_name = load_raw(args.scenario)
    raw = apply_overrides(raw, args.set)
    build_scenario(raw, default_name)  # validate before reading its sections
    if args.nodes is not None:
        kind = raw["topology"].get("generator")
        if kind != "tandem":  # the one generator that takes topology.count
            got = f"the {kind} generator" if kind else "node positions"
            raise UsageError(f"--nodes sweeps need a tandem generator topology, not {got}")
        values = [("n", n) for n in _parse_node_range(args.nodes)]
        variable = "topology.count"
    else:
        values = [("p", p) for p in _parse_p_range(args.p)]
        variable = "br.relay_probability"

    jobs, tags, sheet_of = [], [], {}
    for letter, value in values:
        tag = f"{letter}{value:g}"
        scenario = build_scenario(apply_overrides(raw, [f"{variable}={value}"]), default_name)
        # the file and printed heading that this value's runs are summarized into
        sheet_of[tag] = (
            (f"sweep_{tag}.csv", f"p = {value:g}") if letter == "p" else ("sweep.csv", None)
        )
        for protocol in _protocols(scenario, args.protocol):
            for seed in range(args.seeds):
                jobs.append(_job(args, scenario, protocol, tag, seed))
                tags.append(tag)

    os.makedirs(args.out, exist_ok=True)
    names = [name for name, _ in sheet_of.values()]
    names += [os.path.basename(path) for *_, path in jobs if path]
    _check_file_names(args.out, names)
    # a sheet's runs are contiguous: each is folded into its summary as it arrives
    runs = _each_run(jobs, tags, args.jobs)
    sheets = [
        (sheet, summarize(run for _, _, run in group))
        for sheet, group in groupby(runs, key=lambda item: sheet_of[item[0]])
    ]
    for (name, heading), rows in sheets:
        write_csv(rows, os.path.join(args.out, name))
        if heading:
            print(heading)
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
    except (RunError, ScenarioError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RunError) else 2


if __name__ == "__main__":
    sys.exit(main())
