"""Run one brsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a checkout; brsim is imported from its `src/`. With
`--trace 0` the workload repeats passes of its job list for S seconds with
tracing off and reports the end-to-end metrics. With `--trace 1` it repeats
(untraced pass, traced pass) pairs of one fixed job list and reports the
per-layer metrics. All times are host time; simulated statistics are model
outputs, printed but not timed. Every run is checked (see checks.py), and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--record FILE` appends a fuller JSON record (digest, model outputs, exact
per-layer counts, host) for compare.py. The benchmark writes only below
`.perfbench_out/` in the checkout and removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEED_STRIDE = 1000  # pass i of --seed n runs simulation seeds n*10**6 + i*1000 + k
SETUP_PROBES = 7  # measured set-ups per run, spread over it, after one discarded warm-up


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def contract_metrics(result: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    group = load_spec()["end_to_end" if trace == 0 else "per_layer"]
    return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in group}


def _import_brsim() -> None:
    """Put the checkout's src/ first on the path; refuse any other brsim."""
    if not os.path.isfile(os.path.join(SRC, "brsim", "__init__.py")):
        sys.exit(f"perfbench: no brsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import brsim

    if not os.path.abspath(brsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported brsim from {brsim.__file__}, not {SRC}")


def _probe_setup(name: str) -> None:
    """Child process: import brsim, build the workload's scenarios, report when ready."""
    _import_brsim()
    from workloads import make_workloads

    make_workloads()[name].setup()
    print(time.monotonic_ns())


def _setup_seconds(name: str) -> float:
    """Seconds from the start of a fresh process to its first run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", name]
    start = time.monotonic_ns()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return (int(done.stdout.split()[-1]) - start) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _done(start: float, passes: int, seconds: float) -> bool:
    """Stop at the pass boundary nearest to `seconds` after `start`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes / 2 >= seconds


class Measurement:
    """Pass loop shared by both modes: timing, checks, failure counts."""

    def __init__(self, workload, recorder, seed: int, out: str) -> None:
        self.workload = workload
        self.recorder = recorder
        self.base = seed * SEED_STRIDE * 1000
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall = self.cpu = 0.0

    def run_pass(self, index: int):
        """One pass at seed block `index`; returns its checked run records.

        The pass's wall and CPU seconds are left in `wall` and `cpu`.
        """
        import checks

        self.recorder.offset = self.base + index * SEED_STRIDE
        t0, c0 = time.perf_counter(), time.process_time()
        expected, errors = self.workload.run_pass(self.out)
        self.wall = time.perf_counter() - t0
        self.cpu = time.process_time() - c0
        records = self.recorder.take()
        bad = set()
        for i, rec in enumerate(records):
            found = checks.problems(rec)
            if found:
                bad.add(i)
                errors += found
        failed = expected - len(records) + len(bad)
        if errors and failed == 0:
            failed = expected  # the sweep reported a failure after its runs
        self.attempted += expected
        self.failed += min(failed, expected)
        self.errors += errors
        shutil.rmtree(self.out, ignore_errors=True)
        return records


def _trimmed_rate(passes: list[tuple[int, float]]) -> float:
    """Runs per second over the passes, leaving out the slowest and the fastest tenth.

    `passes` holds (runs, seconds) per pass. Short passes on a shared host
    swing by a third either way; dropping the extreme tenth on each side
    keeps a few outlying passes from moving the rate.
    """
    ranked = sorted(passes, key=lambda p: p[0] / p[1])
    cut = len(ranked) // 10
    kept = ranked[cut:len(ranked) - cut]
    return sum(runs for runs, _ in kept) / sum(s for _, s in kept)


def _end_to_end(m: Measurement, seconds: float, probes: int) -> dict:
    """Passes for `seconds`, with `probes` set-up probes spread between them.

    Host speed drifts over tens of seconds, so the set-up probes are spread
    over the measurement rather than taken back to back.
    """
    import checks

    name = m.workload.name
    _setup_seconds(name)  # warm-up, discarded
    setup: list[float] = []
    start = time.perf_counter()
    passes: list[tuple[int, float]] = []
    wall_passes: list[tuple[int, float]] = []
    run_ms: list[float] = []
    run_wall_ms: list[float] = []
    index = 0
    while True:
        records = m.run_pass(index)
        passes.append((len(records), m.cpu))
        wall_passes.append((len(records), m.wall))
        run_ms += [r.cpu_ms for r in records]
        run_wall_ms += [r.ms for r in records]
        if index == 0:
            digest, model = checks.digest(records), checks.model_outputs(records)
        del records  # a traced sweep's runs hold every trace
        index += 1
        if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(_setup_seconds(name))
        if _done(start, index, seconds):
            break
    while len(setup) < probes:
        setup.append(_setup_seconds(name))
    result = {
        "metrics": {
            "runs_per_s": _trimmed_rate(passes),
            "run_ms_p50": statistics.median(run_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        },
        "samples": len(run_ms),
        "passes": index,
        "digest": digest,
        "model": model,
        "wall": {
            "runs_per_s": _trimmed_rate(wall_passes),
            "run_ms_p50": statistics.median(run_wall_ms),
        },
    }
    if len(run_ms) >= 2:
        p90 = statistics.quantiles(run_ms, n=10)[8]
        beyond = sum(1 for v in run_ms if v > p90)
        if beyond >= 10:
            result["run_ms_p90"] = {"value": p90, "beyond": beyond}
    return result


def _per_layer(m: Measurement, seconds: float) -> dict:
    import checks
    from layers import LAYERS, Tracer

    start = time.perf_counter()
    reps = []
    exact = digest = model = None
    consistent = True
    while True:
        plain = m.run_pass(0)
        untraced_cpu = m.cpu
        tracer = Tracer()
        tracer.install()
        try:
            m.workload.setup()
            build_s = tracer.self_s["scenario"]
            tracer.self_s.clear()
            traced = m.run_pass(0)
        finally:
            tracer.uninstall()
        counts = tracer.exact()
        plain_digest = checks.digest(plain)
        if exact is None:
            exact, digest, model = counts, plain_digest, checks.model_outputs(plain)
        if counts != exact or {plain_digest, checks.digest(traced)} != {digest}:
            consistent = False
        ms = {layer: tracer.self_s[layer] * 1000.0 for layer in LAYERS}
        reps.append(
            {
                "self_ms": ms,
                "build_ms": build_s * 1000.0,
                "summarize_ms": tracer.span_s["summarize"] * 1000.0,
                "overhead": m.cpu / untraced_cpu,
                "run_ms": sum(r.ms for r in traced),
                "untraced_run_s": sum(r.cpu_ms for r in plain) / 1000.0,
            }
        )
        if _done(start, len(reps), seconds):
            break
    if not consistent:
        m.errors.append("exact counts or digests differ between identical passes")

    def med(get):
        return statistics.median(get(r) for r in reps)

    c = exact
    metrics = dict(c)
    metrics.update(
        {
            "engine.self_ms": med(lambda r: r["self_ms"]["engine"]),
            "engine.events_per_s": c["engine.events"] / med(lambda r: r["untraced_run_s"]),
            "rng.self_ms": med(lambda r: r["self_ms"]["rng"]),
            "channel.arrivals_per_query": _ratio(
                c["channel.arrivals_scheduled"], c["channel.link_queries"]
            ),
            "channel.arrival_success": _ratio(
                c["channel.arrivals_accepted"], c["channel.arrivals_scheduled"]
            ),
            "channel.self_ms": med(lambda r: r["self_ms"]["channel"]),
            "simulation.cca_busy_ratio": _ratio(
                c["simulation.cca_busy"], c["simulation.cca_checks"]
            ),
            "simulation.self_ms": med(lambda r: r["self_ms"]["simulation"]),
            "protocol.hop_success_ratio": _ratio(
                c["protocol.hops_acked"], c["protocol.hop_attempts"]
            ),
            "protocol.listen_fraction": _ratio(
                c["protocol.coins_listen"], c["rng.coin_flips"]
            ),
            "protocol.self_ms": med(lambda r: r["self_ms"]["protocol"]),
            "scenario.build_ms": med(lambda r: r["build_ms"]),
            "metrics.summarize_ms": med(lambda r: r["summarize_ms"]),
            "cli.write_ms": med(lambda r: r["self_ms"]["cli"]),
            "trace.overhead_ratio": med(lambda r: r["overhead"]),
            "trace.run_ms": med(lambda r: r["run_ms"]),
        }
    )
    return {
        "metrics": metrics,
        "samples": len(plain),
        "passes": len(reps),
        "digest": digest,
        "model": model,
        "exact": exact,
    }


def measure(workload, seed: int, seconds: float, trace: int, probes: int = SETUP_PROBES):
    """Warm up, then measure a set-up workload; returns (result, Measurement)."""
    from workloads import Recorder

    out = os.path.join(ROOT, ".perfbench_out", f"{workload.name}-{os.getpid()}")
    recorder = Recorder()
    recorder.install()
    m = Measurement(workload, recorder, seed, out)
    try:
        recorder.offset = m.base
        workload.warm_up(out)
        recorder.take()
        if trace == 0:
            result = _end_to_end(m, seconds, probes)
        else:
            result = _per_layer(m, seconds)
    finally:
        recorder.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out))
        except OSError:
            pass  # another run is using it, or it is already gone
    return result, m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append a full JSON record to this file")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.probe_setup:
        _probe_setup(args.workload)
        return 0

    _import_brsim()
    from workloads import make_workloads

    workloads = make_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")

    workload = workloads[args.workload]
    workload.setup()
    result, m = measure(workload, args.seed, args.seconds, args.trace)
    metrics = contract_metrics(result, args.trace)
    correct = m.failed == 0 and not m.errors

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  runs {result['samples']}")
    for k, v in metrics.items():
        print(f"  {k:36s} {v['value']:>14.6f} {v['unit']}")
    if "run_ms_p90" in result:
        p90 = result["run_ms_p90"]
        print(f"  {'run_ms_p90':36s} {p90['value']:>14.6f} ms  "
              f"({result['samples']} samples, {p90['beyond']} beyond)")
    print(f"  {'failed_runs':36s} {_ratio(m.failed, m.attempted):>14.6f} share  "
          f"({m.failed} of {m.attempted} runs)")
    model = "  ".join(f"{k}={v:.6f}" for k, v in result["model"].items())
    print(f"  model (simulated; unvalidated, no reference data): {model}")
    print(f"  behaviour digest {result['digest']}")
    for line in m.errors[:20]:
        print(f"  error: {line}", file=sys.stderr)

    if args.record:
        record = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "attempted": m.attempted,
            "failed": m.failed,
            "host": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            **{k: v for k, v in result.items() if k != "metrics"},
            "metrics": metrics,
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
