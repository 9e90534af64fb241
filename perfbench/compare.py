"""Summarise one results file, or compare two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A results file holds one JSON record per line, as `run.py --record` or
`repeat.py` writes them. With one file, every workload x end-to-end metric
gets a row with the median, the quartiles, and the spread (quartile distance
over the median). With two files, each row also gives the new median's change
against the base and a verdict against the metric's bound in BENCHMARK.json:

    ok          no worse than the base by more than the bound
    WORSE       worse than the base by more than the bound
    unresolved  a side spreads more than the bound, and not every new run
                beats every base run

Behaviour must not drift under a pure-speed change: records of the same
(workload, seed) are matched, and any difference in the behaviour digest,
the model outputs or an exact per-layer count is flagged. Failures are
counted per workload on both sides: the new side fails if it has an
incorrect record or a higher share of failed runs than the base. The exit
code is 1 when a row reads WORSE, behaviour differs or the new side fails,
2 when the files were measured at different run lengths, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _series(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the untraced records."""
    out: dict[tuple[str, str], list[float]] = {}
    for r in records:
        if r["trace"] != 0:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
        if "run_ms_p90" in r:
            out.setdefault((r["workload"], "run_ms_p90"), []).append(r["run_ms_p90"]["value"])
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def summarize(records: list[dict], spec: dict) -> None:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    series = _series(records)
    if series:
        print(f"{'workload':13s} {'metric':12s} {'unit':5s} {'n':>3s} {'median':>11s} "
              f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for (workload, name), values in sorted(series.items()):
        q1, med, q3 = quartiles(values)
        meta = metrics.get(name)
        unit = meta["unit"] if meta else "ms"
        bound = f"{meta['bound']:.2f}" if meta else "-"
        print(f"{workload:13s} {name:12s} {unit:5s} {len(values):3d} {_fmt(med):>11s} "
              f"{_fmt(q1):>11s} {_fmt(q3):>11s} {spread(values):7.3f} {bound:>6s}")
    for workload, (failed, attempted, wrong) in sorted(_failures(records).items()):
        print(f"{workload:13s} failed_runs {failed}/{attempted} "
              f"({_share(failed, attempted):.6f}); incorrect records {wrong}")


def _share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


def _failures(records: list[dict]) -> dict[str, tuple[int, int, int]]:
    """workload -> (failed runs, attempted runs, incorrect records)."""
    out: dict[str, tuple[int, int, int]] = {}
    for r in records:
        failed, attempted, wrong = out.get(r["workload"], (0, 0, 0))
        out[r["workload"]] = (failed + r["failed"], attempted + r["attempted"],
                              wrong + (not r["correct"]))
    return out


def _behaviour(records: list[dict]) -> dict[tuple, dict]:
    out: dict[tuple, dict] = {}
    for r in records:
        key = (r["workload"], r["seed"])
        seen = out.setdefault(key, {})
        seen.setdefault("digest", set()).add(r["digest"])
        seen.setdefault("model", set()).add(json.dumps(r["model"], sort_keys=True))
        if "exact" in r:
            seen.setdefault("exact", set()).add(json.dumps(r["exact"], sort_keys=True))
    return out


def compare(base: list[dict], new: list[dict], spec: dict) -> int:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = _series(base), _series(new)
    status = 0
    if set(a) & set(b):
        print(f"{'workload':13s} {'metric':12s} {'base median [q1,q3]':>34s} "
              f"{'new median [q1,q3]':>34s} {'change':>8s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        meta = metrics.get(name, {"better": "lower", "bound": None})
        av, bv = a[key], b[key]
        (aq1, am, aq3), (bq1, bm, bq3) = quartiles(av), quartiles(bv)
        change = (bm - am) / am if am else 0.0
        worse = -change if meta["better"] == "higher" else change
        bound = meta["bound"]
        if bound is None:
            verdict = "reported (no bound)"
        else:
            all_better = (
                min(bv) > max(av) if meta["better"] == "higher" else max(bv) < min(av)
            )
            if max(spread(av), spread(bv)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
                status = 1
            else:
                verdict = "ok"
        print(f"{workload:13s} {name:12s} {_fmt(am):>11s} [{_fmt(aq1)},{_fmt(aq3)}]".ljust(62)
              + f" {_fmt(bm):>11s} [{_fmt(bq1)},{_fmt(bq3)}]".ljust(36)
              + f" {change:+8.3%}  {verdict}")

    ab, bb = _behaviour(base), _behaviour(new)
    shared = sorted(set(ab) & set(bb))
    drift = []
    for key in shared:
        for field in ("digest", "model", "exact"):
            x, y = ab[key].get(field), bb[key].get(field)
            if x is not None and y is not None and x != y:
                drift.append(f"{key[0]} seed {key[1]}: {field} differs")
            elif x is not None and len(x) > 1 or y is not None and len(y) > 1:
                drift.append(f"{key[0]} seed {key[1]}: {field} not repeatable within a file")
    print(f"behaviour: {len(shared)} (workload, seed) pairs matched, {len(drift)} differences")
    for line in drift:
        print(f"  {line}")

    fa, fb = _failures(base), _failures(new)
    for workload in sorted(set(fa) | set(fb)):
        af, aa, aw = fa.get(workload, (0, 0, 0))
        bf, ba, bw = fb.get(workload, (0, 0, 0))
        failing = bw > 0 or _share(bf, ba) > _share(af, aa)
        print(f"{workload:13s} failed_runs base {af}/{aa} ({aw} incorrect), "
              f"new {bf}/{ba} ({bw} incorrect)  {'FAILED' if failing else 'ok'}")
        if failing:
            status = 1
    return 1 if drift else status


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load(path) for path in argv]
    lengths = {r["seconds"] for records in sets for r in records}
    if len(lengths) > 1:
        print(f"records measured at different run lengths {sorted(lengths)} s; "
              "compare records of one run length", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["host"], sort_keys=True) for records in sets for r in records}
    if len(hosts) > 1:
        print(f"note: records come from different hosts: {sorted(hosts)}")
    if len(sets) == 1:
        summarize(sets[0], spec)
        return 0
    return compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
