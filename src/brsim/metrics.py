"""Per-run result collection and cross-run aggregation.

A run produces one RunMetrics: every hop attempt (HopRecord), every data
frame transmission (RoutingRecord, for route audits), and one Outcome per
generated packet. Aggregation groups runs by (protocol, node_count) and
reports the mean and sample standard deviation of the per-run means, which
is what the summary CSV carries.

Conventions: hop-count means cover delivered packets only, per-hop distance
means cover successful hops only, and the delivery ratio is reported
alongside so that censoring from drops stays visible.
"""

from __future__ import annotations

import csv
import statistics
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from typing import get_type_hints


class EmptyInputError(ValueError):
    """Aggregation was asked for zero runs."""


@dataclass(frozen=True)
class HopRecord:
    """One hop attempt: a Routing frame and the fate of its handshake.

    attempts counts transmission attempts spent on this hop by the sender,
    so it is at least 1 when success is True. distance_m is the Euclidean
    sender-receiver distance.
    """

    uid: int
    sender: int
    receiver: int
    time_ms: int
    distance_m: float
    success: bool
    attempts: int


@dataclass(frozen=True)
class RoutingRecord:
    """One data (Routing) frame on the air, successful or not."""

    time_ms: int
    sender: int
    receiver: int
    uid: int
    hop_count: int


@dataclass(frozen=True)
class Outcome:
    """Final fate of one generated packet."""

    uid: int
    source: int
    delivered: bool
    hops: int | None
    reason: str | None
    time_ms: int


@dataclass
class RunMetrics:
    protocol: str
    node_count: int
    seed: int
    generated: int = 0
    hops: list[HopRecord] = field(default_factory=list)
    routing_log: list[RoutingRecord] = field(default_factory=list)
    outcomes: dict[int, Outcome] = field(default_factory=dict)
    trace: None = None  # always None: runs stream their traces; perfbench/layers.py reads it

    @property
    def delivered_count(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.delivered)

    def drop_reasons(self) -> Counter[str]:
        return Counter(
            o.reason for o in self.outcomes.values() if not o.delivered and o.reason
        )

    def mean_hops(self) -> float | None:
        """Mean source-to-destination hop count over delivered packets."""
        counts = [o.hops for o in self.outcomes.values() if o.delivered]
        if not counts:
            return None
        return statistics.fmean(counts)

    def mean_perhop_distance(self) -> float | None:
        """Mean Euclidean length of successful hops."""
        lengths = [h.distance_m for h in self.hops if h.success]
        if not lengths:
            return None
        return statistics.fmean(lengths)

    def delivery_ratio(self) -> float:
        if self.generated == 0:
            return 0.0
        return self.delivered_count / self.generated

    def route_of(self, uid: int) -> list[int]:
        """Node sequence a packet travelled, reconstructed from acked hops."""
        path: list[int] = []
        for h in self.hops:
            if h.uid == uid and h.success:
                if not path:
                    path.append(h.sender)
                path.append(h.receiver)
        return path


@dataclass(frozen=True)
class Aggregate:
    """Summary row for one (protocol, node_count) group."""

    protocol: str
    node_count: int
    seed_count: int
    mean_hops: float | None
    sd_hops: float | None
    mean_perhop_distance_m: float | None
    sd_perhop_distance_m: float | None
    delivery_ratio: float


def _mean_sd(values: Iterable[float | None]) -> tuple[float | None, float | None]:
    """Mean and sample SD of the values that are not None."""
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    mean = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, sd


def summarize(runs: Iterable[RunMetrics]) -> list[Aggregate]:
    """Aggregate per (protocol, node_count): mean and sample SD of run means.

    Each run is reduced to its mean hops, mean per-hop distance and delivery
    ratio as it is read, so `runs` may be a stream of any length.
    """
    groups: dict[tuple[str, int], list[tuple]] = {}
    for run in runs:
        groups.setdefault((run.protocol, run.node_count), []).append(
            (run.mean_hops(), run.mean_perhop_distance(), run.delivery_ratio())
        )
    if not groups:
        raise EmptyInputError("summarize() needs at least one run")
    rows = []
    for (protocol, node_count), means in sorted(groups.items()):
        hops, dists, ratios = zip(*means)
        stats = (*_mean_sd(hops), *_mean_sd(dists), statistics.fmean(ratios))
        rows.append(Aggregate(protocol, node_count, len(means), *stats))
    return rows


CSV_HEADER = [f.name for f in fields(Aggregate)]
_HOP_COLUMNS = [f.name for f in fields(HopRecord)]


def _optional_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


# one parser per summary column, from its Aggregate field type
_HINTS = get_type_hints(Aggregate)
_CSV_PARSERS = [
    _optional_float if _HINTS[name] == float | None else _HINTS[name] for name in CSV_HEADER
]


def _cell(value) -> str:
    """One output cell: six decimal digits for floats, 0/1 for flags, blank for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(int(value) if isinstance(value, bool) else value)


def _row(record, columns: list[str]) -> list[str]:
    return [_cell(getattr(record, name)) for name in columns]


def write_csv(aggregates: list[Aggregate], path: str) -> None:
    """Write summary rows, one column per Aggregate field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(_row(a, CSV_HEADER) for a in aggregates)


def read_csv(path: str) -> list[Aggregate]:
    """Parse a summary CSV written by write_csv."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected summary header: {header!r}")
        for row, rec in enumerate(reader, start=1):
            if len(rec) != len(CSV_HEADER):
                raise ValueError(
                    f"summary data row {row}: expected {len(CSV_HEADER)} cells, got {len(rec)}"
                )
            rows.append(Aggregate(*(parse(cell) for parse, cell in zip(_CSV_PARSERS, rec))))
    return rows


def write_hop_trace(run: RunMetrics, path: str) -> None:
    """One tab-separated line per HopRecord, in recording order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_HOP_COLUMNS) + "\n")
        for h in run.hops:
            fh.write("\t".join(_row(h, _HOP_COLUMNS)) + "\n")
