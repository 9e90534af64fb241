"""Correctness gate, behaviour digest and model outputs, checked from outside.

Every run is audited against the protocol invariants:

* each generated packet has exactly one outcome;
* no data frame on the air carries a hop count above `br.hard_hop_cap`;
* for `br` only, past `br.loop_threshold` no data frame goes to a station
  that already forwarded that packet (the acceptance suite's criterion 5
  audit).

The digest hashes `outcomes`, `hops` and `routing_log` of a fixed job list,
so two commits can show bit-identical behaviour. A changed digest is
reported, never failed on: behaviour fixes stay possible.

Model outputs are simulated statistics. The repository holds no reference
measurements, so the model is unvalidated and no error figure is given.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


def problems(record) -> list[str]:
    """Broken invariants of one run; empty when the run is sound."""
    m = record.metrics
    br = record.scenario.br
    found = []
    if sorted(m.outcomes) != list(range(m.generated)):
        found.append(f"{m.generated} packets generated, outcomes for {sorted(m.outcomes)}")
    for uid, outcome in m.outcomes.items():
        if outcome.uid != uid or outcome.delivered != (outcome.hops is not None):
            found.append(f"malformed outcome {outcome!r}")
    top = max((rec.hop_count for rec in m.routing_log), default=0)
    if top > br.hard_hop_cap:
        found.append(f"wire hop count {top} above cap {br.hard_hop_cap}")
    if record.protocol == "br":
        forwarded_to = defaultdict(list)  # (uid, receiver) -> [(time, sender)]
        for hop in m.hops:
            if hop.success:
                forwarded_to[(hop.uid, hop.receiver)].append((hop.time_ms, hop.sender))
        for rec in m.routing_log:
            if rec.hop_count <= br.loop_threshold:
                continue
            priors = {
                sender
                for t, sender in forwarded_to[(rec.uid, rec.sender)]
                if t <= rec.time_ms
            }
            if rec.receiver in priors:
                found.append(
                    f"uid {rec.uid} revisited {rec.receiver} at hop {rec.hop_count}"
                )
    return [f"{record.protocol} seed {record.seed}: {p}" for p in found]


def digest(records) -> str:
    """sha256 over outcomes, hops and routing_log of the runs, in job order."""
    h = hashlib.sha256()
    for r in records:
        m = r.metrics
        h.update(f"{r.scenario.name} {r.protocol} {r.seed}\n".encode())
        for uid in sorted(m.outcomes):
            h.update(repr(m.outcomes[uid]).encode())
        for hop in m.hops:
            h.update(repr(hop).encode())
        for rec in m.routing_log:
            h.update(repr(rec).encode())
    return h.hexdigest()


def model_outputs(records) -> dict[str, float]:
    """Pooled simulated statistics over the runs (exact for a fixed job list)."""
    generated = delivered = hop_sum = 0
    lengths = []
    for r in records:
        m = r.metrics
        generated += m.generated
        for o in m.outcomes.values():
            if o.delivered:
                delivered += 1
                hop_sum += o.hops
        lengths += [h.distance_m for h in m.hops if h.success]
    return {
        "delivery_ratio": delivered / generated if generated else 0.0,
        "mean_hops": hop_sum / delivered if delivered else 0.0,
        "mean_perhop_m": sum(lengths) / len(lengths) if lengths else 0.0,
    }
