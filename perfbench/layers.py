"""Per-layer spans and counters, installed around brsim's entry points.

Nothing inside brsim is edited: `Tracer.install` replaces the public methods
and functions of each module with wrappers that time a span and update
counters, and `uninstall` puts the originals back. A layer's self time is its
spans' duration minus the part covered by child spans of other layers, so
self times add up to the traced host time.

The layers are brsim's modules:

    engine      Engine.run_until / schedule; run_until's self time
                includes the private Simulation._handle dispatch
    rng         Engine.draw_uniform / bernoulli, which drive the RngStreams
    channel     LinkCache
    simulation  Simulation (construction, run, radio and bookkeeping calls),
                run_scenario, run_many
    protocol    RadioNode, BrNode, AodvNode public methods
    scenario    document loading, overrides, validation, generators
    metrics     summarize, CSV and hop-trace writers
    cli         brsim.cli.main

The frame codec never runs during a simulation and is not measured.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from brsim import baseline, br_node, channel, cli, engine, metrics, protocol
from brsim import scenario, simulation

_EVENT_KINDS = {
    engine.FrameArrival: "arrive",
    engine.TimerFire: "timer",
    engine.DecisionEpoch: "epoch",
    engine.BeaconTick: "beacon",
}
FRAME_TYPES = ("src_bcast", "response", "routing", "ack", "dst_bcast")
LAYERS = ("engine", "rng", "channel", "simulation", "protocol", "scenario", "metrics", "cli")


def _public(cls) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    ]


class Tracer:
    """Aggregated spans and counters for the runs made while installed."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.span_s: Counter[str] = Counter()  # inclusive time per wrapped name
        self.counts: Counter[str] = Counter()
        self.heap_peak = 0
        self.trace_lines = 0
        self._stack: list[list] = []  # [layer, child seconds]
        self._pairs: set[tuple[int, int]] = set()
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans ----------------------------------------------------------

    def _wrap(self, layer: str, label: str, fn, hook=None):
        stack = self._stack
        self_s = self.self_s
        span_s = self.span_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            entry = [layer, 0.0]
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - entry[1]
                if outer:
                    span_s[label] += dt
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(outer, args, kwargs, result)
            return result

        return span

    def _patch(self, owner, name: str, layer: str, hook=None) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        setattr(owner, name, self._wrap(layer, label, original, hook))

    def _patch_function(self, module, name: str, layer: str) -> None:
        """Replace a function in its module and wherever brsim imported it."""
        original = getattr(module, name)
        wrapped = self._wrap(layer, name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("brsim") and getattr(
                mod, name, None
            ) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapped)

    # ---- counter hooks ----------------------------------------------------

    def _count(self, key: str, outer_only: bool = False):
        """Count calls; with outer_only, skip calls made from the same layer."""
        counts = self.counts

        def hook(outer, args, kwargs, result):
            if outer or not outer_only:
                counts[key] += 1

        return hook

    def _on_schedule(self, outer, args, kwargs, result) -> None:
        if isinstance(args[2], engine.FrameArrival):
            self.counts["arrivals_scheduled"] += 1
        depth = args[0].pending()
        if depth > self.heap_peak:
            self.heap_peak = depth

    def _on_coin(self, outer, args, kwargs, result) -> None:
        self.counts["coin_flips"] += 1
        self.counts["coins_listen"] += bool(result)

    def _on_rssi(self, outer, args, kwargs, result) -> None:
        self._pairs.add((args[1], args[2]))

    def _on_adjudicate(self, outer, args, kwargs, result) -> None:
        if outer:
            self.counts["sir_checks"] += 1
            self.counts["arrivals_accepted"] += bool(result)

    def _on_transmit(self, outer, args, kwargs, result) -> None:
        frame = args[3] if len(args) > 3 else kwargs["frame"]
        self.counts["tx." + frame.type.name.lower()] += 1

    def _on_cca(self, outer, args, kwargs, result) -> None:
        self.counts["cca_checks"] += 1
        self.counts["cca_busy"] += bool(result)

    # ---- install ------------------------------------------------------------

    def install(self) -> None:
        kinds = self.counts
        run_until = engine.Engine.run_until

        def counting_run_until(eng, horizon, handler=None):
            if handler is not None:
                inner = handler

                def handler(ev):
                    kinds["event." + _EVENT_KINDS.get(type(ev), "other")] += 1
                    inner(ev)

            return run_until(eng, horizon, handler)

        self._undo.append((engine.Engine, "run_until", run_until))
        engine.Engine.run_until = counting_run_until
        self._patch(engine.Engine, "run_until", "engine")
        self._patch(engine.Engine, "schedule", "engine", self._on_schedule)

        self._patch(engine.Engine, "draw_uniform", "rng", self._count("draws"))
        self._patch(engine.Engine, "bernoulli", "rng", self._on_coin)

        link = channel.LinkCache
        self._patch(link, "rssi_of", "channel", self._on_rssi)
        self._patch(link, "can_hear", "channel", self._count("link_queries", outer_only=True))
        self._patch(link, "beacon_audible", "channel", self._count("link_queries", outer_only=True))
        self._patch(link, "delivery", "channel", self._on_adjudicate)
        self._patch(link, "beacon", "channel", self._on_adjudicate)

        sim = simulation.Simulation
        self._patch(sim, "__init__", "simulation")
        self._patch(sim, "run", "simulation", self._on_sim_run)
        self._patch(sim, "transmit", "simulation")
        self._patch(sim, "transmit_at", "simulation", self._on_transmit)
        self._patch(sim, "channel_busy", "simulation", self._on_cca)
        self._patch(sim, "deliver", "simulation")
        self._patch(sim, "drop", "simulation")
        self._patch(sim, "record_hop", "simulation", self._on_record_hop)
        self._patch_function(simulation, "run_scenario", "simulation")
        self._patch_function(simulation, "run_many", "simulation")

        for cls in (protocol.RadioNode, br_node.BrNode, baseline.AodvNode):
            for name in _public(cls):
                hook = None
                if name == "beb_backoff":
                    hook = self._count("backoffs")
                elif name in ("select_forwarder", "select_next_hop"):
                    hook = self._count("hop_attempts")
                self._patch(cls, name, "protocol", hook)
            if "_start_handshake" in vars(cls):
                self._patch(cls, "_start_handshake", "protocol", self._count("handshakes"))

        for name in (
            "load_raw",
            "parse_document",
            "apply_overrides",
            "build_scenario",
            "load_scenario",
            "list_bundled",
            "tandem_topology",
            "grid_topology",
        ):
            self._patch_function(scenario, name, "scenario")

        for name in ("summarize", "write_csv", "read_csv", "write_hop_trace"):
            self._patch_function(metrics, name, "metrics")

        self._patch(cli, "main", "cli")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ---- per-run hooks ------------------------------------------------------

    def _on_sim_run(self, outer, args, kwargs, result) -> None:
        self.counts["link_pairs"] += len(self._pairs)
        self._pairs.clear()
        if result.trace is not None:
            self.trace_lines += len(result.trace)

    def _on_record_hop(self, outer, args, kwargs, result) -> None:
        self.counts["hops_acked"] += bool(kwargs["success"])

    # ---- report ---------------------------------------------------------------

    def exact(self) -> dict[str, int]:
        """Counts that a fixed job list must reproduce exactly."""
        c = self.counts
        out = {
            "engine.events": sum(c[f"event.{k}"] for k in (*_EVENT_KINDS.values(), "other")),
        }
        for kind in _EVENT_KINDS.values():
            out[f"engine.events.{kind}"] = c[f"event.{kind}"]
        out["engine.heap_peak"] = self.heap_peak
        out["rng.draws"] = c["draws"]
        out["rng.coin_flips"] = c["coin_flips"]
        out["channel.link_queries"] = c["link_queries"]
        out["channel.link_pairs"] = c["link_pairs"]
        out["channel.sir_checks"] = c["sir_checks"]
        out["channel.arrivals_scheduled"] = c["arrivals_scheduled"]
        out["channel.arrivals_accepted"] = c["arrivals_accepted"]
        for ft in FRAME_TYPES:
            out[f"simulation.transmissions.{ft}"] = c[f"tx.{ft}"]
        out["simulation.cca_checks"] = c["cca_checks"]
        out["simulation.cca_busy"] = c["cca_busy"]
        out["protocol.handshakes"] = c["handshakes"]
        out["protocol.hop_attempts"] = c["hop_attempts"]
        out["protocol.hops_acked"] = c["hops_acked"]
        out["protocol.backoffs"] = c["backoffs"]
        out["protocol.coins_listen"] = c["coins_listen"]
        out["cli.trace_lines"] = self.trace_lines
        return out
