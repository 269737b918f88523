"""Per-layer tracing installed from outside the package.

The tracer wraps the package's public functions at every name the package
binds them under (``from x import y`` makes a second binding, so wrapping
only the defining module would miss the calls that go through the copy).
Spanned functions record (name, start, end, parent) in memory; hot leaves
only count calls, because a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter

# (layer, module, attribute): a span per call.  Several attributes may share
# one layer name; "Class.method" wraps the method on the class.
SPANNED = (
    ("harness.run_experiment", "fairorder.harness", "run_experiment"),
    ("consensus.run_slotted", "fairorder.consensus", "run_slotted"),
    ("consensus.order_leader_rotation", "fairorder.consensus", "order_leader_rotation"),
    ("consensus.order_receive_all_correct", "fairorder.consensus", "order_receive_all_correct"),
    ("consensus.noise_from_seed", "fairorder.consensus", "noise_from_seed"),
    ("netmodel.observe", "fairorder.netmodel", "observe"),
    ("sro.reveal", "fairorder.sro", "SroHandle.reveal"),
    ("sro.signatures_valid", "fairorder.sro", "SroHandle.signatures_valid"),
    ("sro.quorum_signatures", "fairorder.sro", "SroHandle.quorum_signatures"),
    ("adversary.private_relay_placement", "fairorder.adversary", "private_relay_placement"),
    ("attacks.payoff_table", "fairorder.attacks", "payoff_table"),
    ("domain.make_command_id", "fairorder.domain", "make_command_id"),
    ("analysis.order_prob_monte_carlo", "fairorder.analysis", "order_prob_monte_carlo"),
    ("analysis.order_prob_integrate", "fairorder.analysis", "order_prob_integrate"),
    ("analysis.closed_forms", "fairorder.analysis", "order_prob_bounds"),
    ("analysis.closed_forms", "fairorder.analysis", "epsilon_general"),
    ("analysis.closed_forms", "fairorder.analysis", "epsilon_pair"),
    ("analysis.closed_forms", "fairorder.analysis", "delta_linearizability"),
)

# Hot leaves: calls counted, no span.  Their time stays in the caller's self time.
COUNTED = (
    ("sro.sign_slot", "fairorder.sro", "sign_slot"),
    ("domain.median_timestamp", "fairorder.domain", "median_timestamp"),
    ("domain.tie_break_key", "fairorder.domain", "tie_break_key"),
)

# The per-layer metrics the benchmark reports, with their units.  Layers that
# do not run on a workload report 0, as do ratios whose base is 0.
PER_LAYER = (
    ("sro.reveal.calls", "count"),
    ("sro.reveal.busy_s", "s"),
    ("sro.reveal.self_s", "s"),
    ("sro.signatures_valid.busy_s", "s"),
    ("sro.quorum_signatures.busy_s", "s"),
    ("sro.sign_slot.calls", "count"),
    ("sro.sign_slot_per_reveal", "calls/reveal"),
    ("sro.reveals_per_trial", "reveals/trial"),
    ("netmodel.observe.calls", "count"),
    ("netmodel.observe.busy_s", "s"),
    ("netmodel.observe_per_trial", "calls/trial"),
    ("consensus.run_slotted.calls", "count"),
    ("consensus.run_slotted.busy_s", "s"),
    ("consensus.run_slotted.self_s", "s"),
    ("consensus.noise_from_seed.calls", "count"),
    ("consensus.noise_from_seed.busy_s", "s"),
    ("consensus.order_leader_rotation.busy_s", "s"),
    ("consensus.order_receive_all_correct.busy_s", "s"),
    ("adversary.private_relay_placement.calls", "count"),
    ("adversary.private_relay_placement.busy_s", "s"),
    ("attacks.payoff_table.busy_s", "s"),
    ("domain.make_command_id.calls", "count"),
    ("domain.make_command_id.busy_s", "s"),
    ("domain.median_timestamp.calls", "count"),
    ("domain.tie_break_key.calls", "count"),
    ("harness.run_experiment.busy_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("analysis.order_prob_monte_carlo.calls", "count"),
    ("analysis.order_prob_monte_carlo.busy_s", "s"),
    ("analysis.order_prob_integrate.busy_s", "s"),
    ("analysis.closed_forms.busy_s", "s"),
    ("sim.slots_per_trial", "slots/trial"),
    ("sim.clamp_rate", "ratio"),
    ("sim.emission_latency_ms.p50", "sim_ms"),
    ("sim.emission_latency_ms.p99", "sim_ms"),
    ("trace.overhead_s", "s"),
    ("wait.off_cpu_s", "s"),
)


class SimStats:
    """Simulated statistics read from each RunResult that run_slotted returns."""

    def __init__(self):
        self.runs = 0
        self.slots = 0
        self.clamp_violations = 0
        self.clamp_observations = 0
        self.latencies_us = []  # end of the emission slot minus invoke time

    def add(self, result):
        self.runs += 1
        self.slots += len(result.slots)
        self.clamp_violations += result.clamp_stats.violations
        self.clamp_observations += result.clamp_stats.observations
        slot_end = {slot.index: slot.interval_end for slot in result.slots}
        for command_id, k in result.emission_slot.items():
            invoked = result.commands[command_id].invocation.invoke_time
            self.latencies_us.append(slot_end[k] - invoked)

    def quantile_ms(self, q: float) -> float:
        """Nearest-rank quantile; 0 when no command was emitted."""
        if not self.latencies_us:
            return 0.0
        ordered = sorted(self.latencies_us)
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1000


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, outermost of its layer]
        self.counts = Counter()
        self.sim = SimStats()
        self.missing = []  # bindings absent from the package, so never traced
        self._stack = []
        self._depth = Counter()
        self._undo = []

    def install(self):
        for layer, module, attr in SPANNED:
            on_result = self.sim.add if layer == "consensus.run_slotted" else None
            self._patch(module, attr, lambda fn, layer=layer, cb=on_result: self._spanned(layer, fn, cb))
        for layer, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, layer=layer: self._counted(layer, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module_name, attr, make_wrapper):
        owner = importlib.import_module(module_name)
        cls_name, _, attr_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr_name, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        if cls_name:
            bindings = [(owner, attr_name)]
        else:
            bindings = [
                (module, key)
                for name, module in list(sys.modules.items())
                if name == "fairorder" or name.startswith("fairorder.")
                for key, value in list(vars(module).items())
                if value is original
            ]
        for binding_owner, key in bindings:
            self._undo.append((binding_owner, key, original))
            setattr(binding_owner, key, wrapper)

    def _spanned(self, layer, fn, on_result):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, depth[layer] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[layer] -= 1
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, layer, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self):
        """calls, busy and self seconds per spanned layer.

        Busy time sums a layer's outermost spans, so recursion is not counted
        twice; self time is a span's duration minus its direct children's.
        """
        calls, busy, own = Counter(self.counts), Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, outermost in self.spans:
            calls[layer] += 1
            if outermost:
                busy[layer] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        for (layer, start, end, _, _), covered in zip(self.spans, child_time):
            own[layer] += end - start - covered
        return calls, busy, own

    def metrics(self, trials: int, scale: float) -> dict:
        """Every per-layer metric except the two the parent measures (trace, wait).

        Busy and self seconds are multiplied by ``scale``, the factor that
        turns this batch's measured seconds into reference seconds.
        """
        calls, busy, own = self.layer_times()
        out = {}
        for name, _ in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[layer]
            elif kind == "busy_s":
                out[name] = busy[layer] * scale
            elif kind == "self_s":
                out[name] = own[layer] * scale
        reveals, slotted = calls["sro.reveal"], calls["consensus.run_slotted"]
        out["sro.sign_slot_per_reveal"] = calls["sro.sign_slot"] / reveals if reveals else 0.0
        out["sro.reveals_per_trial"] = reveals / slotted if slotted else 0.0
        out["netmodel.observe_per_trial"] = calls["netmodel.observe"] / trials
        sim = self.sim
        out["sim.slots_per_trial"] = sim.slots / sim.runs if sim.runs else 0.0
        out["sim.clamp_rate"] = (
            sim.clamp_violations / sim.clamp_observations if sim.clamp_observations else 0.0
        )
        out["sim.emission_latency_ms.p50"] = sim.quantile_ms(0.50)
        out["sim.emission_latency_ms.p99"] = sim.quantile_ms(0.99)
        return out

    def write_spans(self, path, meta: dict):
        """Spans as [layer, start_s, end_s, parent], times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "meta": meta,
            "missing_bindings": self.missing,
            "counted_only": sorted({layer for layer, _, _ in COUNTED}),
            "counts": dict(self.counts),
            "spans": [
                [layer, round(start - t0, 9), round(end - t0, 9), parent]
                for layer, start, end, parent, _ in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
