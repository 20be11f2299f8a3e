"""Outside-in tracing of semroute's layers.

`Tracer.installed()` replaces each traced function where it is looked up at
call time (for example `trainer.evaluate`, `graph.batch_loss`, both
`data.score_cue_set` and `cues.score_cue_set`) with a wrapper that records a
span: name, start, end, parent span and run id (the cycle). Autodiff ops are
wrapped at `semroute.autodiff.<op>`, and the backward closure each op puts
on the tape is wrapped too. Nothing under `src/` changes; the originals are
put back on exit. Spans stay in memory until `write_spans`.
"""
from __future__ import annotations

import collections
import contextlib
import gzip
import inspect
import json
import statistics
import time

from semroute import autodiff, cues, data, diagnostics, graph, model, scoring, trainer

# Every op that puts a node on the tape.
TAPE_OPS = ("add", "sub", "mul", "scale", "matmul", "tanh", "softmax_rows",
            "masked_softmax_rows", "mix", "cosine_rows", "bce_logistic", "kl_rows",
            "stack_cols", "sum_all", "mean_all")

# (owner, attribute, span name) for every plainly wrapped function.
SPANS = (
    (trainer, "train", "trainer.train"),
    (trainer, "train_step", "trainer.train_step"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "diagnose", "trainer.diagnose"),
    (trainer, "clip_global_norm", "trainer.clip_global_norm"),
    (trainer.AdamW, "step", "trainer.adamw_step"),
    (trainer, "write_metrics_csv", "trainer.write_metrics_csv"),
    (graph, "batch_loss", "graph.batch_loss"),
    (trainer, "score_all_options", "scoring.score_all_options"),
    (scoring, "route", "model.route"),
    (scoring, "expert_forward", "model.expert_forward"),
    (trainer, "expert_forward", "model.expert_forward"),
    (model.Model, "save", "model.save"),
    (model.Model, "load", "model.load"),
    (trainer, "sim_score", "diagnostics.sim_score"),
    (trainer, "routing_variance", "diagnostics.routing_variance"),
    (trainer, "routing_sharpness", "diagnostics.routing_sharpness"),
    (trainer, "selection_heatmap", "diagnostics.selection_heatmap"),
    (data, "generate_dataset", "data.generate_dataset"),
    (data, "save_dataset", "data.save_dataset"),
    (data, "load_dataset", "data.load_dataset"),
    (data, "synthesize_cues", "cues.synthesize_cues"),
    (data, "score_cue_set", "cues.score_cue_set"),
    (cues, "score_cue_set", "cues.score_cue_set"),
    (cues, "save_cue_table", "cues.save_cue_table"),
    (cues, "load_cue_table", "cues.load_cue_table"),
)

# Called too often for a span each: counted only.
COUNTED = (
    (cues, "cosine", "numerics.cosine"),
    (scoring, "cosine", "numerics.cosine"),
    (diagnostics, "cosine", "numerics.cosine"),
)


def _tape_size(root) -> int:
    """Nodes reachable from `root`, the set `Tensor.backward` visits."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, run id]
        self.counts = collections.Counter()
        self.run_id = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _tape_op(self, op, fn):
        forward = self.wrap(f"autodiff.{op}.fwd", fn)
        backward_name = f"autodiff.{op}.bwd"

        def traced_op(*args, **kwargs):
            out = forward(*args, **kwargs)
            if out._backward is not None:
                out._backward = self.wrap(backward_name, out._backward)
            return out

        return traced_op

    def _backward(self, fn):
        traced = self.wrap("autodiff.backward", fn)
        # its own span, so the walk is not charged to train_step's self time
        walk = self.wrap("trace.tape_walk", _tape_size)

        def backward(tensor):
            self.counts["autodiff.tape_nodes"] += walk(tensor)
            return traced(tensor)

        return backward

    def _regenerate(self, fn):
        """Count regeneration rounds, and rounds whose candidate is returned."""
        traced = self.wrap("cues.regenerate_if_uncertain", fn)
        signature = inspect.signature(fn)
        counts = self.counts

        def regenerate_if_uncertain(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            generator = bound.arguments["generator"]
            made = []

            def counted_generator(*a, **k):
                made.append(generator(*a, **k))
                return made[-1]

            bound.arguments["generator"] = counted_generator
            best = traced(*bound.args, **bound.kwargs)
            counts["cues.regen_calls"] += 1
            counts["cues.regen_rounds"] += len(made)
            counts["cues.regen_accepted"] += any(best.positive is c.positive for c in made)
            return best

        return regenerate_if_uncertain

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, make):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(make(original.__func__)))
            else:
                setattr(owner, attr, make(original))

        try:
            for owner, attr, name in SPANS:
                patch(owner, attr, lambda fn, name=name: self.wrap(name, fn))
            for owner, attr, name in COUNTED:
                patch(owner, attr, lambda fn, name=name: self._counted(name, fn))
            for op in TAPE_OPS:
                patch(autodiff, op, lambda fn, op=op: self._tape_op(op, fn))
            patch(autodiff.Tensor, "backward", self._backward)
            patch(data, "regenerate_if_uncertain", self._regenerate)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer metrics of the traced cycles. Self time is a span's
        duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        calls = collections.Counter()
        eval_in_train = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "trainer.evaluate" and parent >= 0 and self.spans[parent][0] == "trainer.train":
                eval_in_train += end - start

        def ratio(a, b):
            return a / b if b else 0.0

        def mean(name, scale):
            return scale * ratio(total[name], calls[name])

        steps = calls["trainer.train_step"]
        diagnoses = calls["trainer.diagnose"]
        m = {}
        for op in TAPE_OPS:
            m[f"autodiff.{op}.calls"] = ratio(calls[f"autodiff.{op}.fwd"], steps)
            m[f"autodiff.{op}.fwd_ms"] = 1e3 * ratio(total[f"autodiff.{op}.fwd"], steps)
            m[f"autodiff.{op}.bwd_ms"] = 1e3 * ratio(total[f"autodiff.{op}.bwd"], steps)
        m["autodiff.op_calls_per_step"] = ratio(
            sum(calls[f"autodiff.{op}.fwd"] for op in TAPE_OPS), steps)
        m["autodiff.tape_nodes_per_step"] = ratio(self.counts["autodiff.tape_nodes"], steps)
        m["autodiff.backward_ms"] = mean("autodiff.backward", 1e3)
        m["graph.batch_loss_ms"] = mean("graph.batch_loss", 1e3)
        m["trainer.train_step_self_ms"] = 1e3 * ratio(self_time["trainer.train_step"], steps)
        m["trainer.clip_global_norm_ms"] = mean("trainer.clip_global_norm", 1e3)
        m["trainer.adamw_step_ms"] = mean("trainer.adamw_step", 1e3)
        m["trainer.write_metrics_csv_ms"] = mean("trainer.write_metrics_csv", 1e3)
        m["trainer.evaluate_ms"] = 1e3 * ratio(eval_in_train, calls["trainer.train"])
        m["trainer.evaluate_share"] = ratio(eval_in_train, total["trainer.train"])
        m["scoring.score_all_options_us"] = mean("scoring.score_all_options", 1e6)
        m["model.route_us"] = mean("model.route", 1e6)
        m["model.expert_forward_us"] = mean("model.expert_forward", 1e6)
        m["model.expert_forward_calls"] = ratio(calls["model.expert_forward"], cycles)
        m["diagnostics.sim_score_us"] = mean("diagnostics.sim_score", 1e6)
        for name in ("routing_variance", "selection_heatmap", "routing_sharpness"):
            m[f"diagnostics.{name}_ms"] = 1e3 * ratio(total[f"diagnostics.{name}"], diagnoses)
        m["model.save_ms"] = mean("model.save", 1e3)
        m["model.load_ms"] = mean("model.load", 1e3)
        m["cues.score_cue_set_calls"] = ratio(calls["cues.score_cue_set"], cycles)
        m["cues.score_cue_set_ms"] = 1e3 * ratio(total["cues.score_cue_set"], cycles)
        m["cues.synthesize_cues_calls"] = ratio(calls["cues.synthesize_cues"], cycles)
        m["cues.regen_rounds_per_option"] = ratio(self.counts["cues.regen_rounds"],
                                                  self.counts["cues.regen_calls"])
        m["cues.regen_accept_ratio"] = ratio(self.counts["cues.regen_accepted"],
                                             self.counts["cues.regen_rounds"])
        m["numerics.cosine_calls"] = ratio(self.counts["numerics.cosine"], cycles)
        m["data.generate_dataset_self_s"] = ratio(self_time["data.generate_dataset"],
                                                  calls["data.generate_dataset"])
        m["data.save_dataset_ms"] = 1e3 * ratio(total["data.save_dataset"], cycles)
        m["data.load_dataset_self_ms"] = 1e3 * ratio(self_time["data.load_dataset"], cycles)
        m["cues.save_cue_table_ms"] = 1e3 * ratio(total["cues.save_cue_table"], cycles)
        m["cues.load_cue_table_ms"] = 1e3 * ratio(total["cues.load_cue_table"], cycles)
        return m

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def overhead(untraced_walls, traced_walls) -> dict:
    """Tracing overhead per cycle: traced minus untraced medians."""
    plain = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    return {"trace.overhead_ms": 1e3 * (traced - plain),
            "trace.overhead_share": (traced - plain) / plain}
