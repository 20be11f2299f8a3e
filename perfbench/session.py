"""The benchmark's workloads and the cycle of calls each one repeats.

Every workload measures every end-to-end metric, at its own shape and
scale, so a change that helps one shape and hurts the other shows up:

- train_default: `trainer.train` at the paper defaults takes most of the time.
- eval_wide: checkpoint round trip, `evaluate` in both modes and `diagnose`
  at E=16, K=4, J=8 over a 500-sample split dominate; training is short.
- data_roundtrip: `generate_dataset` at the default config, then
  `save_dataset`/`save_cue_table` and `load_cue_table`/`load_dataset`.

A cycle repeats identical work (same seeds), so each cycle's outputs must
be bit-identical to the first cycle's, traced or not.
"""
from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from semroute import cues, data, model, trainer


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict           # TrainConfig fields: shape, set-up dataset, train() length
    train_eval_size: int   # eval samples train() scores every `eval_every` steps
    io_sizes: tuple        # (train_size, eval_size) generated, saved and loaded per cycle


# Cycles are short (about 1.5-2.5 s) so that a run holds many of them: on a
# shared 2-vCPU VM the CPU's speed swings by up to 2x over seconds, and only
# a median over many repeats steadies the result. Per-sample costs are linear in the
# sample count, so small round-trip datasets give the same per-sample rates.
WORKLOADS = {w.name: w for w in (
    Workload("train_default", dict(total_steps=100),
             train_eval_size=100, io_sizes=(80, 20)),
    Workload("eval_wide", dict(n_experts=16, k=4, option_count=8, n_concepts=16,
                               train_size=256, eval_size=500, total_steps=10),
             train_eval_size=20, io_sizes=(20, 5)),
    Workload("data_roundtrip", dict(train_size=256, eval_size=200, total_steps=20),
             train_eval_size=20, io_sizes=(200, 50)),
)}

SETUP_REPEATS = 3
CHECKPOINT_REPEATS = 3


def tail(values):
    """(value, percentile, samples beyond) for the highest percentile that
    leaves at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100.0, 0


class Session:
    """Set-up data, the measured cycle, its output checks and the timings."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.config = trainer.TrainConfig(seed=seed, **workload.config)
        train_size, eval_size = workload.io_sizes
        self.io_config = replace(self.config, train_size=train_size, eval_size=eval_size)
        self.io_seed = seed + 1
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.times = {name: [] for name in (
            "setup_s", "train_samples_per_s", "train_step_ms", "eval_teacher_us_per_sample",
            "eval_student_us_per_sample", "diagnose_us_per_sample",
            "checkpoint_roundtrip_ms", "gen_samples_per_s", "save_samples_per_s",
            "load_samples_per_s", "cycle_s")}
        self._first = {}  # check name -> digest of the first cycle's output

    # -- bookkeeping ---------------------------------------------------------

    def _check(self, what, problem=None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")

    def _same_as_first(self, what, digest):
        first = self._first.setdefault(what, digest)
        return None if digest == first else "output differs from the first cycle"

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        """Generate the workload's dataset; repeated to time set-up."""
        start = time.perf_counter()
        self.train_set, self.eval_set = data.generate_dataset(self.config, self.config.seed)
        self.times["setup_s"].append(time.perf_counter() - start)
        self._check("setup", self._same_as_first(
            "setup", checks.samples_digest(self.train_set + self.eval_set)))

    # -- the measured cycle ------------------------------------------------------

    def cycle(self):
        start = time.perf_counter()
        self._data_roundtrip()
        trained = self._train()
        loaded = self._checkpoint(trained)
        self._evaluate(loaded)
        wall = time.perf_counter() - start
        self.times["cycle_s"].append(wall)
        return wall

    def _data_roundtrip(self):
        cfg = self.io_config
        start = time.perf_counter()
        splits = data.generate_dataset(cfg, self.io_seed)
        gen_s = time.perf_counter() - start
        generated = splits[0] + splits[1]
        self._check("generate_dataset", self._same_as_first(
            "generate_dataset", checks.samples_digest(generated)))

        paths = [(self.workdir / f"{split}.jsonl", self.workdir / f"cues_{split}.jsonl")
                 for split in ("train", "eval")]
        start = time.perf_counter()
        for samples, (dataset_path, cue_path) in zip(splits, paths):
            data.save_dataset(samples, dataset_path)
            cues.save_cue_table(data.cue_table_from_samples(samples, cfg.d), cue_path)
        save_s = time.perf_counter() - start
        lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for pair in paths for p in pair)
        expected_lines = 2 * 2 + len(generated) + len(generated) * cfg.option_count
        self._check("save", None if lines == expected_lines
                    else f"{lines} lines written, expected {expected_lines}")

        start = time.perf_counter()
        loaded = []
        for dataset_path, cue_path in paths:
            table = cues.load_cue_table(cue_path)
            loaded += data.load_dataset(dataset_path, table, only_variance=cfg.only_variance)
        load_s = time.perf_counter() - start
        self._check("load", checks.samples_mismatch(generated, loaded))

        n = len(generated)
        self.times["gen_samples_per_s"].append(n / gen_s)
        self.times["save_samples_per_s"].append(n / save_s)
        self.times["load_samples_per_s"].append(n / load_s)

    def _train(self):
        cfg = self.config
        metrics_path = self.workdir / "metrics.csv"
        step_ms = []
        step = trainer.train_step

        def timed_step(*args, **kwargs):
            t0 = time.perf_counter()
            out = step(*args, **kwargs)
            step_ms.append(1e3 * (time.perf_counter() - t0))
            return out

        trainer.train_step = timed_step
        try:
            start = time.perf_counter()
            trained, rows = trainer.train(cfg, self.train_set,
                                          self.eval_set[:self.workload.train_eval_size],
                                          metrics_path=metrics_path)
            train_s = time.perf_counter() - start
        finally:
            trainer.train_step = step
        self.times["train_samples_per_s"].append(cfg.batch * cfg.total_steps / train_s)
        self.times["train_step_ms"] += step_ms

        losses = [(r["L_main"], r["L_contrast"], r["L_distill"], r["L_total"]) for r in rows]
        csv_rows = len(metrics_path.read_text(encoding="utf-8").splitlines()) - 1
        if len(rows) != cfg.total_steps or csv_rows != cfg.total_steps:
            problem = f"{len(rows)} rows, {csv_rows} in metrics.csv, expected {cfg.total_steps}"
        elif not all(math.isfinite(v) for row in losses for v in row):
            problem = "non-finite loss"
        else:
            problem = self._same_as_first("train", checks.values_digest(rows))
        self._check("train", problem)
        return trained

    def _checkpoint(self, trained):
        path = self.workdir / "checkpoint.json"
        for _ in range(CHECKPOINT_REPEATS):
            start = time.perf_counter()
            trained.save(path, config_hash=model.config_hash(self.config.to_dict()))
            loaded = model.Model.load(path)
            self.times["checkpoint_roundtrip_ms"].append(1e3 * (time.perf_counter() - start))
            same = (loaded.params.keys() == trained.params.keys()
                    and all(np.array_equal(loaded.params[k], v) for k, v in trained.params.items())
                    and (loaded.d, loaded.n_experts, loaded.k, loaded.hidden)
                    == (trained.d, trained.n_experts, trained.k, trained.hidden))
            self._check("checkpoint", None if same else "loaded parameters differ")
        return loaded

    def _evaluate(self, loaded):
        cfg = self.config
        n = len(self.eval_set)
        results = {}
        for mode in ("teacher", "student"):
            start = time.perf_counter()
            metrics = trainer.evaluate(loaded, self.eval_set, mode, cfg)
            self.times[f"eval_{mode}_us_per_sample"].append(1e6 * (time.perf_counter() - start) / n)
            results[mode] = metrics
            accuracy, sim = checks.oracle_evaluate(loaded, self.eval_set, mode, cfg)
            if metrics["accuracy"] != accuracy:
                problem = f"accuracy {metrics['accuracy']!r}, oracle {accuracy!r}"
            elif not checks.close(metrics["sim_mean"], sim, checks.ORACLE_RTOL):
                problem = f"Sim {metrics['sim_mean']!r}, oracle {sim!r}"
            else:
                problem = self._same_as_first(f"evaluate_{mode}", checks.values_digest(
                    metrics["accuracy"], metrics["sim_mean"]))
            self._check(f"evaluate {mode}", problem)

        start = time.perf_counter()
        report = trainer.diagnose(loaded, self.eval_set, "student", cfg)
        self.times["diagnose_us_per_sample"].append(1e6 * (time.perf_counter() - start) / n)
        student = results["student"]
        heat = report["heatmap"]
        if (report["accuracy"], report["sim_mean"]) != (student["accuracy"], student["sim_mean"]):
            problem = "accuracy or Sim differs from evaluate(student)"
        elif not np.allclose(heat.sum(axis=1), cfg.k, rtol=0.0, atol=1e-12):
            problem = "heatmap rows do not sum to K"
        elif not all(math.isfinite(report[k]) for k in ("sharpness_overall", "variance_overall")):
            problem = "non-finite sharpness or variance"
        else:
            problem = self._same_as_first("diagnose", checks.values_digest(
                report["sharpness"], report["variance"], heat.tobytes()))
        self._check("diagnose", problem)

    # -- after the measured cycles ------------------------------------------------

    def reference_check(self):
        self._check("reference run", checks.reference_mismatch(self.workload.name, self.config))

    def end_to_end(self):
        """Medians over the run's repeated units, plus the step-time tail."""
        med = {name: statistics.median(vals) for name, vals in self.times.items() if vals}
        steps = self.times["train_step_ms"]
        step_tail, pct, beyond = tail(steps)
        metrics = {name: med[name] for name in (
            "setup_s", "train_samples_per_s", "eval_teacher_us_per_sample",
            "eval_student_us_per_sample", "diagnose_us_per_sample", "checkpoint_roundtrip_ms",
            "gen_samples_per_s", "save_samples_per_s", "load_samples_per_s")}
        metrics["train_step_ms_p50"] = med["train_step_ms"]
        metrics["train_step_ms_tail"] = step_tail
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes = {
            "train_step_ms_tail": f"p{pct:g} of {len(steps)} steps, {beyond} beyond",
            "cycles": len(self.times["cycle_s"]),
        }
        return metrics, notes
