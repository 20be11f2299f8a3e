"""The benchmark under `perfbench/` reads the program by name: its tracer
patches functions and tape ops where they are looked up, and its oracle
re-implements `evaluate` from the parameter names. A change that breaks
either would otherwise show only when the benchmark runs."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import small_config
from semroute import autodiff, trainer
from semroute.cues import load_cue_table, save_cue_table
from semroute.data import cue_table_from_samples, generate_dataset, load_dataset, save_dataset
from semroute.model import Model
from semroute.trainer import AdamW, TrainConfig, evaluate, train

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import checks  # noqa: E402
import tracing  # noqa: E402


def test_tracer_patches_and_restores_every_name():
    originals = {op: getattr(autodiff, op) for op in tracing.TAPE_OPS}
    named = [(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.COUNTED]
    named_originals = [vars(owner)[attr] for owner, attr in named]
    with tracing.Tracer().installed():
        assert all(getattr(autodiff, op) is not fn for op, fn in originals.items())
        for (owner, attr), fn in zip(named, named_originals):
            assert vars(owner)[attr] is not fn, f"{owner.__name__}.{attr} not replaced"
    assert all(getattr(autodiff, op) is fn for op, fn in originals.items())
    for (owner, attr), fn in zip(named, named_originals):
        assert vars(owner)[attr] is fn, f"{owner.__name__}.{attr} not restored"


def test_tracer_sees_the_tape_of_a_default_step():
    # the benchmark's tape gate: a traced step counts tape nodes and a backward
    config = TrainConfig(train_size=64, eval_size=16)
    train_set, _ = generate_dataset(config, config.seed)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, config.seed)
    tracer = tracing.Tracer()
    with tracer.installed():
        trainer.train_step(model, train_set.batch.take(slice(0, config.batch)), config, 0,
                           AdamW(model.vector.size, config))
    assert tracer.counts["autodiff.tape_nodes"] >= 1
    assert [span[0] for span in tracer.spans].count("autodiff.backward") >= 1
    metrics = tracer.layer_metrics(cycles=1)
    assert metrics["autodiff.tape_nodes_per_step"] >= 1


def test_traced_metrics_are_the_declared_per_layer_names():
    # a traced run reports the tracer's metrics plus its overhead, and
    # fails unless their names are exactly BENCHMARK.json's per_layer names
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = tracing.Tracer().layer_metrics(cycles=1)
    metrics.update(tracing.overhead([1.0], [1.1]))
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])


def test_checkpoint_saves_to_the_exact_path(tmp_path):
    # the benchmark saves to "checkpoint.json"; np.savez given that path
    # would write "checkpoint.json.npz" instead
    model = Model.init(4, 3, 2, 5, seed=1)
    path = tmp_path / "checkpoint.json"
    model.save(path, config_hash="abc123")
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
    loaded = Model.load(path)
    assert loaded.vector.tobytes() == model.vector.tobytes()
    assert all(np.shares_memory(v, loaded.vector) for v in loaded.params.values())
    assert all(np.shares_memory(b, loaded.vector) for b in loaded.blocks.values())


def test_splits_round_trip_as_the_benchmark_uses_them(tmp_path):
    # the benchmark joins the two splits with `+`, extends a list with
    # each loaded split and compares the samples one by one
    config = small_config()
    splits = generate_dataset(config, config.seed)
    generated = splits[0] + splits[1]
    assert type(generated) is list
    assert checks.samples_digest(generated) == checks.samples_digest([*splits[0], *splits[1]])
    loaded = []
    for name, samples in zip(("train", "eval"), splits):
        save_dataset(samples, tmp_path / f"{name}.jsonl")
        save_cue_table(cue_table_from_samples(samples, config.d), tmp_path / f"cues_{name}.jsonl")
        loaded += load_dataset(tmp_path / f"{name}.jsonl",
                               load_cue_table(tmp_path / f"cues_{name}.jsonl"),
                               only_variance=config.only_variance)
    assert checks.samples_mismatch(generated, loaded) is None
    assert checks.samples_digest(loaded) == checks.samples_digest(generated)


@pytest.fixture(scope="module")
def trained():
    config = small_config(eval_size=60)
    train_set, eval_set = generate_dataset(config, config.seed)
    model, _ = train(config, train_set, eval_set)
    return config, model, eval_set


@pytest.mark.parametrize("mode", ["teacher", "student"])
def test_oracle_matches_evaluate(trained, mode):
    config, model, eval_set = trained
    metrics = evaluate(model, eval_set, mode, config)
    accuracy, sim = checks.oracle_evaluate(model, eval_set, mode, config)
    assert metrics["accuracy"] == accuracy
    assert metrics["sim_mean"] == pytest.approx(sim, rel=1e-9, abs=0.0)
