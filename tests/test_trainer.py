"""Scheduler, optimizer, training loop, evaluation and the sweep harness."""
import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_config
from semroute.data import generate_dataset, load_dataset, save_dataset
from semroute.errors import DataError, DivergenceError, InvalidInputError
from semroute import graph, trainer
from semroute.graph import Batch
from semroute.model import Model
from semroute.trainer import (
    METRIC_COLUMNS,
    AdamW,
    TrainConfig,
    clip_global_norm,
    diagnose,
    evaluate,
    lr_at,
    sweep,
    train,
    train_step,
    write_metrics_csv,
)


class TestSchedule:
    def test_pinned_endpoints(self):
        config = TrainConfig()
        assert lr_at(0, config) == 0.0
        assert lr_at(config.warmup_steps, config) == config.lr == 1e-4
        assert lr_at(config.total_steps, config) == pytest.approx(config.lr_min,
                                                                  rel=1e-9)
        assert config.lr_min == 1e-6

    def test_cosine_midpoint(self):
        config = TrainConfig()
        mid = config.warmup_steps + (config.total_steps - config.warmup_steps) // 2
        assert lr_at(mid, config) == pytest.approx(
            (config.lr + config.lr_min) / 2, abs=1e-12)

    def test_warmup_linear(self):
        config = TrainConfig()
        assert lr_at(50, config) == pytest.approx(config.lr / 2, rel=1e-12)

    def test_monotone_decay_after_warmup(self):
        config = TrainConfig()
        values = [lr_at(s, config) for s in range(config.warmup_steps,
                                                  config.total_steps + 1, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidInputError):
            lr_at(-1, TrainConfig())

    def test_zero_warmup_starts_at_peak(self):
        config = TrainConfig(warmup_steps=0)
        assert lr_at(0, config) == pytest.approx(config.lr, rel=1e-12)
        assert lr_at(config.total_steps, config) == pytest.approx(config.lr_min, rel=1e-9)


class TestClip:
    def test_large_gradient_clipped_to_unit_norm(self, rng):
        grad = rng.standard_normal(23) * 10
        norm = clip_global_norm(grad, 1.0)
        assert norm > 1.0
        assert np.linalg.norm(grad) == pytest.approx(1.0, abs=1e-9)

    def test_small_gradient_untouched(self):
        g = np.array([0.1, 0.2])
        grad = g.copy()
        assert clip_global_norm(grad, 1.0) == pytest.approx(np.linalg.norm(g), rel=1e-15)
        np.testing.assert_array_equal(grad, g)


class TestAdamW:
    def test_matches_the_per_element_formula(self, rng):
        # the in-place whole-vector update is the textbook one, bit for bit
        config = TrainConfig(weight_decay=0.05)
        p = rng.standard_normal(50)
        p_ref, m, v = p.copy(), np.zeros(50), np.zeros(50)
        optimizer = AdamW(p.size, config)
        for t in range(1, 4):
            g = rng.standard_normal(50)
            optimizer.step(p, g, 0.01)
            m = config.beta1 * m + (1.0 - config.beta1) * g
            v = config.beta2 * v + (1.0 - config.beta2) * g * g
            m_hat = m / (1.0 - config.beta1 ** t)
            v_hat = v / (1.0 - config.beta2 ** t)
            p_ref -= 0.01 * (m_hat / (np.sqrt(v_hat) + config.adam_eps)
                             + config.weight_decay * p_ref)
            np.testing.assert_array_equal(p, p_ref)


class TestTrainStep:
    def test_zero_lr_is_noop(self, config):
        # step 0 sits at the start of warmup where the schedule is 0
        assert lr_at(0, config) == 0.0
        train_set, _ = generate_dataset(config, seed=config.seed)
        model = Model.init(config.d, config.n_experts, config.k, config.hidden,
                           config.seed)
        before = {n: p.copy() for n, p in model.params.items()}
        optimizer = AdamW(model.vector.size, config)
        train_step(model, Batch.of(train_set[:4]), config, 0, optimizer)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p, before[name])

    @pytest.mark.parametrize("max_norm", [1e-6, 1e6])
    def test_reports_the_pre_clip_gradient_norm(self, config, max_norm):
        config = replace(config, grad_clip_norm=max_norm)
        train_set, _ = generate_dataset(config, seed=config.seed)
        batch = Batch.of(train_set[:4])
        model = Model.init(config.d, config.n_experts, config.k, config.hidden, 0)
        grad = np.zeros_like(model.vector)
        total, _, _ = graph.batch_loss(graph.parameter_tensors(model, grad), batch, config)
        total.backward()
        _, aux = train_step(model, batch, config, 5, AdamW(model.vector.size, config))
        assert aux["grad_norm"] == pytest.approx(np.linalg.norm(grad), rel=1e-12)
        assert aux["clipped"] == (max_norm == 1e-6)

    def test_divergence_error_carries_context(self, config):
        train_set, _ = generate_dataset(config, seed=config.seed)
        model = Model.init(config.d, config.n_experts, config.k, config.hidden,
                           config.seed)
        model.params["gating"][0, 0] = np.nan
        optimizer = AdamW(model.vector.size, config)
        with pytest.raises(DivergenceError) as exc:
            train_step(model, Batch.of(train_set[:4]), config, 3, optimizer)
        assert exc.value.step == 3


class TestConfig:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(DataError):
            TrainConfig.from_dict({"d": 8, "learning_rate": 0.1})

    def test_round_trip(self):
        config = small_config()
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_with_ablations(self):
        config = small_config().with_ablations(["no_sa", "no_distill"])
        assert config.no_sa and config.no_distill and not config.no_contrast
        with pytest.raises(DataError):
            small_config().with_ablations(["no_such_flag"])

    def test_guards(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(k=9, n_experts=8)
        with pytest.raises(InvalidInputError):
            TrainConfig(option_count=1)
        with pytest.raises(InvalidInputError):
            TrainConfig(lambda_a=-0.5)

    @pytest.mark.parametrize("scale", [0.0, 1e-300, -1e-300])
    def test_vanishing_inputs_rejected(self, scale):
        # zero or underflowing input embeddings have no cosine
        with pytest.raises(InvalidInputError, match="input_scale or input_noise"):
            TrainConfig(input_scale=scale, input_noise=0.0)
        TrainConfig(input_scale=scale, input_noise=0.1)
        TrainConfig(input_scale=-1.0, input_noise=0.0)

    @pytest.mark.parametrize("field, value", [
        ("eval_every", 0), ("batch", 0), ("train_size", 0), ("total_steps", 0),
        ("warmup_steps", -1), ("temperature", 0.0), ("temperature", -1.0),
        ("temperature", float("nan")), ("d", 0), ("hidden", 0), ("eval_size", 0),
        ("beta1", 1.5), ("beta1", -0.1), ("beta2", 1.0), ("adam_eps", 0.0),
        ("grad_clip_norm", 0.0), ("weight_decay", -0.01), ("input_noise", -1.0),
        ("option_noise", -0.3), ("cue_noise", -0.05), ("lambda_a", float("nan")),
        ("lr", float("inf")), ("d", 8.5), ("batch", True),
        ("variant_count", 1), ("unc_threshold", 0.0), ("max_regen_rounds", 0),
        ("option_count", 9), ("cue_scale", 0.0), ("cue_scale", 1e-200), ("d", 1),
        ("seed", -1), ("lr", True), ("weight_decay", 1e4),
    ])
    def test_out_of_range_rejected_up_front(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            TrainConfig(**{field: value})


class TestDataGeneration:
    def test_same_seed_bit_identical(self, config):
        a_train, a_eval = generate_dataset(config, seed=5)
        b_train, b_eval = generate_dataset(config, seed=5)
        for a, b in zip(a_train + a_eval, b_train + b_eval):
            np.testing.assert_array_equal(a.input_emb, b.input_emb)
            assert a.correct == b.correct and a.category == b.category

    def test_sizes_and_balance(self, config):
        train_set, eval_set = generate_dataset(config, seed=0)
        assert len(train_set) == config.train_size
        assert len(eval_set) == config.eval_size
        categories = [s.category for s in train_set + eval_set]
        counts = np.array([categories.count(c) for c in sorted(set(categories))])
        assert len(counts) == config.n_concepts
        assert counts.max() - counts.min() <= 1  # exact balance up to remainder

    def test_option_count_guard(self, config):
        with pytest.raises(InvalidInputError):
            generate_dataset(replace(config, option_count=4, n_concepts=3), seed=0)

    def test_save_load_round_trip(self, config, tmp_path):
        from semroute.cues import save_cue_table
        from semroute.data import cue_table_from_samples
        train_set, _ = generate_dataset(config, seed=0)
        data_path = tmp_path / "train.jsonl"
        cues_path = tmp_path / "cues.jsonl"
        save_dataset(train_set, data_path)
        save_cue_table(cue_table_from_samples(train_set, config.d), cues_path)
        from semroute.cues import load_cue_table
        loaded = load_dataset(data_path, cue_table=load_cue_table(cues_path))
        assert len(loaded) == len(train_set)
        for a, b in zip(loaded, train_set):
            np.testing.assert_array_equal(a.input_emb, b.input_emb)
            assert a.correct == b.correct
            for (ta, ca), (tb, cb) in zip(a.options, b.options):
                np.testing.assert_array_equal(ta, tb)
                np.testing.assert_array_equal(ca.positive, cb.positive)


class TestLoadDataset:
    @pytest.mark.parametrize("edit", ["drop_option", "short_input", "short_option"])
    def test_ragged_file_rejected(self, config, tmp_path, edit):
        samples, _ = generate_dataset(config, seed=0)
        path = tmp_path / "train.jsonl"
        save_dataset(samples[:3], path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        if edit == "drop_option":
            rec["options"].pop()
        elif edit == "short_input":
            rec["input_emb"].pop()
        else:
            rec["options"][1].pop()
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 4"):
            load_dataset(path)

    @pytest.mark.parametrize("edit, where", [
        ("inf_input", "line 3"), ("nan_option", "line 3"), ("count_high", "count"),
        ("count_low", "count"), ("no_count", "line 1"), ("bad_header", "line 1"),
    ])
    def test_non_finite_values_and_wrong_count_rejected(self, config, tmp_path, edit, where):
        samples, _ = generate_dataset(config, seed=0)
        path = tmp_path / "train.jsonl"
        save_dataset(samples[:3], path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        if edit == "inf_input":
            rec["input_emb"][0] = float("inf")
        elif edit == "nan_option":
            rec["options"][1][2] = float("nan")
        elif edit == "count_high":
            lines[0] = json.dumps({"version": 1, "count": 4})
        elif edit == "count_low":
            lines[0] = json.dumps({"version": 1, "count": 2})
        elif edit == "no_count":
            lines[0] = json.dumps({"version": 1})
        else:
            lines[0] = "[1, 2"
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=where):
            load_dataset(path)


    @pytest.mark.parametrize("line, field, value", [
        (2, "sample_id", 7), (2, "category", 3), (1, "count", True), (1, "count", -1),
        (2, "input_emb", ["1.5"] * 8), (2, "options", [[True] * 8] * 3),
        (2, "options", [[0.5] * 8, [0.5] * 8, [0.5] * 7 + [None]]),
    ])
    def test_record_types_rejected(self, config, tmp_path, line, field, value):
        # an int id never matches the cue table's string keys
        samples, _ = generate_dataset(config, seed=0)
        path = tmp_path / "train.jsonl"
        save_dataset(samples[:1], path)
        lines = path.read_text().splitlines()
        lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line {line}: .*({field}|numbers)"):
            load_dataset(path)

    @pytest.mark.parametrize("version", [None, 2, "1", True, 1.0])
    def test_header_version_other_than_1_rejected(self, config, tmp_path, version):
        samples, _ = generate_dataset(config, seed=0)
        path = tmp_path / "train.jsonl"
        save_dataset(samples[:1], path)
        lines = path.read_text().splitlines()
        header = {"count": 1} if version is None else {"version": version, "count": 1}
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(DataError, match="line 1: .*version"):
            load_dataset(path)

    def test_zero_norm_input_with_cues_rejected_at_its_line(self, config, tmp_path):
        from semroute.cues import load_cue_table, save_cue_table
        from semroute.data import cue_table_from_samples
        samples, _ = generate_dataset(config, seed=0)
        save_dataset(samples[:3], tmp_path / "train.jsonl")
        save_cue_table(cue_table_from_samples(samples[:3], config.d), tmp_path / "cues.jsonl")
        lines = (tmp_path / "train.jsonl").read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "input_emb": [0.0] * config.d})
        (tmp_path / "train.jsonl").write_text("\n".join(lines) + "\n")
        load_dataset(tmp_path / "train.jsonl")  # without cues nothing divides by its norm
        with pytest.raises(DataError, match="line 3: .*zero norm"):
            load_dataset(tmp_path / "train.jsonl", load_cue_table(tmp_path / "cues.jsonl"))

    def test_overflowing_input_norm_with_cues_rejected_at_its_line(self, config, tmp_path):
        from semroute.cues import load_cue_table, save_cue_table
        from semroute.data import cue_table_from_samples
        samples, _ = generate_dataset(config, seed=0)
        save_dataset(samples[:3], tmp_path / "train.jsonl")
        save_cue_table(cue_table_from_samples(samples[:3], config.d), tmp_path / "cues.jsonl")
        lines = (tmp_path / "train.jsonl").read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]),
                               "input_emb": [1e200] + [0.0] * (config.d - 1)})
        (tmp_path / "train.jsonl").write_text("\n".join(lines) + "\n")
        load_dataset(tmp_path / "train.jsonl")  # without cues nothing divides by its norm
        with pytest.raises(DataError, match="line 4: .*overflows"):
            load_dataset(tmp_path / "train.jsonl", load_cue_table(tmp_path / "cues.jsonl"))

    def test_mixed_variant_counts_score_as_one_set_at_a_time(self, config, tmp_path, rng):
        from semroute.cues import CueSet, load_cue_table, save_cue_table, score_cue_set
        from semroute.data import cue_table_from_samples
        samples, _ = generate_dataset(config, seed=0)
        table = cue_table_from_samples(samples, config.d)
        for n, (key, cs) in enumerate(sorted(table.items())):
            variants = [cs.positive + rng.standard_normal(config.d) for _ in range(2 + n % 3)]
            table.put(*key, CueSet(cs.positive, cs.negative, variants))
        save_dataset(samples, tmp_path / "train.jsonl")
        save_cue_table(table, tmp_path / "cues.jsonl")
        loaded = load_dataset(tmp_path / "train.jsonl", load_cue_table(tmp_path / "cues.jsonl"),
                              only_variance=True)
        for s in loaded:
            for oid, (_, cs) in enumerate(s.options):
                one = score_cue_set(table.get(s.sample_id, oid), s.input_emb, only_variance=True)
                assert (cs.agreement, cs.variance, cs.uncertainty) == \
                    (one.agreement, one.variance, one.uncertainty)
        assert {len(cs.variants) for s in loaded for _, cs in s.options} == {2, 3, 4}


class TestEvaluate:
    def test_untrained_model_is_chance_level(self):
        config = TrainConfig(train_size=4, eval_size=500, seed=0)
        _, eval_set = generate_dataset(config, seed=config.seed)
        model = Model.init(config.d, config.n_experts, config.k, config.hidden,
                           seed=123)
        metrics = evaluate(model, eval_set, "student", config)
        assert 0.20 <= metrics["accuracy"] <= 0.30  # 25% +/- binomial band

    def test_empty_dataset_rejected(self, config):
        model = Model.init(config.d, config.n_experts, config.k, config.hidden, 0)
        with pytest.raises(DataError):
            evaluate(model, [], "student", config)

    @pytest.mark.parametrize("change", [{"k": 1}, {"n_experts": 5}, {"hidden": 7}, {"d": 9}])
    def test_model_config_mismatch_rejected(self, config, change):
        # a K=2 model evaluated under a K=1 config would select Top-1 silently
        _, eval_set = generate_dataset(config, seed=0)
        model = Model.init(config.d, config.n_experts, config.k, config.hidden, 0)
        with pytest.raises(InvalidInputError, match="differ from the config"):
            evaluate(model, eval_set, "student", replace(config, **change))

    def test_dataset_dimension_mismatch_rejected(self, config):
        _, eval_set = generate_dataset(replace(config, d=config.d + 2), seed=0)
        model = Model.init(config.d, config.n_experts, config.k, config.hidden, 0)
        with pytest.raises(DataError, match="dimension"):
            evaluate(model, eval_set, "student", config)
        with pytest.raises(DataError, match="dimension"):
            train(config, eval_set, eval_set)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    config = small_config(total_steps=8)
    train_set, eval_set = generate_dataset(config, seed=config.seed)
    metrics_path = tmp_path_factory.mktemp("run") / "metrics.csv"
    model, rows = train(config, train_set, eval_set, metrics_path=metrics_path)
    return config, train_set, eval_set, model, rows, metrics_path


class TestTrainLoop:
    def test_row_per_step_with_all_columns(self, run):
        config, _, _, _, rows, metrics_path = run
        assert len(rows) == config.total_steps
        assert set(rows[0]) == set(METRIC_COLUMNS)
        with open(metrics_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == config.total_steps
        assert list(csv_rows[0]) == list(METRIC_COLUMNS)

    def test_gradient_norm_logged(self, run):
        config, _, _, _, rows, metrics_path = run
        with open(metrics_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        for row, csv_row in zip(rows, csv_rows):
            assert np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0.0
            assert row["clipped"] == int(row["grad_norm"] > config.grad_clip_norm)
            assert float(csv_row["grad_norm"]) == row["grad_norm"]
            assert int(csv_row["clipped"]) == row["clipped"]

    def test_losses_finite(self, run):
        _, _, _, _, rows, _ = run
        for row in rows:
            for key in ("L_main", "L_contrast", "L_distill", "L_total"):
                assert np.isfinite(row[key])

    def test_determinism(self, run):
        config, train_set, eval_set, model, rows, _ = run
        model_b, rows_b = train(config, train_set, eval_set)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p, model_b.params[name])
        assert rows[-1] == rows_b[-1]

    def test_diagnose_report_shape(self, run):
        config, _, eval_set, model, _, _ = run
        report = diagnose(model, eval_set, "student", config)
        assert set(report["variance"]) == set(report["sharpness"])
        assert report["heatmap"].shape == (len(report["heatmap_categories"]),
                                           config.n_experts)
        np.testing.assert_allclose(report["heatmap"].sum(axis=1), config.k,
                                   atol=1e-12)


class TestSweep:
    def test_single_cell(self, tmp_path):
        config = small_config(total_steps=3, train_size=12, eval_size=6)
        out = tmp_path / "sweep.csv"
        rows = sweep([4], [2], config, out_path=out)
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0]) == ["n", "K", "acc", "sim", "status"]

    def test_dataset_generated_once(self, monkeypatch):
        # the dataset reads neither n_experts nor K, so every cell shares it
        config = small_config(total_steps=3, train_size=12, eval_size=6)
        calls = []

        def counted(cfg, seed):
            calls.append(seed)
            return generate_dataset(cfg, seed)

        monkeypatch.setattr(trainer, "generate_dataset", counted)
        rows = sweep([2, 4], [1, 2], config)
        assert calls == [config.seed]
        assert [r["status"] for r in rows] == ["ok"] * 4

    def test_infeasible_cell_marked_failed(self, tmp_path):
        config = small_config(total_steps=3, train_size=12, eval_size=6)
        rows = sweep([2, 4], [3], config)
        by_cell = {(r["n"], r["K"]): r for r in rows}
        assert by_cell[(2, 3)]["status"].startswith("failed:")
        assert by_cell[(4, 3)]["status"] == "ok"


class TestMetricsCSV:
    def test_kept_when_training_diverges(self, tmp_path):
        # the step-0 update at this rate blows the weights up, so step 1's loss
        # is not finite
        config = small_config(lr=1e6, weight_decay=0.0, grad_clip_norm=1e9, warmup_steps=0)
        train_set, eval_set = generate_dataset(config, seed=config.seed)
        path = tmp_path / "metrics.csv"
        with pytest.raises(DivergenceError) as exc:
            train(config, train_set, eval_set, metrics_path=path)
        assert exc.value.step == 1
        with open(path, newline="") as fh:
            loaded = list(csv.DictReader(fh))
        assert [row["step"] for row in loaded] == ["0"]
        assert list(loaded[0]) == list(METRIC_COLUMNS)

    def test_round_trip_readable(self, tmp_path):
        rows = [dict(zip(METRIC_COLUMNS, [0, 1e-4, 1.0, -0.1, 0.2, 1.1, 2.5, 1,
                                          0.5, 0.4, 0.4, 0.3]))]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        with open(path, newline="") as fh:
            loaded = list(csv.DictReader(fh))
        assert float(loaded[0]["L_total"]) == 1.1
