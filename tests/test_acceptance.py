"""Acceptance suite: eleven numbered criteria, one printed pass/fail line each.

Criteria 6-9 share nine trained models (full / fully-ablated / no-injection
configurations across seeds 0, 1, 2) built once per session; expect a few
minutes of wall time for that fixture.
"""
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_sample_factory
from semroute import graph
from semroute.autodiff import bce_logistic, sum_all
from semroute.cues import uncertainty
from semroute.data import generate_dataset
from semroute.gradcheck import REL_TOL, gradient_check
from semroute.model import Model, student_gate, teacher_gate
from semroute.scoring import option_gate, score_all_options
from semroute.trainer import TrainConfig, diagnose, train

FULL_ABLATION = dict(no_sa=True, no_sj=True, no_unc=True, no_contrast=True,
                     no_distill=True)
SEEDS = (0, 1, 2)


@pytest.fixture
def report(capsys):
    def _report(number, ok, detail):
        with capsys.disabled():
            print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {number}: {detail}"
    return _report


@pytest.fixture(scope="session")
def trained_models():
    """Nine full-budget training runs: three configurations x three seeds."""
    runs = {}
    for seed in SEEDS:
        config = TrainConfig(seed=seed)
        train_set, eval_set = generate_dataset(config, seed)
        for tag, flags in (("full", {}), ("ablated", FULL_ABLATION),
                           ("no_sa", {"no_sa": True})):
            cell = replace(config, **flags)
            model, rows = train(cell, train_set, eval_set)
            runs[(tag, seed)] = {"config": cell, "model": model, "rows": rows,
                                 "eval_set": eval_set}
    return runs


def test_criterion_1_gating_validity(report, rng):
    violations = 0
    for _ in range(1000):
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, e + 1))
        z = rng.standard_normal(e) * 3
        s = rng.standard_normal(e)
        _, g_t = teacher_gate(z, s, float(rng.uniform(0, 1)))
        g_s = student_gate(z)
        topk = tuple(sorted(rng.choice(e, size=k, replace=False).tolist()))
        g_o = option_gate(z, topk, rng.standard_normal(e), 0.5)
        for gate in (g_t, g_s, g_o):
            if abs(gate.sum() - 1.0) > 1e-12 or not np.all(gate > 0):
                violations += 1
    report(1, violations == 0,
           f"teacher/student/option gates valid over 1000 draws "
           f"({violations} violations, tolerance 1e-12)")


def test_criterion_2_perturbation_bound(report, rng):
    violations = 0
    worst_margin = np.inf
    for _ in range(1000):
        z = rng.standard_normal(8) * 3
        s = rng.standard_normal(8) * 2
        for lam in (0.1, 0.5, 1.0):
            _, g_t = teacher_gate(z, s, lam)
            gap = float(np.abs(g_t - student_gate(z)).sum())
            bound = 2.0 * lam * float(np.abs(s).max())
            worst_margin = min(worst_margin, bound - gap)
            if gap > bound + 1e-12:
                violations += 1
    report(2, violations == 0,
           f"||g_teacher - g_student||_1 within 2*lambda*||s||_inf over 3000 "
           f"draws ({violations} violations, slack {worst_margin:.3e})")


def test_criterion_3_shared_topk(report, rng):
    model = Model.init(16, 8, 2, 8, seed=0)
    make = random_sample_factory(model, rng)
    mismatches = 0
    for _ in range(1000):
        sample = make()
        for mode in ("teacher", "student"):
            decision, reps = score_all_options(sample, model, mode)
            sets = {decision.topk}
            # every option's gate is a distribution over that one set
            for rep in reps:
                if rep.option_gate.shape != (model.k,):
                    sets.add(None)
            if len(sets) != 1:
                mismatches += 1
    report(3, mismatches == 0,
           f"all options share one Top-K set per sample, both modes, "
           f"1000 samples ({mismatches} mismatches)")


def test_criterion_4_gradient_rescaling_bound(report, rng):
    config = TrainConfig(d=8, n_experts=4, k=2, hidden=6, option_count=4,
                         no_contrast=True, no_distill=True)
    model = Model.init(config.d, config.n_experts, config.k, config.hidden, 0)
    make = random_sample_factory(model, rng, n_options=config.option_count)
    violations = 0
    for _ in range(100):
        sample = make()
        batch = [sample]
        tensors = graph.parameter_tensors(model)
        total, breakdown, aux = graph.batch_loss(tensors, batch, config)
        total.backward()
        main_norms = {n: np.linalg.norm(t.grad) for n, t in tensors.items()}
        w_max = max(breakdown.option_weights[0])

        frozen = {"topk_mask": aux["topk_mask"]}
        bce_norms = {n: 0.0 for n in main_norms}
        for oid in range(config.option_count):
            tensors_o = graph.parameter_tensors(model)
            scores, _, _ = graph.forward_options(tensors_o, batch, config, frozen)
            label = np.array([1.0 if sample.correct == oid else 0.0])
            sum_all(bce_logistic(scores[oid], label, config.temperature)).backward()
            for name, t in tensors_o.items():
                bce_norms[name] += np.linalg.norm(t.grad)
        for name in main_norms:
            if main_norms[name] > w_max * bce_norms[name] + 1e-12:
                violations += 1
    report(4, violations == 0,
           f"||grad main loss|| within (max weight) * sum ||grad BCE_j|| per "
           f"tensor, 100 instances ({violations} violations)")


def test_criterion_5_gradient_correctness(report, rng):
    worst = 0.0
    for _ in range(20):
        e = int(rng.integers(2, 5))
        config = TrainConfig(
            d=int(rng.integers(4, 9)), n_experts=e, k=int(rng.integers(1, min(e, 2) + 1)),
            hidden=int(rng.integers(3, 7)), option_count=int(rng.integers(2, 4)),
            n_concepts=4, train_size=8, eval_size=2, seed=int(rng.integers(10_000)))
        worst = max(worst, max(gradient_check(config).values()))
    report(5, worst <= REL_TOL,
           f"analytic vs finite-difference gradients on 20 small configs "
           f"(worst relative error {worst:.3e}, tolerance {REL_TOL})")


def test_criterion_6_alignment_improves(report, trained_models):
    gains = []
    for seed in SEEDS:
        rows = trained_models[("full", seed)]["rows"]
        gains.append(rows[-1]["sim"] - rows[0]["sim"])
    mean_gain = float(np.mean(gains))
    report(6, mean_gain >= 0.05,
           f"held-out Sim gain over initialization, 3-seed mean "
           f"{mean_gain:.4f} (threshold 0.05; per seed "
           f"{', '.join(f'{g:.3f}' for g in gains)})")


def test_criterion_7_mechanism_efficacy(report, trained_models):
    gaps = []
    for seed in SEEDS:
        full = trained_models[("full", seed)]["rows"][-1]["eval_acc_student"]
        ablated = trained_models[("ablated", seed)]["rows"][-1]["eval_acc_student"]
        gaps.append(100.0 * (full - ablated))
    mean_gap = float(np.mean(gaps))
    report(7, mean_gap >= 5.0,
           f"full model vs fully-ablated baseline, 3-seed mean gap "
           f"{mean_gap:.2f} points (threshold 5; per seed "
           f"{', '.join(f'{g:.1f}' for g in gaps)})")


def test_criterion_8_cue_free_inference(report, trained_models):
    gaps = []
    for seed in SEEDS:
        row = trained_models[("full", seed)]["rows"][-1]
        gaps.append(100.0 * abs(row["eval_acc_teacher"] - row["eval_acc_student"]))
    mean_gap = float(np.mean(gaps))
    report(8, mean_gap <= 2.0,
           f"student within teacher accuracy, 3-seed mean gap "
           f"{mean_gap:.2f} points (threshold 2; per seed "
           f"{', '.join(f'{g:.1f}' for g in gaps)})")


def test_criterion_9_routing_consistency(report, trained_models):
    variances = {"full": [], "no_sa": []}
    sharpnesses = {"full": [], "no_sa": []}
    for tag in ("full", "no_sa"):
        for seed in SEEDS:
            run = trained_models[(tag, seed)]
            stats = diagnose(run["model"], run["eval_set"], "student",
                             run["config"])
            variances[tag].append(stats["variance_overall"])
            sharpnesses[tag].append(stats["sharpness_overall"])
    var_full = float(np.mean(variances["full"]))
    var_nosa = float(np.mean(variances["no_sa"]))
    sharp_full = float(np.mean(sharpnesses["full"]))
    sharp_nosa = float(np.mean(sharpnesses["no_sa"]))
    ok = var_full < var_nosa and sharp_full > sharp_nosa
    report(9, ok,
           f"student-mode routing: variance {var_full:.5f} < {var_nosa:.5f} "
           f"and sharpness {sharp_full:.4f} > {sharp_nosa:.4f} vs no-injection "
           f"ablation (3-seed means, directional)")


def test_criterion_10_uncertainty_monotonicity(report):
    agr_grid = np.linspace(0.0, 1.0, 100)
    var_grid = np.linspace(0.0, 0.5, 100)
    grid = np.array([[uncertainty(a, v) for v in var_grid] for a in agr_grid])
    non_increasing_in_agr = bool(np.all(np.diff(grid, axis=0) <= 1e-15))
    non_decreasing_in_var = bool(np.all(np.diff(grid, axis=1) >= -1e-15))
    exact = all(uncertainty(a, v, only_variance=True) == v
                for a in agr_grid[::9] for v in var_grid[::9])
    report(10, non_increasing_in_agr and non_decreasing_in_var and exact,
           f"uncertainty monotone on a 100x100 grid (non-increasing in "
           f"agreement: {non_increasing_in_agr}, non-decreasing in variance: "
           f"{non_decreasing_in_var}) and only-variance mode exact: {exact}")


def test_criterion_11_sweep_harness(report, tmp_path):
    import csv

    from semroute import cli
    config = TrainConfig(d=8, hidden=8, option_count=3, n_concepts=4,
                         train_size=48, eval_size=24, total_steps=30,
                         warmup_steps=5, eval_every=15, batch=16, seed=0)
    config_path = tmp_path / "config.json"
    import json
    config_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config", str(config_path),
                     "--grid-n", "2,4,8", "--grid-k", "1,2,3",
                     "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = (code == cli.EXIT_OK and len(rows) == 9
          and list(rows[0]) == ["n", "K", "acc", "sim", "status"])
    failed, completed = 0, 0
    for row in rows:
        if int(row["K"]) > int(row["n"]):
            ok = ok and row["status"].startswith("failed:")
            failed += 1
        else:
            ok = ok and row["status"] == "ok" and 0.0 <= float(row["acc"]) <= 1.0
            completed += 1
    report(11, ok,
           f"(n, K) sweep CSV well-formed: {completed} cells completed, "
           f"{failed} infeasible cells marked failed out of 9")
