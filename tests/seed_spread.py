"""How much of acceptance criteria 6-9 is the seed: a report, not a test.

Trains the criteria 6-9 fixture's three configurations (full, fully ablated
and `no_sa`) at seeds 0-8 on the fixture's code path, `TrainConfig(seed=s)`
and `generate_dataset(config, s)`, and prints the criteria's 3-seed means
over the windows 0-2 (the tests' seeds), 3-5, 6-8 and all nine, then the
per-seed values. Bold marks a value that would fail its criterion. The file
has no `test_` prefix, so pytest does not collect it.

    PYTHONPATH=src python tests/seed_spread.py

27 full training runs: about three minutes on one core of a 2-vCPU VM.
"""
from dataclasses import replace

import numpy as np

from test_acceptance import FULL_ABLATION
from semroute.data import generate_dataset
from semroute.trainer import TrainConfig, diagnose, train

SEEDS = range(9)
WINDOWS = (((0, 1, 2), "0, 1, 2 (tier-1)"), ((3, 4, 5), "3, 4, 5"), ((6, 7, 8), "6, 7, 8"),
           (tuple(SEEDS), "all nine"))
CONFIGS = (("full", {}), ("ablated", FULL_ABLATION), ("no_sa", {"no_sa": True}))


def seed_values(seed: int) -> dict:
    """The per-seed quantities that criteria 6-9 average over seeds."""
    config = TrainConfig(seed=seed)
    train_set, eval_set = generate_dataset(config, seed)
    runs = {}
    for tag, flags in CONFIGS:
        cell = replace(config, **flags)
        model, rows = train(cell, train_set, eval_set)
        runs[tag] = (cell, model, rows)
    full, ablated = runs["full"][2], runs["ablated"][2]
    stats = {tag: diagnose(runs[tag][1], eval_set, "student", runs[tag][0])
             for tag in ("full", "no_sa")}
    # accuracies are multiples of 1/500, so a gap is a multiple of 0.2 points
    # up to the float roundoff of 100 * (a - b), which must not decide a
    # comparison with a threshold: 2.0000000000000018 is 2 points
    return {
        "sim_gain": full[-1]["sim"] - full[0]["sim"],
        "gap7": round(100.0 * (full[-1]["eval_acc_student"]
                               - ablated[-1]["eval_acc_student"]), 9),
        "gap8": round(100.0 * abs(full[-1]["eval_acc_teacher"]
                                  - full[-1]["eval_acc_student"]), 9),
        "var_full": stats["full"]["variance_overall"],
        "var_no_sa": stats["no_sa"]["variance_overall"],
        "sharp_full": stats["full"]["sharpness_overall"],
        "sharp_no_sa": stats["no_sa"]["sharpness_overall"],
    }


def bold(text: str, ok: bool) -> str:
    return text if ok else f"**{text}**"


def ordered(a: float, b: float, sign: str, decimals: int) -> str:
    """`a <sign> b`, with more decimals where `decimals` would show a tie."""
    while f"{a:.{decimals}f}" == f"{b:.{decimals}f}" and decimals < 9:
        decimals += 1
    return f"{a:.{decimals}f} {sign} {b:.{decimals}f}"


def window_row(label: str, values: list) -> str:
    mean = {key: float(np.mean([v[key] for v in values])) for key in values[0]}
    var_ok = mean["var_full"] < mean["var_no_sa"]
    sharp_ok = mean["sharp_full"] > mean["sharp_no_sa"]
    cells = [
        label,
        bold(f"{mean['sim_gain']:.3f}", mean["sim_gain"] >= 0.05),
        bold(f"{mean['gap7']:.2f}", mean["gap7"] >= 5.0),
        bold(f"{mean['gap8']:.2f}", mean["gap8"] <= 2.0),
        bold(ordered(mean["var_full"], mean["var_no_sa"], "<" if var_ok else ">", 5), var_ok),
        bold(ordered(mean["sharp_full"], mean["sharp_no_sa"], ">" if sharp_ok else "<", 4),
             sharp_ok),
    ]
    return "| " + " | ".join(cells) + " |"


def main():
    per_seed = {}
    for seed in SEEDS:
        per_seed[seed] = seed_values(seed)
        print(f"seed {seed} trained", flush=True)
    print()
    print("| seeds | 6: Sim gain (≥ 0.05) | 7: gap (≥ 5) | 8: gap (≤ 2) "
          "| 9: variance, full vs `no_sa` | 9: sharpness, full vs `no_sa` |")
    print("|---|---|---|---|---|---|")
    for seeds, label in WINDOWS:
        print(window_row(label, [per_seed[s] for s in seeds]))
    print()
    print("| seed | Sim gain | 7: gap | 8: gap | variance, full / `no_sa` "
          "| sharpness, full / `no_sa` |")
    print("|---|---|---|---|---|---|")
    for seed, v in per_seed.items():
        print(f"| {seed} | {v['sim_gain']:.3f} | {v['gap7']:.1f} | {v['gap8']:.1f} "
              f"| {v['var_full']:.5f} / {v['var_no_sa']:.5f} "
              f"| {v['sharp_full']:.4f} / {v['sharp_no_sa']:.4f} |")
    values = list(per_seed.values())
    gap7, gap8 = [v["gap7"] for v in values], [v["gap8"] for v in values]
    print()
    print(f"- criterion 7 reaches 5 points at {sum(g >= 5.0 for g in gap7)} of {len(values)} "
          f"seeds (range {min(gap7):.1f}-{max(gap7):.1f})")
    print(f"- criterion 8 stays within 2 points at {sum(g <= 2.0 for g in gap8)} of "
          f"{len(values)} (range {min(gap8):.1f}-{max(gap8):.1f})")
    print(f"- the variance is lower at "
          f"{sum(v['var_full'] < v['var_no_sa'] for v in values)} of {len(values)}")
    print(f"- the sharpness is higher at "
          f"{sum(v['sharp_full'] > v['sharp_no_sa'] for v in values)} of {len(values)}")
    print(f"- the Sim gain is at least {min(v['sim_gain'] for v in values):.3f} at all "
          f"{len(values)}")


if __name__ == "__main__":
    main()
