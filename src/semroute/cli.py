"""Command-line entry point.

Subcommands: gen-data, train, eval, sweep, diagnose, gradcheck.
Exit codes: 0 success, 2 usage error, 3 data error, 4 divergence,
5 gradient-check failure.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from .cues import load_cue_table, save_cue_table
from .data import cue_table_from_samples, generate_dataset, load_dataset, save_dataset
from .diagnostics import write_diagnostics_csv, write_heatmap_csv
from .errors import DivergenceError, SemrouteError
from .fileio import write_csv
from .gradcheck import REL_TOL, gradient_check
from .model import Model, config_hash
from .trainer import TrainConfig, diagnose, evaluate, sweep, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_GRADCHECK = 5


def _load_config(path, seed=None, ablate=None) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        config = TrainConfig.from_dict(raw)
        if seed is not None:
            config = replace(config, seed=seed)
        if ablate:
            config = config.with_ablations([a.strip() for a in ablate.split(",") if a.strip()])
    except (SemrouteError, TypeError) as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc
    return config


class UsageError(Exception):
    pass


def _revision() -> str:
    """The short git revision of the checkout that holds this package."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, timeout=5, cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(out_dir: Path, config: TrainConfig, outputs: dict) -> Path:
    manifest = {
        "config_hash": config_hash(config.to_dict()),
        "seed": config.seed,
        "revision": _revision(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "finished_at": None,
        "status": None,
        "error": None,
        "outputs": {k: str(v) for k, v in outputs.items()},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path


def _finish_manifest(path: Path, status: str, error: str | None = None):
    """Record how the run ended: `status` is ok, diverged or error, and
    `error` the message of the exception that ended it."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.update(finished_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"), status=status,
                    error=error)
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def _load_split(data_dir: Path, split: str, config: TrainConfig):
    dataset_path = data_dir / f"{split}.jsonl"
    cues_path = data_dir / f"cues_{split}.jsonl"
    table = load_cue_table(cues_path) if cues_path.exists() else None
    return load_dataset(dataset_path, cue_table=table, only_variance=config.only_variance)


def cmd_gen_data(args) -> int:
    config = _load_config(args.config, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set, eval_set = generate_dataset(config, config.seed)
    for split, samples in (("train", train_set), ("eval", eval_set)):
        save_dataset(samples, out_dir / f"{split}.jsonl")
        save_cue_table(cue_table_from_samples(samples, config.d),
                       out_dir / f"cues_{split}.jsonl")
    (out_dir / "config.json").write_text(json.dumps(config.to_dict(), indent=2),
                                         encoding="utf-8")
    print(f"wrote {len(train_set)} train / {len(eval_set)} eval samples to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config, seed=args.seed, ablate=args.ablate)
    data_dir = Path(args.data_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set = _load_split(data_dir, "train", config)
    eval_set = _load_split(data_dir, "eval", config)
    checkpoint = out_dir / "checkpoint.npz"
    metrics = out_dir / "metrics.csv"
    manifest = _write_manifest(out_dir, config,
                               {"checkpoint": checkpoint, "metrics": metrics})
    try:
        model, _ = train(config, train_set, eval_set, metrics_path=metrics)
        model.save(checkpoint, config_hash=config_hash(config.to_dict()))
    except BaseException as exc:
        _finish_manifest(manifest, "diverged" if isinstance(exc, DivergenceError) else "error",
                         str(exc) or type(exc).__name__)
        raise
    _finish_manifest(manifest, "ok")
    print(f"trained {config.total_steps} steps; checkpoint at {checkpoint}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args.config, seed=args.seed, ablate=args.ablate)
    model = Model.load(args.checkpoint)
    eval_set = _load_split(Path(args.data_dir), "eval", config)
    metrics = evaluate(model, eval_set, args.mode, config)
    print(f"mode={args.mode} accuracy={metrics['accuracy']:.4f} "
          f"sim={metrics['sim_mean']:.4f} n={len(eval_set)}")
    if args.out:
        write_csv(args.out, ["mode", "accuracy", "sim_mean", "n"],
                  [[args.mode, repr(metrics["accuracy"]), repr(metrics["sim_mean"]),
                    len(eval_set)]])
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config, seed=args.seed)
    rows = sweep(args.grid_n, args.grid_k, config, out_path=args.out)
    for row in rows:
        print(f"n={row['n']} K={row['K']} acc={row['acc']} sim={row['sim']} "
              f"status={row['status']}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = _load_config(args.config, seed=args.seed, ablate=args.ablate)
    model = Model.load(args.checkpoint)
    eval_set = _load_split(Path(args.data_dir), "eval", config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = diagnose(model, eval_set, args.mode, config)
    run_id = config_hash(config.to_dict())
    write_diagnostics_csv(out_dir / "diagnostics.csv", run_id,
                          report["variance"], report["sim_mean"], report["sharpness"])
    write_heatmap_csv(out_dir / "heatmap.csv",
                      report["heatmap_categories"], report["heatmap"])
    print(f"sharpness={report['sharpness_overall']:.4f} "
          f"variance_x10={10 * report['variance_overall']:.4f} "
          f"sim={report['sim_mean']:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    config = _load_config(args.config, seed=args.seed)
    errors = gradient_check(config)
    worst = max(errors.values())
    for name in sorted(errors):
        status = "ok" if errors[name] <= REL_TOL else "FAIL"
        print(f"{name}: max relative error {errors[name]:.3e} [{status}]")
    print(f"worst: {worst:.3e} (tolerance {REL_TOL})")
    return EXIT_OK if worst <= REL_TOL else EXIT_GRADCHECK


def comma_ints(text) -> list:
    """A comma list of integers; argparse makes its ValueError a usage error."""
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semroute",
        description="Concept-guided MoE routing on synthetic embedding tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset and cue files")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write checkpoint + metrics.csv")
    common(p)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ablate", default="", help="comma list of ablation flag names")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--mode", choices=["teacher", "student"], default="student")
    p.add_argument("--ablate", default="")
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run the (n, K) grid sweep")
    common(p)
    p.add_argument("--grid-n", required=True, type=comma_ints,
                   help="comma list of expert counts")
    p.add_argument("--grid-k", required=True, type=comma_ints, help="comma list of K values")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="routing diagnostics + selection heatmap")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=["teacher", "student"], default="student")
    p.add_argument("--ablate", default="")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (SemrouteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
