"""semroute benchmark.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 30 --trace 0

Runs one workload (or `all`, each in its own process) in a closed loop for
`--seconds`, checks every output, and prints each metric with its unit.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Results, the environment and (traced) the spans go to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("train_default", "eval_wide", "data_roundtrip")

# Small matrices: one BLAS thread is the fastest and the steadiest, and it
# stays at or below the core count on any machine.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "semroute").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one process, each call starts when the previous returns",
    }


def measure(args):
    """Run one workload; return (metrics by name, notes, attempted, failures)."""
    import session
    import tracing

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sess = session.Session(session.WORKLOADS[args.workload], args.seed, workdir)
        for _ in range(session.SETUP_REPEATS):
            sess.setup()

        tracer = tracing.Tracer() if args.trace else None
        walls = {False: [], True: []}
        start = time.perf_counter()
        pair = 0
        # Traced runs alternate untraced and traced cycles, switching which
        # goes first, so the overhead is measured on identical work.
        while True:
            order = (False, True) if pair % 2 == 0 else (True, False)
            for traced in (order if tracer else (False,)):
                if traced:
                    with tracer.installed():
                        walls[True].append(sess.cycle())
                    tracer.run_id += 1
                else:
                    walls[False].append(sess.cycle())
            pair += 1
            if time.perf_counter() - start >= args.seconds:
                break
        sess.reference_check()

        if tracer:
            metrics = tracer.layer_metrics(cycles=len(walls[True]))
            metrics.update(tracing.overhead(walls[False], walls[True]))
            notes = {"traced_cycles": len(walls[True]), "untraced_cycles": len(walls[False])}
            tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        else:
            metrics, notes = sess.end_to_end()
        return metrics, notes, sess.attempted, sess.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_one(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))

    values, notes, attempted, failures = measure(args)
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        print(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}

    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} "
          "checked operations failed)")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, environment=env, notes=notes, failures=failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], check=False)
        status = status or child.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    # before numpy is first imported, and inherited by `all`'s children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "semroute" / "__init__.py").is_file():
        print(f"semroute sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import semroute

    if Path(semroute.__file__).resolve().parent != (SRC / "semroute").resolve():
        print(f"imported semroute from {semroute.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
