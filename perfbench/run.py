"""Benchmark of the vcdfuel reduction chain and its two reduced models.

Run from the repository root:

    python3 perfbench/run.py --workload builtin_pipeline --seed 1 --seconds 20 --trace 0

``--workload`` is one of builtin_pipeline, long_pipeline, batch_eval, or
``all`` (each workload in turn, each in its own process). ``--trace 0`` prints
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes a traced run
and prints the per-layer ones. ``--smoke`` shrinks every input for a quick
check of the harness. The package is imported from ``src/`` of this checkout;
without it the benchmark exits with a non-zero code and prints no result.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The full record
(every sample, check count, digest and the environment) is written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("builtin_pipeline", "long_pipeline", "batch_eval")


def pin_blas_threads() -> int:
    """Run BLAS on one thread, so that all load stays on this process's one
    thread (the bundled OpenBLAS would allow up to 64). The workloads' matrices
    are small (at most 19,008 x 11); with a second BLAS thread, the fit stages
    ran up to 4x slower whenever the other CPU was busy. Must run before numpy
    is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def import_package():
    """Import vcdfuel from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import vcdfuel
    except ImportError as exc:
        sys.exit(f"error: cannot import vcdfuel from {ROOT / 'src'}: {exc}")
    if not Path(vcdfuel.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: vcdfuel was imported from {vcdfuel.__file__}, not {ROOT / 'src'}")
    return vcdfuel


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, blas_threads: int, vcdfuel) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "vcdfuel": vcdfuel.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def metric_spec(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    blas_threads = pin_blas_threads()
    vcdfuel = import_package()
    sys.path.insert(0, str(BENCH))
    import workloads

    env = environment(args, blas_threads, vcdfuel)
    outcome = workloads.Outcome()
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.trace,
                                           workloads.SMOKE if args.smoke else workloads.FULL,
                                           outcome)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    outcome.metrics["peak_rss_mib"] = workloads.peak_rss_mib()

    spec = metric_spec(args.trace)
    if args.trace:  # a layer that no operation reached, or that is gone, reads 0
        for m in spec:
            outcome.metrics.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in spec if m["name"] not in outcome.metrics]
    if missing:
        sys.exit(f"error: workload {args.workload} did not measure {missing}")
    metrics = {m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
               for m in spec}
    error_rate = outcome.failed / max(outcome.attempted, 1)
    record = {"environment": env, "attempted": outcome.attempted, "failed": outcome.failed,
              "error_rate": error_rate, "checks": dict(outcome.checks),
              "failures": outcome.failures, "digests": outcome.digests,
              "metrics": metrics, "all_metrics": outcome.metrics, "samples": outcome.samples}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {env['git_sha'][:12]}  python {env['python']}  numpy {env['numpy']}  "
          f"{env['blas']} x{blas_threads}  nproc {env['nproc']}  {env['cpu_model']}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':48s} {error_rate:>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    print("checks run: " + ", ".join(f"{k} x{v}" for k, v in sorted(outcome.checks.items())))
    for name, digest in sorted(outcome.digests.items()):
        print(f"sha256 {name:12s} {digest}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in turn, each in a fresh process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = res.stdout.rstrip("\n").split("\n")
        if res.returncode != 0:
            print(res.stdout + res.stderr, file=sys.stderr)
            return res.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
