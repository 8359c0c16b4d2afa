"""Run the benchmark: generate one workload's data, run it, print its metrics.

    python3 perfbench/run.py --workload planted-full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the repository root. The planted dataset is generated here,
before any measured process starts, into ``.perfbench/data`` (reused when it
already exists for the seed). Each workload then runs in a fresh interpreter
(``worker.py``), one at a time, so its peak RSS is its own.

``--trace 0`` prints the end-to-end metrics of one untraced run; throughputs
and set-up time are medians of their samples in reference seconds (see
``reference_rates``). ``--trace 1`` makes a one-round untraced run and a
one-round traced run of the same seed, checks that both give the same loss
and MRR bit for bit, and prints the per-layer metrics plus the tracing
overhead. The last line of standard output
is one JSON object; a failed correctness gate sets ``correct`` to false and
the exit code to 1. Any other failure exits non-zero without that line.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported here or in a worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# a worker's peak RSS moved by ~25 MB with the interpreter's hash seed
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from planted import ensure_dataset  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0  # one workload's run must end within 180 s
# Calibration kernel time (worker.Calibration) that defines one reference
# second; near the kernels' medians on a shared 2-vCPU cloud VM
CALIBRATION_REF_S = 0.008

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_facts_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "mrr": "ratio",
    "final_train_loss": "nats",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_worker(workload: str, data: Path, seed: int, seconds: float, trace: int,
               rounds: int, calibrate: int, deadline: float) -> dict:
    tag = f"{workload}-s{seed}-{'traced' if trace else 'plain'}"
    out = OUT / "runs" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--data", str(data),
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--rounds", str(rounds), "--calibrate", str(calibrate), "--out", str(out)]
    if trace:
        cmd += ["--spans", str(OUT / "runs" / f"{tag}-spans.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left for {tag}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{tag} did not finish in time") from None
    if proc.returncode != 0 or not out.exists():
        raise RunFailed(f"{tag} exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def median_rate(samples) -> float:
    return statistics.median(w / s for w, s, _ in samples)


def reference_rates(samples) -> list[float]:
    """Rates of (work, seconds, calibration seconds) samples in work per
    reference second: each sample's wall time is scaled by CALIBRATION_REF_S
    over the time of the calibration kernel run just before it."""
    return [w / s * c / CALIBRATION_REF_S for w, s, c in samples]


def split_samples(res: dict) -> tuple[list, list, list]:
    rounds = res["rounds"]
    return (res["setup_samples"], [x for r in rounds for x in r["train_samples"]],
            [x for r in rounds for x in r["eval_samples"]])


def end_to_end(res: dict) -> dict:
    setup, train, evals = split_samples(res)
    values = {
        "setup_s": 1.0 / statistics.median(reference_rates(setup)),
        "train_facts_per_s": statistics.median(reference_rates(train)),
        "eval_queries_per_s": statistics.median(reference_rates(evals)),
        "mrr": res["rounds"][0]["mrr"],
        "final_train_loss": res["rounds"][0]["final_train_loss"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def all_medians(res: dict) -> dict:
    """Medians in wall-clock seconds, and the median calibration time."""
    setup, train, evals = split_samples(res)
    return {
        "setup_s": 1.0 / median_rate(setup),
        "train_facts_per_s": median_rate(train),
        "eval_queries_per_s": median_rate(evals),
        "calibration_s": statistics.median(c for _, _, c in setup + train + evals),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Measure one workload; returns correct/attempted/failed/metrics/errors."""
    workload = WORKLOADS[name]
    data = ensure_dataset(workload.dataset, seed, OUT / "data")
    if not trace:
        res = run_worker(name, data, seed, seconds, 0, 0, 1, deadline)
        errors = list(res["gate_errors"])
        metrics = end_to_end(res)
        info = dict(res, raw=all_medians(res))
    else:
        # neither calibrates, so their training windows compare like for like
        plain = run_worker(name, data, seed, seconds, 0, 1, 0, deadline)
        traced = run_worker(name, data, seed, seconds, 1, 1, 0, deadline)
        errors = plain["gate_errors"] + traced["gate_errors"]
        for key in ("final_train_loss", "mrr"):
            a, b = plain["rounds"][0][key], traced["rounds"][0][key]
            if a != b:
                errors.append(f"traced {key} {b!r} != untraced {a!r}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["per_layer"].items()}
        rate = lambda res: median_rate(split_samples(res)[1])  # noqa: E731
        overhead = rate(plain) / rate(traced) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        info = traced
    return {
        "correct": not errors,
        "attempted": info["attempted"],
        "failed": len(errors),
        "metrics": metrics,
        "errors": errors,
        "sizes": info["sizes"],
        "environment": info["environment"],
        "raw": info.get("raw"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="planted-model benchmark of ramkb")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ramkb" / "__init__.py").exists():
        print(f"perfbench: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    commit = git_commit()
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            results[name] = res
            print(f"# {name}: seed {args.seed}, commit {commit}, sizes {json.dumps(res['sizes'])}")
            print(f"# environment {json.dumps(res['environment'])}")
            if res["raw"]:
                print(f"# wall-clock medians {json.dumps(res['raw'])}")
            for metric, m in res["metrics"].items():
                print(f"{name}  {metric} = {m['value']!r} {m['unit']}")
            print(f"{name}  ops_attempted = {res['attempted']}  ops_failed = {res['failed']}")
            for err in res["errors"]:
                print(f"{name}  GATE FAILED: {err}")
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
