"""catchup benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fw_disk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in its own
single-threaded worker process, against the checkout's ``src/catchup``.
Set-up (importing catchup and building the seeded inputs) is timed in
several fresh processes and reported as their median.  Pass time is reported
in units of a reference loop timed around each part of a pass (see
worker.py), and every pass checks its outputs against analytic answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it records the environment and the run's details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 7  # fresh processes whose set-up times give setup_s
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ERROR_FLOOR = 1e-16  # errors below double-precision rounding read as this


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def _run_worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER)] + args
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _declared(section: str) -> list[dict]:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return spec[section]


def run(args) -> tuple[dict, dict]:
    if not (Path("src") / "catchup" / "__init__.py").is_file():
        raise BenchError("no src/catchup here: run from the root of a catchup checkout")
    if args.workload not in [w["name"] for w in _declared("workloads")]:
        raise BenchError(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + DEADLINE_S
    env = _worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_only() -> float:
        return _run_worker(common + ["--seconds", "0", "--setup-only"], env, deadline)["setup_s"]

    # set-up samples before and after the measured worker, so their median
    # spans the run rather than one moment of a drifting machine
    before = SETUP_RUNS // 2
    setups = [setup_only() for _ in range(before)]
    res = _run_worker(common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
                      env, deadline)
    setups += [res["setup_s"]] + [setup_only() for _ in range(SETUP_RUNS - 1 - before)]

    if args.trace:
        values = res["layers"]
        declared = _declared("per_layer")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(res["pass_ref"]),
            "projections_per_ref": statistics.median(res["projections"] / r for r in res["pass_ref"]),
            "accuracy_digits": -math.log10(max(res["worst_error"], ERROR_FLOOR)),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = _declared("end_to_end")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": res["python"], "numpy": res["numpy"], "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "passes": res["passes"], "wall_s": statistics.median(res["pass_s"]), "pass_s": res["pass_s"],
        "pass_ref": res.get("pass_ref"), "setup_samples_s": setups,
        "worst_error": res["worst_error"],
        "ops_failed_frac": res["failed"] / res["attempted"], "failures": res["failures"],
    }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        info, result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
