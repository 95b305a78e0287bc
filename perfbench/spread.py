"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads fw_disk,closed_form]
                                [--trace 0] [--out perfbench/trajectory/NAME.json]

Run from the root of a checkout.  For every workload and seed it runs
``run.py`` once with BENCHMARK.json's ``run_seconds``, then reports per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound.  ``--out`` saves
the environment, every run and the summary as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace, "runs": [], "summary": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            *_, info_line, result_line = proc.stdout.strip().splitlines()
            info, result = json.loads(info_line), json.loads(result_line)
            record.setdefault("env", {k: info[k] for k in ("python", "numpy", "nproc", "cpu")})
            record["runs"].append({"workload": workload, "seed": seed, "info": info, "result": result})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if bounds.get(k) is not None), flush=True)
        summary = {name: summarise(vals) for name, vals in per_metric.items()}
        record["summary"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            if bound is None:
                continue
            flag = "ok" if s["spread"] <= bound / 3 else ("WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {name:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}  {flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
