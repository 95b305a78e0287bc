"""One measured workload process: set up, warm up, then time passes.

``run.py`` starts it with BLAS/OpenMP threads pinned to 1 and the checkout's
``src`` on ``PYTHONPATH``; it prints one JSON object as its last line.  Set-up
time runs from the first statement of this file to the end of input
building, so it covers importing numpy and catchup.

Each part of a timed pass is bracketed by a fixed reference loop that does
not touch catchup.  A shared machine's speed drifts by 10-20 % within
seconds; dividing each part's wall time by the reference time around it
cancels the drift that both see, so a pass's cost reads the same on a slow or
a fast minute.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report only its time")
    return p.parse_args(argv)


def reference_s() -> float:
    """Wall time of a fixed loop of 2-vector numpy calls plus one of Python arithmetic.

    The two halves bracket catchup's own mix of interpreter work and small
    numpy calls; on a drifting machine their sum tracked pass times better
    than either half alone.
    """
    import numpy as np

    v, w, acc = np.array([0.3, 0.4]), np.array([0.6, -0.8]), 0.0
    t0 = time.perf_counter()
    for i in range(8_000):
        v = v + 1e-9 * float(np.dot(v, w)) * w
        acc += float(np.linalg.norm(v)) + 0.5 * i
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - t0


class SegmentClock:
    """Times a pass part by part, each part bracketed by reference loops.

    ``wall`` sums the parts' wall times; ``relative`` sums each part's time
    divided by the mean of the reference times just before and after it.
    The machine's speed drifts within seconds, so a reference taken next to
    each half-second part follows it far better than one per pass.
    """

    def __init__(self):
        self._ref = reference_s()
        self.start()

    def start(self) -> None:
        self.wall = self.relative = 0.0
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        part = time.perf_counter() - self._t0
        ref = reference_s()
        self.wall += part
        self.relative += part / (0.5 * (self._ref + ref))
        self._ref = ref
        self._t0 = time.perf_counter()


def _timed_passes(run_pass, inputs, seconds: float, clock=None, before_pass=None, after_pass=None):
    """Run passes while another median-length pass still fits in `seconds`; at least one.

    Returns each pass's wall time, its time in reference units (only with a
    `clock`), and its outcome.
    """
    times, relative, outcomes = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        if before_pass is not None:
            before_pass()
        if clock is None:
            t0 = time.perf_counter()
            outcomes.append(run_pass(inputs))
            times.append(time.perf_counter() - t0)
        else:
            clock.start()
            outcomes.append(run_pass(inputs, clock.tick))
            clock.tick()
            times.append(clock.wall)
            relative.append(clock.relative)
        outcomes[-1].outputs.clear()  # kept, peak memory would grow with the pass count
        if after_pass is not None:
            after_pass()
    return times, relative, outcomes


def main(argv=None) -> int:
    args = _parse(argv)
    out_dir = Path.cwd() / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import numpy
        import catchup
        import workloads

        src = (Path.cwd() / "src" / "catchup").resolve()
        if Path(catchup.__file__).resolve().parent != src:
            sys.exit(f"catchup was imported from {catchup.__file__}, not from {src}")
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.make_inputs(args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        workload.run_pass(inputs)  # warm-up, untimed
        result = {"setup_s": setup_s}
        if args.trace:
            import tracing

            plain_s, _, outcomes = _timed_passes(workload.run_pass, inputs, args.seconds / 2)
            tracer = tracing.Tracer()
            per_pass = []
            tracer.install()
            try:
                traced_s, _, traced = _timed_passes(
                    workload.run_pass, inputs, args.seconds / 2,
                    before_pass=tracer.reset,
                    after_pass=lambda: per_pass.append(tracer.layer_metrics()))
            finally:
                tracer.uninstall()
            outcomes += traced
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
            layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
            layers["trace.wall_s"] = statistics.median(traced_s)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(plain_s)
            result["layers"] = layers
            result["pass_s"] = plain_s
        else:
            result["pass_s"], result["pass_ref"], outcomes = _timed_passes(
                workload.run_pass, inputs, args.seconds, clock=SegmentClock())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for o in outcomes for f in o.failures]
    result.update({
        "passes": len(outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "failures": failures[:10],
        "projections": outcomes[0].projections,
        "worst_error": max(o.worst_error for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
