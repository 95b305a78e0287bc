"""The benchmark's own checks: tracing must not change the program.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

A traced pass must produce byte-identical outputs to an untraced pass on the
same seed; the exact-repeating counts must repeat across two traced passes;
and each workload must bypass the routes the benchmark's design says it does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("solver.step.calls", "oracles.fw.iterations", "oracles.lmo.calls",
                "oracles.cutting.iterations", "oracles.polyhedron_qp.calls")
NOT_RUN = {  # routes each workload must bypass
    "fw_disk": ("oracles.cutting.calls",),
    "closed_form": ("oracles.fw.calls", "oracles.cutting.calls"),
    "sublevel_cutting": ("oracles.fw.calls",),
}


def _pass(name: str, seed: int, workdir: Path, traced: bool):
    workdir.mkdir()
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed, workdir)
    if not traced:
        return wl.run_pass(inputs), None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = wl.run_pass(inputs)
    finally:
        tracer.uninstall()
    return outcome, tracer.layer_metrics()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path):
    plain, _ = _pass(name, 3, tmp_path / "plain", traced=False)
    first, m1 = _pass(name, 3, tmp_path / "first", traced=True)
    second, m2 = _pass(name, 3, tmp_path / "second", traced=True)

    assert plain.failed == 0, plain.failures
    assert first.outputs == plain.outputs
    assert second.outputs == plain.outputs
    for key in EXACT_COUNTS:
        assert m1[key] == m2[key], key
    for key in NOT_RUN[name]:
        assert m1[key] == 0, key
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(m1) - {"trace.wall_s", "trace.overhead_s"}
    assert not missing


def test_fw_iterations_move_with_the_seed(tmp_path):
    _, a = _pass("fw_disk", 3, tmp_path / "a", traced=True)
    _, b = _pass("fw_disk", 4, tmp_path / "b", traced=True)
    assert a["oracles.fw.iterations"] != b["oracles.fw.iterations"]


def test_uninstall_restores_every_binding():
    before = [dict(vars(m)) for m in tracing.MODULES]
    tracer = tracing.Tracer()
    tracer.install()
    assert any(vars(m)["approx_project"] is not b["approx_project"]
               for m, b in zip(tracing.MODULES, before) if "approx_project" in b)
    tracer.uninstall()
    for module, saved in zip(tracing.MODULES, before):
        assert all(vars(module)[k] is v for k, v in saved.items()), module.__name__
