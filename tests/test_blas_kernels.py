"""Frank-Wolfe and rate-study outputs do not depend on the BLAS kernel that numpy loads.

numpy's bundled OpenBLAS picks its kernel when a process starts, and
OPENBLAS_CORETYPE forces one.  Some kernels fuse a 2-element dot's
multiply-add and round once, others round each product.  Frank-Wolfe and the
ball LMO sum on Python floats, so the same config must give the same bytes
under every kernel, and the translating disk's rate study, whose errors are
where Frank-Wolfe stopped, must pass its gate under each.  A rate study's
errors are correctly rounded norms and its slope is summed by math.fsum, so
its files must be the same under each kernel too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catchup

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
KERNELS = (None, "Prescott", "Sandybridge", "Haswell")  # None: the kernel OpenBLAS picks


def _catchup(kernel, *argv):
    env = {**os.environ, "PYTHONPATH": str(Path(catchup.__file__).resolve().parents[1])}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, "-m", "catchup.cli", *argv], env=env,
                          capture_output=True, timeout=300)


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per kernel: solve on disk_solve.cfg, project on ball_project.cfg, rate on disk_rate.cfg,
    and the rate files of disk_rate.cfg and of dragging_interval under auto."""
    dragging = tmp_path_factory.mktemp("configs") / "dragging_rate.cfg"
    dragging.write_text("problem = dragging_interval\nladder = 16,32,64,128,256\n")
    out = {}
    for kernel in KERNELS:
        base = tmp_path_factory.mktemp(kernel or "default")
        solve = _catchup(kernel, "solve", "--config", str(CONFIGS / "disk_solve.cfg"),
                         "--out", str(base / "solve"))
        project = _catchup(kernel, "project", "--config", str(CONFIGS / "ball_project.cfg"))
        rate = _catchup(kernel, "rate", "--config", str(CONFIGS / "disk_rate.cfg"),
                        "--out", str(base / "rate"))
        dragging_rate = _catchup(kernel, "rate", "--config", str(dragging),
                                 "--out", str(base / "dragging_rate"))
        assert dragging_rate.returncode == 0, dragging_rate.stderr.decode()
        rate_files = {"disk_rate": _files(base / "rate"),
                      "dragging_rate": _files(base / "dragging_rate")}
        out[kernel] = solve, _files(base / "solve"), project, rate, rate_files
    return out


class TestSameBitsOnEveryKernel:
    @pytest.mark.parametrize("kernel", KERNELS[1:])
    def test_solve_and_project_give_the_same_bytes(self, runs, kernel):
        solve, files, project, _, _ = runs[kernel]
        want_solve, want_files, want_project, _, _ = runs[None]
        assert (solve.returncode, project.returncode) == (0, 0), (solve.stderr, project.stderr)
        assert sorted(files) == ["audit.json", "trajectory.csv", "trajectory.json"]
        assert files == want_files
        assert (solve.stdout, solve.stderr) == (want_solve.stdout, want_solve.stderr)
        assert (project.stdout, project.stderr) == (want_project.stdout, want_project.stderr)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rate_passes_its_gate(self, runs, kernel):
        rate = runs[kernel][3]
        assert rate.returncode == 0, rate.stderr.decode()

    @pytest.mark.parametrize("kernel", KERNELS[1:])
    def test_rate_gives_the_same_bytes(self, runs, kernel):
        rate_files, want = runs[kernel][4], runs[None][4]
        assert sorted(rate_files["disk_rate"]) == ["rate.csv", "rate.json"]
        assert rate_files == want
