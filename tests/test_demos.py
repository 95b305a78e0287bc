"""The three demos run in process and print their key lines."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_projection_oracles(capsys):
    lines = run_demo("projection_oracles", capsys)
    routes = [line.split(":")[0] for line in lines if "certified_eps =" in line]
    assert routes == ["closed form  ", "frank-wolfe  ", "cutting plane"]


def test_solve_catalog(capsys):
    from catchup.harness import CATALOG

    lines = run_demo("solve_catalog", capsys)
    rows = [line.split() for line in lines]
    verdicts = {words[0]: words[-1] for words in rows if words and words[0] in CATALOG}
    assert verdicts == {pid: "pass" for pid in CATALOG}


def test_rate_and_audit(capsys):
    lines = run_demo("rate_and_audit", capsys)
    assert lines[-1] == "overall: pass"
    assert any(line.startswith("fitted slope:") for line in lines)
