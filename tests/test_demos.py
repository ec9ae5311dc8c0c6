"""The demos run end to end: exit status and the lines that carry their claims."""

import importlib.util
import os
import subprocess
import sys

import tridom as td
from tridom.census import CensusRow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def _run(name):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(DEMOS, name)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)


def test_reproduce_census_demo():
    out = _run("reproduce_census.py")
    assert out.returncode == 0, out.stderr
    assert "  11     1249       82      995      172        0        0" in out.stdout
    assert "  n=8 gamma_c=1: got 4, reference 3   (known misprint)" in out.stdout
    assert "  n=8 gamma_c=2: got 10, reference 11   (known misprint)" in out.stdout
    assert "UNEXPECTED" not in out.stdout


def test_reproduce_census_demo_exits_1_on_another_differing_cell(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_census",
                                                  os.path.join(DEMOS, "reproduce_census.py"))
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    rows = [CensusRow(8, 14, {1: 4, 2: 10}, 0.0), CensusRow(9, 50, {1: 12, 2: 36, 3: 2}, 0.0),
            CensusRow(12, 7595, {1: 228, 2: 5189, 3: 2173, 4: 5}, 0.0)]
    monkeypatch.setattr(td, "classified", lambda *args, **kwargs: iter(()))
    monkeypatch.setattr(td, "census_rows", lambda stream: rows)
    monkeypatch.setattr(sys, "argv", ["reproduce_census.py"])
    assert demo.main() == 1
    out = capsys.readouterr().out
    assert "n=8 gamma_c=1: got 4, reference 3   (known misprint)" in out
    assert "n=9 gamma_c=2: got 36, reference 37   UNEXPECTED" in out
    assert "n=12 gamma_c=1: got 228, reference 226   (known misprint)" in out
    assert "n=12 gamma_c=2: got 5189, reference 5191   (known misprint)" in out
    rows[1] = CensusRow(9, 50, {1: 12, 2: 37, 3: 1}, 0.0)
    assert demo.main() == 0
    capsys.readouterr()
    rows[0] = CensusRow(8, 14, {1: 5, 2: 9}, 0.0)  # a misprinted cell with a new count
    assert demo.main() == 1
    out = capsys.readouterr().out
    assert "n=8 gamma_c=1: got 5, reference 3   UNEXPECTED" in out
    assert "n=8 gamma_c=2: got 9, reference 11   UNEXPECTED" in out


def test_extremal_families_demo():
    out = _run("extremal_families.py")
    assert out.returncode == 0, out.stderr
    assert "icosahedron: gamma=2, gamma_c=4" in out.stdout
    assert out.stdout.count("(law holds)") == 7
    assert out.stdout.count("final member: n=18 = 3*6, gamma_c=6") == 2
    assert "MISMATCH" not in out.stdout and "LAW BROKEN" not in out.stdout


def test_contraction_walkthrough_demo():
    out = _run("contraction_walkthrough.py")
    assert out.returncode == 0, out.stderr
    assert "  k=3: success!" in out.stdout
    assert "contraction solver: gamma_c = 4" in out.stdout
    assert "subset search:      gamma_c = 4" in out.stdout
    assert "witness re-verifies: dominating=True, connected=True" in out.stdout
