"""Smoke tests for the command-line tools under ``scripts/``: each ``main()``
runs on small arguments and exits 0."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_order_battery(capsys):
    battery = load_script("run_order_battery")
    assert battery.main(["--pairs", "10", "--max-dim", "2"]) == 0
    assert capsys.readouterr().out.startswith("10 random pairs, seed 7, n <= 2\n")


def test_verdict_moves_on_one_tree_moves_nothing(capsys):
    moves = load_script("verdict_moves")
    tree = str(SCRIPTS.parent)
    assert moves.main([tree, tree, "--seeds", "11", "--pairs", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(" reports, 0 moved") and not out[0].startswith("0 ")
    assert len(out) == 1
