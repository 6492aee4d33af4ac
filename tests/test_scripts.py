"""Smoke tests for the command-line tools under ``scripts/``: each ``main()``
runs on small arguments and exits 0."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_moves_on_one_tree_moves_nothing(capsys):
    moves = load_script("verdict_moves")
    tree = str(SCRIPTS.parent)
    assert moves.main([tree, tree, "--seeds", "11", "--pairs", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(" reports, 0 moved") and not out[0].startswith("0 ")
    assert len(out) == 1


def test_ab_on_one_tree_agrees_and_restores_the_modules(capsys):
    import lsemix.orders

    ab = load_script("ab")
    tree = str(SCRIPTS.parent)
    assert ab.main([tree, tree, "--workload", "decide", "--seed", "1", "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("decide seed 1, ")
    assert " operations, 2 rounds: median operation " in out[0]
    assert out[1].startswith("change/parent per round: median ")
    assert re.fullmatch(r"change faster in [012] of 2 rounds", out[2])
    # Every dimension of the decide battery, n read from the labels.
    assert re.fullmatch(r"median change/parent by dimension: "
                        r"n1 [\d.]+ \(\d+ ops\)(, n\d+ [\d.]+ \(\d+ ops\))+", out[3]), out[3]
    dims = [int(n) for n in re.findall(r"n(\d+) ", out[3])]
    assert dims == sorted(set(dims))
    assert len(out) == 4
    assert sys.modules["lsemix.orders"] is lsemix.orders
    with pytest.raises(SystemExit):
        ab.main([tree, tree, "--rounds", "0"])  # no round to take a median of
