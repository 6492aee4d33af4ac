"""The README's Quick start block runs as written against the current API,
its report paragraph names the current skip reasons, and its Scripts
section names every script under ``scripts/``."""

from __future__ import annotations

import re
from pathlib import Path

from lsemix.orders import SkipReason

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), f"{README}:Quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Verdict.ORDERED"
    assert lines[-1].startswith("True ")


def test_skip_reasons_named_exactly():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"`Clause\.skip` says why[^.]*\.", text).group(0)
    assert re.findall(r"`([A-Z]+)`", sentence) == [reason.name for reason in SkipReason]


def test_scripts_section_names_every_script():
    section = README.read_text().split("## Scripts", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`scripts/(\w+\.py)`", section))
    assert named == {path.name for path in (README.parent / "scripts").glob("*.py")}
