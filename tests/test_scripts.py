"""The README's example scripts run to completion and meet their headline checks."""

import re
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, monkeypatch, capsys) -> tuple[int, str]:
    """Run a script in-process as __main__ with no arguments; (exit code, stdout)."""
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    try:
        runpy.run_path(str(path), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    return code, capsys.readouterr().out


def test_bump_vs_identity_script(monkeypatch, capsys):
    code, out = _run_script("bump_vs_identity.py", monkeypatch, capsys)
    assert code == 0, out
    worst = re.search(r"worst gap at p >= 64: (\S+)", out)
    assert worst is not None, out
    assert float(worst.group(1)) <= 1e-6


def test_norm_convergence_script(monkeypatch, capsys):
    code, out = _run_script("norm_convergence.py", monkeypatch, capsys)
    assert code == 0, out
    assert out.startswith("exact norm 1/sqrt(p pi) = ")

