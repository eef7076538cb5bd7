"""The quick demos run end to end against the current API.

Each script runs as ``__main__`` inside a temporary directory, so the files
it writes land there.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["fcm_convergence.py", "swarm_search.py", "full_comparison.py", "seed_study.py"]
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
