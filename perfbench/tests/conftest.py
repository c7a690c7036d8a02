"""Import endolift from this checkout's src/ and the harness modules from
perfbench/, the same way perfbench/run.py does."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def cli_reports_in_tmp(tmp_path, monkeypatch):
    """CLI cells write <command>.json; keep it out of the checkout."""
    monkeypatch.setenv("ENDOLIFT_OUT_DIR", str(tmp_path))
