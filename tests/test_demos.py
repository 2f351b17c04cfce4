"""Each demo script runs to completion against the current package, and
leaves the benchmark directory of the checkout as it found it."""

import os
import subprocess
import sys

import pytest

from conftest import BENCHMARK, REPO

DEMOS = sorted((REPO / "demos").glob("0*.py"))


def _snapshot(root):
    """Each path under ``root`` with its modification time and size."""
    return sorted((str(p.relative_to(root)), p.stat().st_mtime_ns, p.stat().st_size) for p in root.rglob("*"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    before = _snapshot(BENCHMARK)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _snapshot(BENCHMARK) == before
