"""Every demo runs to the end and prints the output frozen across commits.

Each digest is the sha256 of a demo's stdout, cut to 16 hex digits.  A
change meant to keep every demo's output byte-identical keeps them all.  A
change that alters a demo's output on purpose writes the fixture anew and
says why:

    PYTHONPATH=src python tests/test_demos.py > tests/fixtures/demo_digests.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURE = Path(__file__).parent / "fixtures" / "demo_digests.json"


def run_demo(demo):
    """The demo's completed process, run from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert digest(proc.stdout) == json.loads(FIXTURE.read_text())[demo.name]


if __name__ == "__main__":
    json.dump({demo.name: digest(run_demo(demo).stdout) for demo in DEMOS},
              sys.stdout, indent=1, sort_keys=True)
    print()
