"""Each demo's stdout, byte for byte, against the copy kept in
tests/demo_outputs/. A change that alters a demo's report must update the
recorded copy on purpose."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_outputs").glob("*.out"))
    assert recorded == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_unchanged(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, cwd=ROOT, env=env, check=True
    )
    expected = (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.out").read_bytes()
    assert proc.stdout == expected
