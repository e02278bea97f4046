import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def library_tour() -> str:
    """The ```python block of the README's "Library tour" section."""
    section = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# each input is the argument list after the interpreter
INPUTS = [pytest.param([str(demo)], id=demo.name) for demo in DEMOS] + [
    pytest.param(["-c", library_tour()], id="README.md#library-tour"),
]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("argv", INPUTS)
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
