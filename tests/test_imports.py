import os
import subprocess
import sys
from pathlib import Path

import pytest

import navstack

ROOT = Path(__file__).resolve().parent.parent


def test_runtime_does_not_import_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports the
    CLI, the stack, training and the scenarios loads no scipy module."""
    src = str(Path(navstack.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, navstack.cli, navstack.stack, navstack.training, navstack.scenarios; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scipy_is_a_test_extra_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
