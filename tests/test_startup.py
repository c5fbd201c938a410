"""What importing the package sets up, checked in fresh child processes:
OpenBLAS runs one thread unless the caller already chose a count, and the
CLI loads neither the density module nor multiprocessing until a command
runs that needs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cherrymax

PACKAGE_ROOT = Path(cherrymax.__file__).resolve().parents[1]


def run_child(code, **env):
    """Run code in a fresh interpreter that imports this checkout, with
    OPENBLAS_NUM_THREADS unset unless given; return its stripped stdout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = str(PACKAGE_ROOT)
    child_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_import_pins_openblas_unless_preset(preset, expected):
    code = "import os, cherrymax; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert run_child(code, **env) == expected


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
    reason="needs /proc/self/task and more than one CPU for OpenBLAS to start workers",
)
def test_cli_import_starts_no_blas_worker():
    code = "import os, cherrymax.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_child(code) == "1"


def test_cli_import_leaves_density_and_multiprocessing_unloaded():
    code = (
        "import sys, cherrymax.cli; "
        "print(sorted({'multiprocessing', 'cherrymax.density'} & set(sys.modules)))"
    )
    assert run_child(code) == "[]"
