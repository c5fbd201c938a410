"""What importing the package sets up, checked in fresh child processes:
OpenBLAS runs one thread unless the caller already chose a count, the CLI
loads numpy and the numeric modules only in the commands that run them,
and the package loads its exports outside graph_core on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cherrymax
from cherrymax import constructions, graph_core, oracle, shifting

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
    # cherrymax.cli alone loads no numpy, so the oracle brings it in
    code = "import os, cherrymax.cli, cherrymax.oracle; print(len(os.listdir('/proc/self/task')))"
    assert run_child(code) == "1"


def test_cli_import_leaves_density_and_multiprocessing_unloaded():
    code = (
        "import sys, cherrymax.cli; "
        f"print(sorted({set(WATCHED) | {'multiprocessing'}!r} & set(sys.modules)))"
    )
    assert run_child(code) == "[]"


WATCHED = (
    "numpy",
    "cherrymax.appendix",
    "cherrymax.constructions",
    "cherrymax.density",
    "cherrymax.oracle",
    "cherrymax.shifting",
)
GRAPH = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["construct", "quasi-clique", "--n", "6", "--m", "7"], ["cherrymax.constructions"]),
        (["count", "--input", "GRAPH"], []),
        (
            ["density", "--converge", "family=g2", "rho=0.68", "alpha=0.2", "n=100"],
            ["cherrymax.constructions", "cherrymax.density"],
        ),
        (
            ["density", "--scan", "rho=0.68:0.70:0.01"],
            ["cherrymax.constructions", "cherrymax.density", "numpy"],
        ),
        (["verify-appendix", "--lemma", "A1", "--steps", "10"], ["cherrymax.appendix", "numpy"]),
        (
            ["maximize", "--family", "general", "--n", "5", "--m", "4", "--ell", "2", "--k", "1"],
            ["cherrymax.constructions", "cherrymax.oracle", "numpy"],
        ),
        (
            ["verify-theorem", "--theorem", "1.1", "--max-size", "4"],
            ["cherrymax.constructions", "cherrymax.oracle", "numpy"],
        ),
        (
            ["shift", "--input", "GRAPH", "--witness", "0", "--degree-floor", "1"],
            ["cherrymax.shifting", "numpy"],
        ),
    ],
    ids=["construct", "count", "converge", "scan", "appendix", "maximize", "theorem", "shift"],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(GRAPH))
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    code = (
        "import contextlib, io, sys, cherrymax.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, sorted({set(WATCHED)!r} & set(sys.modules)))"
    )
    assert run_child(code) == f"0 {sorted(loaded)}"


@pytest.mark.parametrize("name", cherrymax.__all__)
def test_exports_are_the_defining_modules_objects(name):
    modules = (graph_core, constructions, oracle, shifting)
    (owner,) = [m for m in modules if name in vars(m) and vars(m)[name].__module__ == m.__name__]
    assert getattr(cherrymax, name) is getattr(owner, name)


@pytest.mark.parametrize(
    "name", ["g2_family", "quasi_star", "max_cherries_general", "phi_bipartite", "left_compress_with_log"]
)
def test_export_loads_its_module_on_first_access(name):
    code = (
        "import sys, cherrymax\n"
        f"watched = {set(WATCHED)!r}\n"
        "before = sorted(watched & set(sys.modules))\n"
        f"export = cherrymax.{name}\n"
        "print(before, export.__module__ in sys.modules)"
    )
    assert run_child(code) == "[] True"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'oracle_table'"):
        cherrymax.oracle_table
    assert not hasattr(cherrymax, "numpy")
