"""End-to-end checks of the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cherrymax
from cherrymax import cli
from cherrymax.graph_core import from_json_obj, z1_index
from cherrymax.oracle import phi_bipartite
from cherrymax.shifting import is_shifted


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_count_triangle(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.json", {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]})
    code, out, err = run_cli(capsys, "count", "--input", path)
    assert code == 0 and err == ""
    assert json.loads(out) == {"edges": 3, "cherries": 3, "z1": 12}


def test_construct_count_round_trip(tmp_path, capsys):
    out_file = tmp_path / "qc.json"
    code, _, _ = run_cli(
        capsys, "construct", "quasi-clique", "--n", "6", "--m", "7", "-o", str(out_file)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "count", "--input", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == 7
    # C(4,2)=6 edges fill a clique, the seventh adds a pendant
    g = from_json_obj(json.loads(out_file.read_text()))
    assert payload["z1"] == z1_index(g)


def test_construct_csv_edges(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "ak-bipartite", "--r", "3", "--s", "2", "--m", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,w"
    assert len(lines) == 5


def test_construct_missing_flag(capsys):
    code, out, err = run_cli(capsys, "construct", "quasi-star", "--n", "6")
    assert code == 2
    assert "example" in err and "--m" in err


def test_shift_bipartite(tmp_path, capsys):
    # anti-diagonal placement: compression must move both edges left
    path = write_graph(tmp_path, "b.json", {"r": 2, "s": 2, "edges": [[0, 1], [1, 1]]})
    code, out, _ = run_cli(capsys, "shift", "--input", path, "--mode", "bipartite")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "bipartite"
    assert payload["z1_after"] >= payload["z1_before"]
    assert all(move["delta"] >= 0 for move in payload["moves"])
    assert is_shifted(from_json_obj(payload["graph"]))


def test_shift_mode_mismatch(tmp_path, capsys):
    path = write_graph(tmp_path, "b.json", {"r": 2, "s": 2, "edges": [[0, 0]]})
    code, _, err = run_cli(capsys, "shift", "--input", path, "--mode", "general")
    assert code == 2
    assert "does not match" in err


def test_shift_general_needs_witness(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", {"n": 4, "edges": [[0, 1], [2, 3]]})
    code, _, err = run_cli(capsys, "shift", "--input", path, "--mode", "general")
    assert code == 2
    assert "--witness" in err


def test_shift_general(tmp_path, capsys):
    path = write_graph(
        tmp_path, "g.json", {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
    )
    code, out, _ = run_cli(
        capsys, "shift", "--input", path, "--witness", "4", "--degree-floor", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "general"
    assert payload["z1_after"] == payload["z1_before"] + sum(
        move["delta"] for move in payload["moves"]
    )
    assert "omega" in payload and len(payload["vertex_order"]) == 5


def test_maximize_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "maximize", "--family", "bipartite-left",
        "--r", "3", "--s", "3", "--ell", "2", "--k", "2", "--m", "6",
    )
    assert code == 0
    payload = json.loads(out)
    want = phi_bipartite(3, 3, 2, 2, 6)
    assert payload == want.to_json()


def test_maximize_general_rejects_shifted_mode(capsys):
    code, _, err = run_cli(
        capsys, "maximize", "--family", "general", "--mode", "shifted",
        "--n", "5", "--m", "4", "--ell", "1", "--k", "1",
    )
    assert code == 2
    assert "shifted" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 65 cells do not fit a 64-bit mask, whatever --cap allows
        ("--r", "13", "--s", "5", "--ell", "1", "--k", "1", "--m", "3", "--cap", "65"),
        # a shifted-mode table of 13 x 13 x 73 cells is over 2^13
        ("--r", "12", "--s", "12", "--ell", "4", "--k", "3", "--m", "72",
         "--mode", "shifted", "--cap", "13"),
    ],
)
def test_maximize_refuses_search_over_cap(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cherrymax.cli", "maximize", "--family", "bipartite-left", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_theorem_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--theorem", "1.1", "--max-size", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["n", "m", "oracle_z1"]
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize(
    "theorem, size",
    [("1.1", "1"), ("1.1", "0"), ("1.6", "-3"), ("1.6", "0"), ("1.7", "0"), ("1.8", "0")],
)
def test_verify_theorem_refuses_sizes_that_check_nothing(capsys, theorem, size):
    code, out, err = run_cli(capsys, "verify-theorem", "--theorem", theorem, "--max-size", size)
    assert code == 2 and out == ""
    assert err.startswith("error: --max-size must be at least")


@pytest.mark.parametrize("theorem, size", [("1.1", "2"), ("1.6", "1"), ("1.7", "1"), ("1.8", "1")])
def test_verify_theorem_smallest_size_checks_rows(capsys, theorem, size):
    code, out, _ = run_cli(capsys, "verify-theorem", "--theorem", theorem, "--max-size", size)
    assert code == 0
    assert len(out.strip().splitlines()) > 1


def test_verify_theorem_mismatch_exits_one(monkeypatch, capsys):
    rows = [{"n": 4, "m": 2, "oracle_z1": 4, "predicted_z1": 6, "match": False}]
    monkeypatch.setattr(cli.oracle, "verify_theorem_11", lambda sizes, cap=None: rows)
    code, out, _ = run_cli(capsys, "verify-theorem", "--theorem", "1.1")
    assert code == 1
    assert "False" in out


def test_density_scan(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--scan", "rho=0.68:0.70:0.01", "alpha=0.2", "beta=0.2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("rho,alpha,beta")
    assert len(lines) == 4  # header plus inclusive endpoints


def test_density_scan_needs_rho(capsys):
    code, _, err = run_cli(capsys, "density", "--scan", "alpha=0.2")
    assert code == 2
    assert "rho" in err


def test_density_converge(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--converge", "family=quasi_star", "rho=0.5", "n=50,100",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [50, 100]
    assert rows[1]["error"] < rows[0]["error"]


def test_density_bad_key(capsys):
    code, _, err = run_cli(capsys, "density", "--converge", "family=g2", "rho=0.7", "gamma=1")
    assert code == 2
    assert "unknown key" in err


def test_verify_appendix_single(capsys):
    code, out, _ = run_cli(capsys, "verify-appendix", "--lemma", "A1", "--steps", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma"] == "A1" and payload["passed"]


def test_verify_appendix_interior(capsys):
    code, out, _ = run_cli(capsys, "verify-appendix", "--lemma", "interior")
    assert code == 0
    assert json.loads(out)["passed"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cherry.cfg"
    cfg.write_text("# defaults\nformat = csv\njobs = 1\n")
    path = write_graph(tmp_path, "k3.json", {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]})
    # config alone switches the count output to csv
    code, out, _ = run_cli(capsys, "count", "--input", path, "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "edges,cherries,z1"
    # an explicit flag beats the config value
    code, out, _ = run_cli(
        capsys, "count", "--input", path, "--config", str(cfg), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["z1"] == 12


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cherry.cfg"
    cfg.write_text("format = csv\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    path = write_graph(tmp_path, "k3.json", {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]})
    code, out, _ = run_cli(capsys, "count", "--input", path)
    assert code == 0
    assert out.splitlines()[0] == "edges,cherries,z1"


def test_config_unknown_key(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.json", {"n": 3, "edges": [[0, 1]]})
    # no command reads a seed, so seed is not a config key
    for line, key in (("workers = 4", "workers"), ("seed = 1", "seed")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "count", "--input", path, "--config", str(cfg))
        assert code == 2
        assert key in err and ":1:" in err


def test_invalid_construction_params(capsys):
    code, _, err = run_cli(capsys, "construct", "quasi-clique", "--n", "4", "--m", "99")
    assert code == 2
    assert err.startswith("error:")


def test_output_file_quiet_stdout(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--theorem", "1.1", "--max-size", "4",
        "-o", str(out_file),
    )
    assert code == 0 and out == ""
    assert out_file.read_text().startswith("n,m,")


def test_deterministic_output(capsys):
    args = (
        "maximize", "--family", "bipartite-left",
        "--r", "3", "--s", "2", "--ell", "2", "--k", "1", "--m", "4",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args, "--jobs", "2")
    assert first == second


@pytest.fixture
def cherrymax_script(tmp_path, monkeypatch):
    """Put a ``cherrymax`` console script, built from ``pyproject.toml``, first on PATH.

    The wrapper has the shape pip generates for the ``[project.scripts]``
    entry, so the declared ``module:function`` runs as it would after an
    install; a wrong entry fails just as an installed script would. The
    child's PYTHONPATH starts with the directory holding the ``cherrymax``
    package this process imported, so it runs the same code.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cherrymax"]
    module, _, attr = target.partition(":")
    script = tmp_path / "cherrymax"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    package_root = Path(cherrymax.__file__).resolve().parents[1]
    for var, first in (("PATH", tmp_path), ("PYTHONPATH", package_root)):
        monkeypatch.setenv(var, os.pathsep.join(filter(None, [str(first), os.environ.get(var)])))


@pytest.mark.usefixtures("cherrymax_script")
def test_installed_script_stdin():
    proc = subprocess.run(
        ["cherrymax", "count", "--input", "-"],
        input='{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}',
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"edges": 3, "cherries": 3, "z1": 12}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cherrymax.cli", "construct", "quasi-star",
         "--n", "5", "--m", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["n"] == 5 and len(payload["edges"]) == 4
