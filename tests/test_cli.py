"""End-to-end checks of the command line surface."""

import io
import json
import os
import random
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


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [5]}',
        '{"n": 3, "edges": [[0, null]]}',
        '{"n": null, "edges": [[0, 1]]}',
        '{"n": 3.7, "edges": [[0, 1.9]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"r": 2, "s": true, "edges": []}',
        '{"r": 2, "s": 2, "edges": [[0, "1"]]}',
        "5",
    ],
)
def test_count_refuses_malformed_graph_json(monkeypatch, capsys, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "count", "--input", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_construct_g2_with_remainder_spill(capsys):
    # m = 13 = 3*2 + C(3, 2) + 4: the 4 remainder edges reach into the witness
    code, out, _ = run_cli(
        capsys, "construct", "g2", "--n", "9", "--m", "13", "--ell", "2", "--k", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,v"
    assert len(lines) == 1 + 13
    assert "3,5" in lines


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


@pytest.mark.parametrize("mode", ["general", "bipartite"])
def test_shift_prints_plain_json(tmp_path, capsys, mode):
    """Every logged label, delta and order entry is a JSON integer, on an
    input that takes many moves."""
    rng = random.Random(12)
    if mode == "general":
        pairs = [[u, v] for u in range(12) for v in range(max(u + 1, 2), 12)]
        graph = {"n": 12, "edges": [e for e in pairs if rng.random() < 0.5]}
        argv = ("--witness", "0,1", "--degree-floor", "0")
    else:
        cells = [[i, j] for i in range(8) for j in range(8)]
        graph = {"r": 8, "s": 8, "edges": [e for e in cells if rng.random() < 0.5]}
        argv = ()
    path = write_graph(tmp_path, "g.json", graph)
    code, out, _ = run_cli(capsys, "shift", "--input", path, "--mode", mode, *argv)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["moves"]) >= 5
    orders = [v for key in ("vertex_order", "row_order", "col_order") for v in payload.get(key, [])]
    numbers = [x for move in payload["moves"]
               for x in (*move["removed"], *move["added"], move["delta"])]
    assert orders and all(type(x) is int for x in orders + numbers)


@pytest.mark.parametrize(
    "shape, argv", [({"n": 5000}, ("--witness", "2")), ({"r": 5000, "s": 4000}, ())]
)
def test_shift_refuses_oversized_inputs(tmp_path, capsys, shape, argv):
    """More than 2^cap matrix cells (n * n, or r * s) exit 2 before any
    matrix is built; 32 x 32 cells are 2^10."""
    path = write_graph(tmp_path, "big.json", {**shape, "edges": []})
    code, out, err = run_cli(capsys, "shift", "--input", path, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2^24" in err and "Traceback" not in err
    small = {key: 32 for key in shape}
    path = write_graph(tmp_path, "small.json", {**small, "edges": []})
    code, out, err = run_cli(capsys, "shift", "--input", path, *argv, "--cap", "9")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, _ = run_cli(capsys, "shift", "--input", path, *argv, "--cap", "10")
    assert code == 0 and json.loads(out)["moves"] == []


def test_construct_large_quasi_star(capsys):
    """Five edges on 2000 vertices, built without touching the C(n, 2) pairs."""
    code, out, _ = run_cli(capsys, "construct", "quasi-star", "--n", "2000", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2000 and len(payload["edges"]) == 5


@pytest.mark.parametrize("m, code", [("8", 0), ("9", 2)])
def test_construct_honours_cap(monkeypatch, capsys, m, code):
    """m is the edge count, so more than 2^cap edges exit 2 before any
    construction runs; 2^3 = 8 edges are still built."""
    if code:
        monkeypatch.setattr(cherrymax.constructions, "quasi_clique", None)
    got, out, err = run_cli(capsys, "construct", "quasi-clique", "--n", "6", "--m", m, "--cap", "3")
    assert got == code
    if code:
        assert out == "" and err == "error: construct of 9 edges exceeds the cap of 2^3\n"
    else:
        assert err == "" and len(json.loads(out)["edges"]) == 8


def test_maximize_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "maximize", "--family", "bipartite-left",
        "--r", "3", "--s", "3", "--ell", "2", "--k", "2", "--m", "6",
    )
    assert code == 0
    payload = json.loads(out)
    want = phi_bipartite(3, 3, 2, 2, 6)
    assert payload == want.to_json()


def test_maximize_general_predicts_g2_with_remainder_spill(capsys):
    code, out, _ = run_cli(
        capsys, "maximize", "--family", "general",
        "--n", "5", "--m", "8", "--ell", "2", "--k", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_branch"] == "G2"
    assert payload["predicted_z1"] == payload["optimum_z1"] == 54
    assert payload["match"] is True


@pytest.mark.parametrize(
    "flags, name",
    [
        (("--n", "-1"), "n"),
        (("--m", "-2"), "m"),
        (("--ell", "-1", "--k", "1"), "ell"),
        (("--ell", "0", "--k", "-4"), "k"),
    ],
)
def test_maximize_general_refuses_negative_parameters(capsys, flags, name):
    code, out, err = run_cli(
        capsys, "maximize", "--family", "general", "--n", "5", "--m", "4", "--ell", "1", "--k", "1", *flags,
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name}=-") and "nonnegative" in err


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
    monkeypatch.setattr(cherrymax.oracle, "verify_theorem_11", lambda sizes, cap=None: rows)
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


@pytest.mark.parametrize(
    "rho, reason",
    [("rho=0.8:0.6:0.1", "grid has no points"), ("rho=0.6:0.8:inf", "positive finite number")],
)
def test_density_scan_refuses_empty_grid(capsys, rho, reason):
    code, out, err = run_cli(capsys, "density", "--scan", rho, "alpha=0.2", "beta=0.2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err


def test_density_scan_nan_step_reads_like_negative_step(capsys):
    reasons = set()
    for step in ("nan", "-0.1"):
        code, out, err = run_cli(capsys, "density", "--scan", f"rho=0.6:0.8:{step}")
        assert code == 2 and out == ""
        reasons.add(err.partition(", got")[0])
    assert reasons == {"error: rho axis step must be a positive finite number"}


@pytest.mark.parametrize("cap, code", [("16", 2), ("17", 0)])
def test_density_scan_honours_cap(capsys, cap, code):
    # the numeric benchmark's grid: 41 * 51 * 51 = 106,641 points, between 2^16 and 2^17
    argv = ["density", "--scan", "rho=0.6:0.8:0.005", "alpha=0:0.5:0.01", "beta=0:0.5:0.01"]
    got, out, err = run_cli(capsys, *argv, "--cap", cap)
    assert got == code
    if code:
        assert out == "" and "106641 points exceeds the cap of 2^16" in err
    else:
        assert err == "" and out.count("\n") == 1 + 106641


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


@pytest.mark.parametrize(
    "argv, code",
    [
        # 257^3 nodes are over the default cap of 2^24
        (("--steps", "256"), 2),
        # 151^3 = 3,442,951 nodes lie between 2^21 and 2^22
        (("--lemma", "A1", "--steps", "150", "--cap", "21"), 2),
        (("--lemma", "A1", "--steps", "150", "--cap", "22"), 0),
    ],
)
def test_verify_appendix_honours_cap(capsys, argv, code):
    got, out, err = run_cli(capsys, "verify-appendix", *argv)
    assert got == code
    if code:
        assert out == "" and err.startswith("error: appendix grid of") and "exceeds the cap" in err
    else:
        assert err == "" and json.loads(out)["passed"]


# Spawned from a small helper interpreter, because a child's ru_maxrss
# includes the RSS of the process that forked it.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*argv):
    package_root = Path(cherrymax.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "cherrymax.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, kilobytes = map(int, proc.stdout.split())
    assert code == 0
    return kilobytes / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_verify_appendix_memory_does_not_grow_with_steps():
    argv = ("verify-appendix", "--lemma", "A5", "--cap", "30", "-o", os.devnull)
    small = peak_rss_mb(*argv, "--steps", "50")
    large = peak_rss_mb(*argv, "--steps", "400")
    assert large <= small + 10, (small, large)


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


def test_config_format_checked(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.json", {"n": 3, "edges": [[0, 1]]})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("format = xml\n")
    code, out, err = run_cli(capsys, "count", "--input", path, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "format" in err and ":1:" in err


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
