"""Self-tests for the gate benchmark.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from math import comb

import pytest

import gates
import run
from spans import Tracer, self_times, wide_pairs

sys.path.insert(0, str(run.SRC))
import cherrymax.cli as cli  # noqa: E402


def _gate(workload: str, name: str, seed: int = 3) -> gates.Gate:
    return next(g for g in gates.workload_gates(workload, seed) if g.name == name)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and d [5, 9]; a holds b [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert list(self_times(parents, starts, ends)) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nesting_and_restores_functions():
    import cherrymax.oracle as oracle

    original = oracle.phi_bipartite
    tracer = Tracer()
    tracer.install()
    try:
        oracle.phi_bipartite(3, 3, 2, 2, 6)
    finally:
        tracer.uninstall()
    assert oracle.phi_bipartite is original
    names = [tracer.fn_names[i] for i in tracer.span_fn]
    assert names[0] == "oracle.phi_bipartite"
    assert tracer.span_parent[0] == -1
    # the prediction is built inside the search call
    assert "constructions.ak_bipartite" in names or "constructions.b1_family" in names
    assert all(p < i for i, p in enumerate(tracer.span_parent))
    summary = tracer.summary()
    total = tracer.span_end[0] - tracer.span_start[0]
    assert sum(m["self_s"] for m in summary["modules"].values()) == pytest.approx(total)
    assert summary["counts"]["oracle.masks"] == 2**9
    assert summary["counts"]["oracle.masks_kept"] == comb(9, 6)


def _traced_counts(gate_list, reference):
    tracer = Tracer()
    tracer.install()
    try:
        runs = [run.run_gate_in_process(cli, g, reference, 60.0) for g in gate_list]
    finally:
        tracer.uninstall()
    assert [r.error for r in runs] == [None] * len(runs)
    counts = tracer.summary()["counts"]
    counts["cli.bytes_out"] = sum(r.out_bytes for r in runs)
    return counts


def test_exact_counts_repeat_and_match_closed_forms():
    reference = gates.load_reference()
    gate_list = [
        _gate("query", "maximize_left_m6_jobs1"),
        _gate("query", "shift_general_40"),
        _gate("query", "shift_bipartite_60x60"),
        _gate("numeric", "appendix_150"),
    ]
    first = _traced_counts(gate_list, reference)
    second = _traced_counts(gate_list, reference)
    for key in ("oracle.masks", "oracle.masks_kept", "shifting.moves", "appendix.nodes", "cli.bytes_out"):
        assert first[key] == second[key], key
    assert first["oracle.masks"] == 2**24
    assert first["oracle.masks_kept"] == comb(24, 6) == 134_596
    # A1 is a (d, a) grid, A2..A5 are (d, a, x) grids, 151 nodes per axis
    assert first["appendix.nodes"] == 151**2 + 4 * 151**3
    assert first["shifting.moves"] > 0


def test_sweep_mask_count_matches_the_sweep_sizes():
    import cherrymax.oracle as oracle

    for max_cells in (4, 18, 20, 22):
        assert wide_pairs(max_cells) == list(oracle._wide_pairs(max_cells))


def test_tampered_reference_and_corrupted_output_fail(monkeypatch, capsys, tmp_path):
    gate = _gate("query", "maximize_left_m6_jobs1")
    corrupted = gates.Gate(gate.name, gate.metric, gate.argv[:-3] + ("7", "--jobs", "1"), gate.kind, gate.ref)
    tampered = dict(gates.load_reference(), **{gate.ref: "0" * 64})
    monkeypatch.setattr(run, "load_reference", lambda: tampered)
    monkeypatch.setattr(run, "workload_gates", lambda workload, seed: [gate, corrupted])
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    # one warm-up and two set-up children, then the two gates
    assert result["failed"] == 2 and result["attempted"] == 5
    assert any("fail_rate=0.4000" in line for line in lines)


def test_shift_checker_catches_tampering():
    gate = _gate("query", "shift_general_40")
    code, out, _, _, _, _ = run.run_child(
        [sys.executable, "-m", "cherrymax.cli", *gate.argv], gate.stdin, 60.0
    )
    assert code == 0
    assert gates.check_shift(gate, json.loads(out)) is None
    payload = json.loads(out)
    payload["moves"][0]["delta"] += 2
    assert "wrong delta" in gates.check_shift(gate, payload)
    floor = gate.argv.index("--degree-floor") + 1
    raised = replace(gate, argv=gate.argv[:floor] + (str(int(gate.argv[floor]) + 1),))
    assert "degree floor" in gates.check_shift(raised, json.loads(out))


def test_gate_timeout_is_a_failure():
    gate = _gate("sweep", "theorem_1.7")
    outcome = run.run_gate_child(gate, gates.load_reference(), 0.2)
    assert outcome.error == "timeout"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
