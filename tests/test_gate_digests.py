"""The deterministic oracle and density --converge gates, run in process,
print the bytes whose sha256 the gate benchmark recorded in
benchmarks/reference.json.  The reference file is only read here."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cherrymax import cli

_GATES_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "gates.py"
_spec = importlib.util.spec_from_file_location("benchmark_gates", _GATES_PATH)
gates = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def _guarded(gate):
    """The sweeps, maximize at --jobs 1 (the shifted query takes the
    default, 1) and density --converge: the --jobs 2 queries start worker
    processes, and the scan and appendix gates take seconds."""
    argv = " ".join(gate.argv)
    return (
        gate.kind == "sweep"
        or (argv.startswith("maximize") and "--jobs 2" not in argv)
        or argv.startswith("density --converge")
    )


GUARDED = [
    gate for workload in gates.WORKLOADS for gate in gates.workload_gates(workload, seed=0)
    if _guarded(gate)
]


def test_guard_covers_the_twelve_gates():
    assert len(GUARDED) == 12
    assert {gate.metric for gate in GUARDED} == {
        *gates.GATE_METRICS["sweep"], "maximize_s", "maximize_shifted_s", "density_s",
    }


@pytest.mark.parametrize("gate", GUARDED, ids=lambda gate: gate.name)
def test_gate_output_is_byte_identical(monkeypatch, capsys, gate):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    assert cli.main(list(gate.argv)) == 0
    out = capsys.readouterr().out.encode()
    assert gates.digest(gate.kind, out) == gates.load_reference()[gate.ref]
