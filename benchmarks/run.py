"""Gate benchmark for cherrymax: run the CLI gates as a user runs them.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every gate of the workload is a fresh
``python -m cherrymax.cli`` child with the repository's ``src`` on
``PYTHONPATH``.  Wall time, CPU time and peak RSS of each child come from
``os.wait4``, so Pool workers count towards CPU and RSS.  Passes over the
workload repeat while another pass still fits in ``--seconds``; the
end-to-end metrics are medians over passes.

With ``--trace 1`` the benchmark imports cherrymax and calls
``cli.main(argv)`` in process: an untraced pass and a traced pass (see
``spans.py``), alternating which goes first, repeated while another pair
fits in ``--seconds``.
Per-layer metrics come from the traced passes; ``trace.overhead_s`` is the
traced pass wall time minus the untraced one.

Every output is checked (see ``gates.py``).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name with its unit, and the
machine.  A full record of the run, and the spans of the last traced
pass, are written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

from gates import (
    GATE_METRICS,
    WORKLOADS,
    Gate,
    check_output,
    load_reference,
    stable_size,
    workload_gates,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PER_PASS = 2
GATE_TIMEOUT_S = 120.0
# Stop starting work this long after launch, so the run exits within 180 s.
RUN_DEADLINE_S = 160.0
SETUP_CODE = "import cherrymax.cli as cli; cli.build_parser()"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class GateRun:
    """Outcome of one gate invocation."""

    gate: str
    metric: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None
    out_bytes: int = 0  # stdout size without the digits of wall_time_s values
    out_rows: int = 0


def machine_info(seed: int) -> dict:
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CHERRYMAX_CONFIG", None)
    return env


def _kill_group(pid: int, timed_out: list) -> None:
    timed_out.append(True)
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], stdin: str | None, timeout: float):
    """Run argv to completion; returns (exit code or None on timeout,
    stdout bytes, stderr bytes, wall s, cpu s, peak RSS MB)."""
    streams: dict[str, bytes] = {}

    def pump(name, stream):
        streams[name] = stream.read()
        stream.close()

    timed_out: list = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    threads = [
        threading.Thread(target=pump, args=("out", proc.stdout)),
        threading.Thread(target=pump, args=("err", proc.stderr)),
    ]
    if stdin is not None:
        def feed():
            try:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass

        threads.append(threading.Thread(target=feed))
    for t in threads:
        t.start()
    timer = threading.Timer(timeout, _kill_group, (proc.pid, timed_out))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    for t in threads:
        t.join()
    code = None if timed_out else proc.returncode
    cpu = usage.ru_utime + usage.ru_stime
    return code, streams.get("out", b""), streams.get("err", b""), wall, cpu, usage.ru_maxrss / 1024


def _gate_error(code, out: bytes, err: bytes, gate: Gate, reference: dict) -> str | None:
    if code is None:
        return "timeout"
    if code != 0:
        return f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}"
    return check_output(gate, out, reference)


def run_gate_child(gate: Gate, reference: dict, timeout: float) -> GateRun:
    code, out, err, wall, cpu, rss = run_child(
        [sys.executable, "-m", "cherrymax.cli", *gate.argv], gate.stdin, timeout
    )
    error = _gate_error(code, out, err, gate, reference)
    return GateRun(gate.name, gate.metric, wall, cpu, rss, error, stable_size(out), out.count(b"\n"))


# ----------------------------------------------------------------------
# in-process gates (trace mode)


class GateTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise GateTimeout


def run_gate_in_process(cli, gate: Gate, reference: dict, timeout: float) -> GateRun:
    """Call cli.main(argv) with stdin, stdout and stderr redirected."""
    saved = sys.stdin, sys.stdout, sys.stderr
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(gate.stdin or ""), stdout, stderr
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        code = cli.main(list(gate.argv))
    except GateTimeout:
        code = None
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crashing gate is a failed gate
        code = f"crash: {exc!r}"
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin, sys.stdout, sys.stderr = saved
    out = stdout.getvalue().encode()
    error = _gate_error(code, out, stderr.getvalue().encode(), gate, reference)
    return GateRun(gate.name, gate.metric, wall, 0.0, 0.0, error, stable_size(out), out.count(b"\n"))


# ----------------------------------------------------------------------
# passes


class Budget:
    """Decides whether another pass fits and how long a gate may run."""

    def __init__(self, seconds: float):
        self.launched = time.perf_counter()
        self.seconds = seconds
        self.measure_start = None
        self.pass_times: list[float] = []

    def start_measuring(self) -> None:
        self.measure_start = time.perf_counter()

    def another_pass(self) -> bool:
        if not self.pass_times:
            return True
        elapsed = time.perf_counter() - self.measure_start
        return elapsed + median(self.pass_times) <= self.seconds and self.gate_timeout() > 0

    def gate_timeout(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.launched)
        return min(GATE_TIMEOUT_S, left)


def run_gates(runner, gates: list[Gate], budget: Budget) -> list[GateRun]:
    runs = []
    for gate in gates:
        timeout = budget.gate_timeout()
        if timeout <= 0:
            runs.append(GateRun(gate.name, gate.metric, 0.0, 0.0, 0.0, "run deadline reached"))
            continue
        runs.append(runner(gate, timeout))
    return runs


def gate_metrics(workload: str, passes: list[list[GateRun]]) -> dict:
    """Median over passes of each per-gate time of the workload."""
    return {
        metric: median(sum(r.wall_s for r in runs if r.metric == metric) for runs in passes)
        for metric in GATE_METRICS[workload]
    }


def run_setup_child(budget: Budget) -> GateRun:
    code, _, err, wall, _, _ = run_child([sys.executable, "-c", SETUP_CODE], None, budget.gate_timeout())
    error = None if code == 0 else f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}"
    return GateRun("setup", "setup_s", wall, 0.0, 0.0, error)


def measure_end_to_end(workload: str, gates: list[Gate], reference: dict, budget: Budget):
    # the first set-up child only warms the file cache and the bytecode
    warm_up = run_setup_child(budget)
    setup_runs, passes = [], []
    budget.start_measuring()
    while budget.another_pass():
        start = time.perf_counter()
        # set-up samples are spread over the run, like the gate samples
        setup_runs += [run_setup_child(budget) for _ in range(SETUP_PER_PASS)]
        passes.append(run_gates(lambda g, t: run_gate_child(g, reference, t), gates, budget))
        budget.pass_times.append(time.perf_counter() - start)
    metrics = {
        "wall_s": median(sum(r.wall_s for r in runs) for runs in passes),
        "cpu_s": median(sum(r.cpu_s for r in runs) for runs in passes),
        "peak_rss_mb": median(max(r.peak_rss_mb for r in runs) for runs in passes),
        "setup_s": median(r.wall_s for r in setup_runs),
    }
    units = dict(END_TO_END_UNITS)
    extra = gate_metrics(workload, passes)
    units.update({name: "s" for name in extra})
    return metrics, extra, units, [warm_up, *setup_runs, *(r for runs in passes for r in runs)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_layers(workload: str, gates: list[Gate], reference: dict, budget: Budget, spans_path: Path):
    sys.path.insert(0, str(SRC))
    os.environ.pop("CHERRYMAX_CONFIG", None)
    import cherrymax.cli as cli

    from spans import MODULES, Tracer

    def runner(gate, timeout):
        return run_gate_in_process(cli, gate, reference, timeout)

    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    budget.start_measuring()
    while budget.another_pass():
        start = time.perf_counter()
        # alternate which side runs first, so warm-up cost lands on both
        traced_first = len(budget.pass_times) % 2 == 1
        if not traced_first:
            untraced.append(run_gates(runner, gates, budget))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_gates(runner, gates, budget))
        finally:
            tracer.uninstall()
        if traced_first:
            untraced.append(run_gates(runner, gates, budget))
        summary = tracer.summary()
        summary["counts"]["cli.bytes_out"] = sum(r.out_bytes for r in traced[-1])
        summary["counts"]["cli.rows_out"] = sum(r.out_rows for r in traced[-1])
        summaries.append(summary)
        budget.pass_times.append(time.perf_counter() - start)
    tracer.save(spans_path)
    runs = [r for p in untraced + traced for r in p]

    counts = summaries[0]["counts"]
    exact = ("oracle.masks", "oracle.masks_kept", "shifting.moves", "density.rows",
             "appendix.nodes", "appendix.nodes_in_box", "appendix.deriv_nodes",
             "cli.bytes_out", "cli.rows_out")

    def exact_counts(summary):
        calls = {m: summary["modules"][m]["calls"] for m in MODULES}
        return calls, [summary["counts"].get(k, 0) for k in exact]

    # work counts must repeat exactly from pass to pass
    unstable = any(exact_counts(s) != exact_counts(summaries[0]) for s in summaries)
    runs.append(GateRun("trace-counts", "counts", 0.0, 0.0, 0.0,
                        "work counts changed between traced passes" if unstable else None))

    def med(fn):
        return median(fn(s) for s in summaries)

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    for module in MODULES:
        metrics[f"{module}.self_s"] = med(lambda s: s["modules"][module]["self_s"])
        metrics[f"{module}.calls"] = summaries[0]["modules"][module]["calls"]
        units[f"{module}.self_s"], units[f"{module}.calls"] = "s", "count"
    timed = ["oracle.full_s", "oracle.shifted_s", "appendix.interior_s"]
    timed += [f"appendix.A{i}_s" for i in range(1, 6)]
    for key in timed:
        metrics[key] = med(lambda s: s["counts"].get(key, 0.0))
        units[key] = "s"
    for key in exact:
        metrics[key] = int(counts.get(key, 0))
        units[key] = "count"
    derived = {
        "oracle.masks_per_s": (_ratio(metrics["oracle.masks"], metrics["oracle.self_s"]), "1/s"),
        "oracle.kept_ratio": (_ratio(metrics["oracle.masks_kept"], metrics["oracle.masks"]), "ratio"),
        "shifting.moves_per_s": (_ratio(metrics["shifting.moves"], metrics["shifting.self_s"]), "1/s"),
        "appendix.in_box_ratio": (_ratio(metrics["appendix.nodes_in_box"], metrics["appendix.nodes"]), "ratio"),
        "appendix.nodes_per_s": (_ratio(metrics["appendix.nodes"], metrics["appendix.self_s"]), "1/s"),
        "trace.overhead_s": (
            median(sum(r.wall_s for r in p) for p in traced)
            - median(sum(r.wall_s for r in p) for p in untraced),
            "s",
        ),
    }
    for key, (value, unit) in derived.items():
        metrics[key], units[key] = value, unit
    # per-gate times of the untraced in-process passes, for every workload
    gate_times = gate_metrics(workload, untraced)
    for name in (m for group in GATE_METRICS.values() for m in group):
        metrics[name], units[name] = gate_times.get(name, 0.0), "s"
    detail = {"functions": summaries[0]["functions"], "spans_per_pass": [s["spans"] for s in summaries]}
    return metrics, units, runs, detail


# ----------------------------------------------------------------------
# entry point


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    budget = Budget(args.seconds)
    if not (SRC / "cherrymax" / "cli.py").is_file():
        print(f"error: no cherrymax sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the output reference: {exc}", file=sys.stderr)
        return 2
    gates = workload_gates(args.workload, args.seed)
    machine = machine_info(args.seed)
    print("machine: " + json.dumps(machine))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        spans_path = OUT_DIR / f"{stem}-spans.npz"
        metrics, units, runs, detail = measure_layers(args.workload, gates, reference, budget, spans_path)
        shown = metrics
    else:
        metrics, extra, units, runs = measure_end_to_end(args.workload, gates, reference, budget)
        shown = {**metrics, **extra}
        detail = None

    failed = [r for r in runs if r.error]
    for r in failed:
        print(f"FAILED {r.gate}: {r.error}")
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(budget.pass_times)} attempted={len(runs)} failed={len(failed)} "
        f"fail_rate={len(failed) / max(len(runs), 1):.4f}"
    )
    for name, value in shown.items():
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<24} {text} {units[name]}")

    record = {
        "machine": machine,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
        "runs": [asdict(r) for r in runs],
        "detail": detail,
    }
    out_path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
