"""Command-line entry point wiring all modules together.

One executable with seven subcommands: construct, count, shift, maximize,
verify-theorem, density, verify-appendix.  All outputs are machine
readable (JSON objects or CSV rows); verification commands exit 0 only
when every checked row passes, 1 on a mismatch, and 2 on usage errors.

Global options may also come from a key=value config file, passed with
--config or the CHERRYMAX_CONFIG environment variable; explicit flags win
over the file.  Identical inputs produce byte-identical outputs except
for wall_time_s fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import density, oracle, shifting
from .constructions import (
    BipartiteFamilyParams,
    ConstructionError,
    ak_bipartite,
    b1_family,
    b2_family,
    g1_family,
    g2_family,
    quasi_clique,
    quasi_star,
)
from .graph_core import (
    BipartiteGraph,
    ConstraintWitness,
    Graph,
    SearchCapExceededError,
    UndefinedDensityError,
    bipartite_to_json,
    count_cherries,
    from_json_obj,
    graph_to_json,
    z1_index,
)

CONFIG_ENV = "CHERRYMAX_CONFIG"
_CONFIG_KEYS = {"jobs": int, "cap": int, "format": str}
_DEFAULTS = {"jobs": 1, "cap": oracle.DEFAULT_BIT_CAP}


class UsageError(Exception):
    """Bad flags or config; reported with an example invocation."""


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown config key {key!r}"
                    f" (allowed: {', '.join(sorted(_CONFIG_KEYS))})"
                )
            try:
                values[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve_options(args: argparse.Namespace, default_format: str) -> None:
    """Fill jobs/cap/format from config then defaults; flags win."""
    path = args.config or os.environ.get(CONFIG_ENV)
    config = _load_config(path) if path else {}
    for key, default in _DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, default))
    if args.format is None:
        args.format = config.get("format", default_format)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if args.cap < 1:
        raise UsageError("--cap must be positive")


def _emit(args: argparse.Namespace, payload) -> None:
    """Write a JSON object or CSV rows to --output or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = payload if isinstance(payload, list) else [payload]
        buffer_rows = []
        fieldnames = list(rows[0].keys()) if rows else []
        for row in rows:
            buffer_rows.append(
                {k: ("" if v is None else v) for k, v in row.items()}
            )
        sink = io.StringIO()
        writer = csv.DictWriter(sink, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(buffer_rows)
        text = sink.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str):
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    return from_json_obj(obj)


def _graph_payload(g) -> dict:
    return bipartite_to_json(g) if isinstance(g, BipartiteGraph) else graph_to_json(g)


def _edges_rows(g) -> list[dict]:
    if isinstance(g, BipartiteGraph):
        return [{"u": u, "w": w} for u, w in sorted(g.edges)]
    return [{"u": u, "v": v} for u, v in sorted(g.edges)]


def _require(args: argparse.Namespace, names: list[str], usage: str) -> list[int]:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise UsageError(f"missing --{name} (example: {usage})")
        values.append(value)
    return values


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_construct(args) -> int:
    family = args.family
    if family == "quasi-clique":
        n, m = _require(args, ["n", "m"], "cherrymax construct quasi-clique --n 6 --m 7")
        g = quasi_clique(n, m)
    elif family == "quasi-star":
        n, m = _require(args, ["n", "m"], "cherrymax construct quasi-star --n 6 --m 7")
        g = quasi_star(n, m)
    elif family == "ak-bipartite":
        r, s, m = _require(args, ["r", "s", "m"], "cherrymax construct ak-bipartite --r 4 --s 3 --m 5")
        g = ak_bipartite(r, s, m)
    elif family in ("b1", "b2"):
        r, s, m, ell, k = _require(
            args, ["r", "s", "m", "ell", "k"],
            f"cherrymax construct {family} --r 4 --s 3 --m 6 --ell 2 --k 2",
        )
        params = BipartiteFamilyParams(r, s, m, ell, k)
        g = b1_family(params) if family == "b1" else b2_family(params)
    elif family in ("g1", "g2"):
        n, m, ell, k = _require(
            args, ["n", "m", "ell", "k"],
            f"cherrymax construct {family} --n 8 --m 5 --ell 2 --k 2",
        )
        g = (g1_family if family == "g1" else g2_family)(n, m, ell, k)
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown family {family!r}")
    _emit(args, _graph_payload(g) if args.format == "json" else _edges_rows(g))
    return 0


def _cmd_count(args) -> int:
    g = _read_graph(args.input)
    payload = {
        "edges": g.num_edges,
        "cherries": count_cherries(g),
        "z1": z1_index(g),
    }
    _emit(args, payload)
    return 0


def _parse_witness(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--witness expects comma-separated integers: {exc}") from None


def _move_records(log) -> list[dict]:
    return [
        {"removed": list(move.removed), "added": list(move.added), "delta": delta}
        for move, delta in log
    ]


def _cmd_shift(args) -> int:
    g = _read_graph(args.input)
    is_bipartite = isinstance(g, BipartiteGraph)
    if args.mode and args.mode != ("bipartite" if is_bipartite else "general"):
        raise UsageError(
            f"--mode {args.mode} does not match the "
            f"{'bipartite' if is_bipartite else 'general'} input graph"
        )
    vertices = _parse_witness(args.witness)
    witness = ConstraintWitness(vertices, len(vertices), args.degree_floor)
    before = z1_index(g)
    if is_bipartite:
        shifted, log, row_order, col_order = shifting.left_compress_with_log(g, witness)
        payload = {
            "mode": "bipartite",
            "z1_before": before,
            "z1_after": z1_index(shifted),
            "row_order": row_order,
            "col_order": col_order,
            "moves": _move_records(log),
            "graph": bipartite_to_json(shifted),
        }
    else:
        if not vertices:
            raise UsageError(
                "general graphs need --witness (example: cherrymax shift"
                " --input g.json --witness 4,5 --degree-floor 2)"
            )
        shifted, log, order = shifting.shift_general_with_log(g, witness)
        analysis = shifting.analyze_omega(
            shifted, ConstraintWitness(tuple(range(len(vertices))), len(vertices), args.degree_floor)
        )
        payload = {
            "mode": "general",
            "z1_before": before,
            "z1_after": z1_index(shifted),
            "vertex_order": order,
            "omega": analysis.omega,
            "moves": _move_records(log),
            "graph": graph_to_json(shifted),
        }
    _emit(args, payload)
    return 0


def _cmd_maximize(args) -> int:
    if args.family in ("bipartite-left", "bipartite-right"):
        r, s, ell, k, m = _require(
            args, ["r", "s", "ell", "k", "m"],
            "cherrymax maximize --family bipartite-left --r 3 --s 3 --ell 2 --k 2 --m 6",
        )
        fn = oracle.phi_bipartite if args.family == "bipartite-left" else oracle.phi_bipartite_right
        report = fn(r, s, ell, k, m, mode=args.mode, jobs=args.jobs, cap=args.cap)
    else:
        n, m, ell, k = _require(
            args, ["n", "m", "ell", "k"],
            "cherrymax maximize --family general --n 6 --m 8 --ell 2 --k 2",
        )
        if args.mode != "full":
            raise UsageError("--mode shifted is only available for bipartite families")
        report = oracle.max_cherries_general(n, m, ell, k, jobs=args.jobs, cap=args.cap)
    _emit(args, report.to_json())
    return 0


def _cmd_verify_theorem(args) -> int:
    default, smallest = {"1.1": (7, 2), "1.6": (20, 1)}.get(args.theorem, (16, 1))
    size = default if args.max_size is None else args.max_size
    if size < smallest:
        # a smaller size yields no rows, and an empty sweep must not pass
        raise UsageError(
            f"--max-size must be at least {smallest} for theorem {args.theorem}, got {size}"
        )
    if args.theorem == "1.1":
        rows = oracle.verify_theorem_11(tuple(range(2, size + 1)), cap=args.cap)
    elif args.theorem == "1.6":
        rows = oracle.verify_theorem_16(size, cap=args.cap)
    elif args.theorem == "1.7":
        rows = oracle.verify_theorem_17(size, cap=args.cap)
    else:
        rows = oracle.verify_theorem_18(size, cap=args.cap)
    _emit(args, rows)
    return 0 if all(row["match"] for row in rows) else 1


def _parse_axis(text: str, name: str):
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 3:
            return (float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise UsageError(f"bad {name} axis {text!r}: {exc}") from None
    raise UsageError(f"axis {name} must be VALUE or LO:HI:STEP, got {text!r}")


def _kv_map(tokens: list[str], allowed: set[str], usage: str) -> dict:
    out = {}
    for token in tokens:
        if "=" not in token:
            raise UsageError(f"expected key=value, got {token!r} (example: {usage})")
        key, _, value = token.partition("=")
        if key not in allowed:
            raise UsageError(f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
        out[key] = value
    return out


def _cmd_density(args) -> int:
    if args.scan is not None:
        usage = "cherrymax density --scan rho=0.68:0.70:0.005 alpha=0.2 beta=0.2"
        kv = _kv_map(args.scan, {"rho", "alpha", "beta"}, usage)
        if "rho" not in kv:
            raise UsageError(f"--scan needs a rho axis (example: {usage})")
        axes = {
            name: _parse_axis(kv[name], name) if name in kv else 0.0
            for name in ("rho", "alpha", "beta")
        }
        rows = density.scan(axes["rho"], axes["alpha"], axes["beta"])
        _emit(args, rows)
        return 0
    usage = "cherrymax density --converge family=g2 rho=0.68 alpha=0.2 beta=0.2 n=100,500,2000"
    kv = _kv_map(args.converge, {"family", "rho", "alpha", "beta", "n"}, usage)
    for needed in ("family", "rho", "n"):
        if needed not in kv:
            raise UsageError(f"--converge needs {needed}= (example: {usage})")
    try:
        point = density.DensityPoint(
            float(kv["rho"]), float(kv.get("alpha", 0.0)), float(kv.get("beta", 0.0))
        )
        n_values = [int(tok) for tok in kv["n"].split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --converge value: {exc}") from None
    rows = density.convergence(kv["family"], point, n_values)
    _emit(args, rows)
    return 0


def _cmd_verify_appendix(args) -> int:
    # imported here so that the other commands neither parse nor hold it
    from . import appendix

    if args.lemma == "interior":
        rows = appendix.interior_bounds_check()
        _emit(args, {"rows": rows, "passed": all(r["ok"] for r in rows)})
        return 0 if all(r["ok"] for r in rows) else 1
    if args.lemma == "all":
        reports = appendix.check_all(args.steps)
        rows = appendix.interior_bounds_check()
        passed = all(r.passed for r in reports) and all(r["ok"] for r in rows)
        _emit(
            args,
            {
                "lemmas": [r.to_json() for r in reports],
                "interior_bounds": rows,
                "passed": passed,
            },
        )
        return 0 if passed else 1
    report = appendix.check_lemma(args.lemma, args.steps)
    _emit(args, report.to_json())
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", help="write output to this file instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--jobs", type=int, default=None, help="worker processes for searches")
    common.add_argument(
        "--cap", type=int, default=None,
        help="log2 of the largest search space (masks, or shifted-mode table cells)",
    )
    common.add_argument("--config", help=f"key=value config file (also {CONFIG_ENV})")

    parser = argparse.ArgumentParser(
        prog="cherrymax",
        description="Exact cherry-count extremal checks: constructions, shifting,"
        " brute-force maximization, and numeric inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="emit a named construction")
    p.add_argument(
        "family",
        choices=("quasi-clique", "quasi-star", "ak-bipartite", "b1", "b2", "g1", "g2"),
    )
    for flag in ("n", "m", "r", "s", "ell", "k"):
        p.add_argument(f"--{flag}", type=int)
    p.set_defaults(handler=_cmd_construct, default_format="json")

    p = sub.add_parser("count", parents=[common], help="count edges, cherries, z1")
    p.add_argument("--input", required=True, help="graph JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_count, default_format="json")

    p = sub.add_parser("shift", parents=[common], help="run the compression moves")
    p.add_argument("--input", required=True, help="graph JSON file, or - for stdin")
    p.add_argument("--mode", choices=("bipartite", "general"), help="checked against the input type")
    p.add_argument("--witness", help="comma-separated witness vertices (rows for bipartite)")
    p.add_argument("--degree-floor", type=int, default=0, help="required witness degree")
    p.set_defaults(handler=_cmd_shift, default_format="json")

    p = sub.add_parser("maximize", parents=[common], help="exact search over a family")
    p.add_argument(
        "--family",
        required=True,
        choices=("bipartite-left", "bipartite-right", "general"),
    )
    p.add_argument("--mode", choices=("full", "shifted"), default="full")
    for flag in ("n", "m", "r", "s", "ell", "k"):
        p.add_argument(f"--{flag}", type=int)
    p.set_defaults(handler=_cmd_maximize, default_format="json")

    p = sub.add_parser("verify-theorem", parents=[common], help="sweep a bound against brute force")
    p.add_argument("--theorem", required=True, choices=("1.1", "1.6", "1.7", "1.8"))
    p.add_argument(
        "--max-size",
        type=int,
        help="largest n (theorem 1.1, at least 2) or largest r*s (bipartite theorems, at least 1)",
    )
    p.set_defaults(handler=_cmd_verify_theorem, default_format="csv")

    p = sub.add_parser("density", parents=[common], help="density formulas and convergence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scan", nargs="+", metavar="KEY=AXIS")
    group.add_argument("--converge", nargs="+", metavar="KEY=VALUE")
    p.set_defaults(handler=_cmd_density, default_format="csv")

    p = sub.add_parser("verify-appendix", parents=[common], help="grid-check the inequalities")
    p.add_argument(
        "--lemma",
        default="all",
        choices=("A1", "A2", "A3", "A4", "A5", "interior", "all"),
    )
    p.add_argument("--steps", type=int, default=50, help="grid steps per axis")
    p.set_defaults(handler=_cmd_verify_appendix, default_format="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_options(args, args.default_format)
        return args.handler(args)
    except (
        UsageError,
        ConstructionError,
        SearchCapExceededError,
        UndefinedDensityError,
        density.DomainError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
