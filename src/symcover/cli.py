"""Batch front end: build covers and circuits, verify them, report sizes,
export the bipartite-graph view.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error,
3 construction failure, 4 unsupported-modulus guard on export.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .zmod import UnsupportedModulusError, factorize, mod_inverse
from .cover2d import build_s2_cover, verify_s2_properties
from .coverkd import ConstructionError, build_sk_cover, verify_sk_properties
from .circuit import (
    BudgetExceededError,
    expand_coefficients,
    from_cover2d,
    from_coverkd,
    size,
)
from .astrong import check_astrong, target_coefficients
from . import serialize
from .serialize import SchemaError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_UNSUPPORTED_MODULUS = 4


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("expects at least one value")
    return values


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="symcover",
        description="build and verify weighted covers and depth-3 circuits "
        "for elementary symmetric polynomials modulo composites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a cover and its circuit")
    build.add_argument("--poly", choices=["s2", "sk"], required=True)
    build.add_argument("--n", type=int, required=True)
    build.add_argument("--m", type=int, required=True)
    build.add_argument("--k", type=int, default=3, help="tuple size for sk")
    build.add_argument("--b", type=int, default=None, help="hash alphabet size")
    build.add_argument("--strategy", choices=["greedy", "randomized"], default="greedy")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", required=True, help="cover JSON path")
    build.add_argument("--circuit-out", default=None, help="circuit JSON path")

    verify = sub.add_parser("verify", help="verify a cover artifact exhaustively")
    verify.add_argument("--in", dest="input", required=True)
    verify.add_argument("--expansion-budget", type=int, default=10_000_000)

    report = sub.add_parser("report", help="size table over a range of n")
    report.add_argument("--poly", choices=["s2"], required=True)
    report.add_argument("--n", type=_int_list, required=True, help="comma-separated list")
    report.add_argument("--m", type=int, required=True)
    report.add_argument("--csv", required=True)

    export = sub.add_parser("export-dot", help="bipartite graph cover export")
    export.add_argument("--in", dest="input", required=True)
    export.add_argument("--out-dir", required=True)
    export.add_argument("--format", dest="fmt", choices=["dot", "csv"], default="dot")

    return parser.parse_args(argv)


def _checks(k: int):
    """Property check and circuit converter: the s2 ones for k = 2."""
    if k == 2:
        return verify_s2_properties, from_cover2d
    return verify_sk_properties, from_coverkd


def cmd_build(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise ValueError(f"need n >= 2, got {args.n}")
    mod = factorize(args.m)
    if args.poly == "s2":
        cover = build_s2_cover(args.n, mod)
    else:
        if not 2 <= args.k <= args.n:
            raise ValueError(f"need 2 <= k <= n, got k={args.k}, n={args.n}")
        cover = build_sk_cover(
            args.n, args.k, mod, b=args.b, strategy=args.strategy, seed=args.seed
        )
    _, to_circuit = _checks(cover.k)
    circuit = to_circuit(cover)
    cover.meta.setdefault("seed", args.seed)

    serialize.dump(serialize.cover_to_dict(cover), args.out)
    written = [args.out]
    if args.circuit_out:
        serialize.dump(serialize.circuit_to_dict(circuit), args.circuit_out)
        written.append(args.circuit_out)

    s = size(circuit)
    print(f"wrote {', '.join(written)}")
    print(
        f"items={len(cover.items)} bbr_degree={cover.meta['bbr_degree']} "
        f"gate_total={s.gate_total} products={s.products} "
        f"graph_model_count={s.graph_model_count}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cover = serialize.cover_from_dict(serialize.load(args.input))
    verify, to_circuit = _checks(cover.k)
    report = verify(cover)
    circuit = to_circuit(cover)
    print(f"properties: {report.summary()}")
    for v in report.violations[:20]:
        print(f"  cell {v.cell}: {v.reason}")
    if len(report.violations) > 20:
        print(f"  ... and {len(report.violations) - 20} more")

    astrong_ok = True
    try:
        expansion = expand_coefficients(circuit, budget=args.expansion_budget)
        target = target_coefficients(cover.n, cover.k, ordered=True)
        a_report = check_astrong(expansion, target, cover.mod)
        astrong_ok = a_report.ok
        print(f"a-strong: {'pass' if a_report.ok else 'fail'} "
              f"({a_report.checked} monomials)")
        if not a_report.ok:
            sys.stdout.write(a_report.text())
    except BudgetExceededError as exc:
        print(f"a-strong: skipped ({exc}); cover-level check above is authoritative")

    return EXIT_OK if report.ok and astrong_ok else EXIT_VERIFY_FAIL


def cmd_report(args: argparse.Namespace) -> int:
    import csv as csv_mod

    mod = factorize(args.m)
    rows = []
    for n in args.n:
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        cover = build_s2_cover(n, mod)
        circuit = from_cover2d(cover)
        s = size(circuit)
        rows.append(
            {
                "n": n,
                "m": args.m,
                "h": cover.meta["h"],
                "bbr_degree": cover.meta["bbr_degree"],
                "distinct_rectangles": len(cover.items),
                "graph_model_count": s.graph_model_count,
                "baseline_graham_pollack": n - 1,
                "baseline_naive": math.comb(n, 2),
            }
        )
    fields = list(rows[0].keys())
    with open(args.csv, "w", newline="") as fh:
        writer = csv_mod.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.csv} ({len(rows)} rows)")
    print(
        "note: the size advantage over the n-1 and C(n,2) baselines is "
        "asymptotic; no inequality is claimed at these small n"
    )
    return EXIT_OK


def _dot_graph(name: str, rows: list[int], cols: list[int]) -> str:
    lines = [f"graph {name} {{"]
    for i in rows:
        lines.append(f'  l{i} [label="{i}" side=left];')
    for j in cols:
        lines.append(f'  r{j} [label="{j}" side=right];')
    for i in rows:
        for j in cols:
            lines.append(f"  l{i} -- r{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args: argparse.Namespace) -> int:
    cover = serialize.cover_from_dict(serialize.load(args.input))
    if cover.k != 2:
        raise ValueError(f"export expects a k = 2 cover artifact, got k = {cover.k}")
    m = cover.mod.m
    if m % 2 == 0:
        print(
            f"modulus {m} is even: the symmetrized edge counts double and "
            f"cannot be rescaled by an inverse of 2; export supports odd m only",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED_MODULUS
    inv2 = mod_inverse(2, m)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    edge_counts: dict[tuple[int, int], int] = {}
    csv_lines = ["graph_id,i,j"]
    graphs = 0
    for idx, (rect, w) in enumerate(cover.items):
        rep = (w * inv2) % m
        rows, cols = sorted(rect.rows), sorted(rect.cols)
        for copy in range(1, rep + 1):
            name = f"cover_{idx:04d}_{copy:02d}"
            if args.fmt == "dot":
                (out_dir / f"{name}.dot").write_text(_dot_graph(name, rows, cols))
            else:
                csv_lines += [f"{graphs},{i},{j}" for i in rows for j in cols]
            graphs += 1
        for i in rows:
            for j in cols:
                edge = (min(i, j), max(i, j))
                edge_counts[edge] = edge_counts.get(edge, 0) + rep

    if args.fmt == "csv":
        (out_dir / "edges.csv").write_text("\n".join(csv_lines) + "\n")

    manifest = {"n": cover.n, "m": m, "factors": [list(f) for f in cover.mod.factors],
                "graphs": graphs, "edges": []}
    for i in range(1, cover.n + 1):
        for j in range(i + 1, cover.n + 1):
            count = edge_counts.get((i, j), 0)
            unit = next(
                (fi for fi, q in enumerate(cover.mod.prime_powers) if count % q == 1),
                None,
            )
            manifest["edges"].append(
                {"edge": [i, j], "count": count, "factor_index": unit,
                 "prime_power": cover.mod.prime_powers[unit] if unit is not None else None}
            )
    serialize.dump(manifest, out_dir / "manifest.json")
    print(f"wrote {graphs} graphs and manifest to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {
        "build": cmd_build,
        "verify": cmd_verify,
        "report": cmd_report,
        "export-dot": cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (UnsupportedModulusError, ValueError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
