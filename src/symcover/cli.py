"""Batch front end: build covers and circuits, verify them, report sizes,
export the bipartite-graph view.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error or
out of memory, 3 construction failure, 4 unsupported-modulus guard on export.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import sys
from pathlib import Path

from .zmod import Modulus, astrong_coeff_status, factorize, mod_inverse
from .cover2d import WeightedRectCover, build_s2_cover, multiplicity_table, verify_s2_properties
from .coverkd import ConstructionError, build_sk_cover, members, verify_sk_properties
from .circuit import (
    BudgetExceededError,
    cover_coefficients,
    from_cover2d,
    from_coverkd,
    require_budget,
    size,
)
from .astrong import check_astrong, target_coefficients
from . import serialize

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_UNSUPPORTED_MODULUS = 4

WITNESS_LINES = 20  # failing cells or monomials printed by verify


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
    build.add_argument("--k", type=int, default=None, help="tuple size for sk (default 3)")
    build.add_argument("--seed", type=int, default=None, help="hash search seed for sk (default 0)")
    build.add_argument("--out", required=True, help="cover JSON path")
    build.add_argument("--circuit-out", default=None, help="circuit JSON path")
    build.set_defaults(run=cmd_build)

    verify = sub.add_parser("verify", help="verify a cover artifact exhaustively")
    verify.add_argument("--in", dest="input", required=True, help="the cover artifact to check")
    verify.add_argument("--expansion-budget", type=int, default=10_000_000, help=(
        "skip the a-strong step when the cover circuit's expansion would have more terms than "
        "this, the sum over items of the product of their part sizes (default 10,000,000)"))
    verify.set_defaults(run=cmd_verify)

    report = sub.add_parser("report", help="size table over a range of n")
    report.add_argument("--poly", choices=["s2"], required=True)
    report.add_argument("--n", type=_int_list, required=True, help="comma-separated list")
    report.add_argument("--m", type=int, required=True)
    report.add_argument("--csv", required=True)
    report.set_defaults(run=cmd_report)

    export = sub.add_parser("export-dot", help="bipartite graph cover export")
    export.add_argument("--in", dest="input", required=True)
    export.add_argument("--out-dir", required=True)
    export.add_argument("--format", dest="fmt", choices=["dot", "csv"], default="dot")
    export.set_defaults(run=cmd_export_dot)

    return parser.parse_args(argv)


def cmd_build(args: argparse.Namespace) -> int:
    if args.circuit_out and Path(args.circuit_out).resolve() == Path(args.out).resolve():
        raise ValueError(f"--circuit-out names the --out file {args.out}")
    mod = factorize(args.m)
    if args.poly == "s2":
        if args.k is not None or args.seed is not None:
            raise ValueError("--k and --seed apply to --poly sk only")
        cover = build_s2_cover(args.n, mod)
    else:
        k = 3 if args.k is None else args.k
        cover = build_sk_cover(args.n, k, mod, seed=args.seed or 0)
    circuit = (from_cover2d if cover.k == 2 else from_coverkd)(cover)
    s = size(circuit)
    written = []  # whole files; a failed dump removes its own partial one
    try:
        if args.circuit_out:
            serialize.dump(serialize.circuit_to_dict(circuit), args.circuit_out)
            written.append(args.circuit_out)
        del circuit  # freed before the cover's text is written

        serialize.dump(serialize.cover_to_dict(cover), args.out)
        written.append(args.out)
        print(f"wrote {', '.join(reversed(written))}")
        print(
            f"items={len(cover.items)} bbr_degree={cover.meta['bbr_degree']} "
            f"gate_total={s.gate_total} products={s.products} "
            f"graph_model_count={s.graph_model_count}"
        )
    except BaseException:  # a build that fails leaves none of its files
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    return EXIT_OK


def _print_capped(witnesses: list, mod: Modulus) -> None:
    """The first WITNESS_LINES witnesses, one per line, then a count of the rest."""
    for w in witnesses[:WITNESS_LINES]:
        print(f"  {w.line(mod)}")
    if len(witnesses) > WITNESS_LINES:
        print(f"  ... and {len(witnesses) - WITNESS_LINES} more")


def cmd_verify(args: argparse.Namespace) -> int:
    import hashlib  # OpenSSL-backed, so loaded only by the command that hashes

    if args.expansion_budget < 0:
        raise ValueError(f"--expansion-budget must be non-negative, got {args.expansion_budget}")
    digest = hashlib.sha256()
    cover = serialize.cover_from_dict(serialize.load(args.input, digest))
    print(f"artifact: sha256 {digest.hexdigest()}")
    verify = verify_s2_properties if cover.k == 2 else verify_sk_properties
    try:
        report = verify(cover)
    except MemoryError:
        raise ValueError(
            f"not enough memory for the check's n**k = {cover.n}**{cover.k} counts"
        ) from None
    print(f"properties: {report.summary()}")
    _print_capped(report.violations, cover.mod)

    astrong_ok = True
    try:
        # the budget bounds the circuit's terms; its expansion is the judged count table
        parts = (map(int.bit_count, box.parts) for box, _ in cover.items)
        require_budget(parts, len(cover.items), args.expansion_budget)
        expansion = cover_coefficients(cover, report.counts)
        target = target_coefficients(cover.n, cover.k, ordered=True)
        a_report = check_astrong(expansion, target, cover.mod)
        astrong_ok = a_report.ok
        print(f"a-strong: {a_report.summary()}")
        _print_capped(a_report.violations, cover.mod)
    except BudgetExceededError as exc:
        print(f"a-strong: skipped ({exc}); cover-level check above is authoritative")

    return EXIT_OK if report.ok and astrong_ok else EXIT_VERIFY_FAIL


def cmd_report(args: argparse.Namespace) -> int:
    import csv as csv_mod

    mod = factorize(args.m)
    rows = []
    for n in args.n:
        cover = build_s2_cover(n, mod)
        rows.append(
            {
                "n": n,
                "m": args.m,
                "h": cover.meta["h"],
                "bbr_degree": cover.meta["bbr_degree"],
                "distinct_rectangles": len(cover.items),
                "graph_model_count": sum(w for _, w in cover.items),
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
    reps = [(rect, w * inv2 % m) for rect, w in cover.items]
    # an edge {i, j} is covered by the graphs holding cell (i, j) or (j, i);
    # the edges are counted before the out-dir is made, so a failure writes nothing
    try:
        counts = multiplicity_table(WeightedRectCover(cover.n, None, reps))
        manifest = {"n": cover.n, "m": m, "factors": [list(f) for f in cover.mod.factors],
                    "graphs": sum(rep for _, rep in reps), "edges": []}
        for i in range(cover.n):
            for j in range(i + 1, cover.n):
                count = counts[i][j] + counts[j][i]
                ok, unit = astrong_coeff_status(1, count, cover.mod)
                unit = unit if ok else None
                manifest["edges"].append(
                    {"edge": [i + 1, j + 1], "count": count, "factor_index": unit,
                     "prime_power": cover.mod.prime_powers[unit] if unit is not None else None}
                )
    except MemoryError:
        raise ValueError(
            f"not enough memory for the n x n = {cover.n} x {cover.n} edge counts"
        ) from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    graphs = 0
    # csv lines go out as each graph is made, so they are never all held
    csv_path = out_dir / "edges.csv"
    with open(csv_path, "w") if args.fmt == "csv" else contextlib.nullcontext() as csv_out:
        if csv_out:
            csv_out.write("graph_id,i,j\n")
        for idx, (rect, rep) in enumerate(reps):
            rows, cols = members(rect.parts[0]), members(rect.parts[1])
            if csv_out:
                # the edges are formatted once; each copy puts its graph id before every line
                edges = [f",{i},{j}\n" for i in rows for j in cols]
                for graph in range(graphs, graphs + rep):
                    prefix = str(graph)
                    csv_out.write(prefix + prefix.join(edges))
            else:
                for copy in range(1, rep + 1):
                    name = f"cover_{idx:04d}_{copy:02d}"
                    (out_dir / f"{name}.dot").write_text(_dot_graph(name, rows, cols))
            graphs += rep

    serialize.dump(manifest, out_dir / "manifest.json")
    print(f"wrote {graphs} graphs and manifest to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic collector paused, argument parsing
    included: a command's data holds no reference cycles, so a collection
    would only walk it, again and again as it grows.  The caller's
    collector state is restored on every exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE

        try:
            return args.run(args)
        except ConstructionError as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return EXIT_CONSTRUCTION
        except ValueError as exc:  # SchemaError and UnsupportedModulusError too
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError:  # not 1, which would read as a verification failure
            print(f"error: not enough memory for {args.command}", file=sys.stderr)
            return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
