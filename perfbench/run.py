"""symcover benchmark: `build`, then `verify` on the artifact just written.

Usage, from the repository root:

    python3 perfbench/run.py --workload s2-cells --seed 1 --seconds 20 --trace 0

One closed-loop client runs one command at a time, each in a fresh
interpreter (perfbench/worker.py) so that set-up and peak memory are
measured per process.  Iterations of build + verify repeat until
--seconds have passed.  Then an untimed known-answer set is verified:
a seeded drop-one-item mutant of the workload's artifact and three small
s2 cases.  The last stdout line is the JSON result; with --trace 0 it
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones, from iterations that alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import artifacts
from worker import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# workload -> `build` arguments; the hash-family seed of sk-boxes is fixed
# because its cost swings about 2x between seeds
WORKLOADS = {
    "s2-cells": ["--poly", "s2", "--n", "2048", "--m", "6"],
    "s2-expand": ["--poly", "s2", "--n", "512", "--m", "35"],
    "sk-boxes": ["--poly", "sk", "--n", "10", "--k", "4", "--m", "385", "--seed", "0"],
}
SMALL = ["--poly", "s2", "--n", "64", "--m", "6"]
REJECT = {1, 2}  # verification failure, or the input refused as malformed
SETUP_SAMPLES = 10  # import-only processes, on top of one per command

SUMMARY = re.compile(
    r"gate_total=(?P<gate_total>\d+) products=(?P<products>\d+) "
    r"graph_model_count=(?P<graph_model_count>\d+)"
)

# spans whose self time is reported under a shared per-layer metric
MERGED_SPANS = {
    "serialize.cover_to_dict": "serialize.write_s",
    "serialize.dump": "serialize.write_s",
    "serialize.load": "serialize.read_s",
    "serialize.cover_from_dict": "serialize.read_s",
    "circuit.from_cover2d": "circuit.from_cover_s",
    "circuit.from_coverkd": "circuit.from_cover_s",
    "cli.cmd_build": "cli.cmd_build_self_s",
    "cli.cmd_verify": "cli.cmd_verify_self_s",
}


class Session:
    """Runs worker processes and keeps what each one reported."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.setups: list[float] = []
        self.traces: list[dict] = []

    def command(self, argv: list[str], tag: str, trace: bool = False) -> dict:
        result, out, err = (self.work / f"{tag}.{ext}" for ext in ("result", "out", "err"))
        result.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        cmd = [sys.executable, str(WORKER), str(result), "1" if trace else "0", "--", *argv]
        pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        record = json.loads(result.read_text()) if result.exists() else {}
        record.update(
            exit=os.waitstatus_to_exitcode(status),
            peak_mb=usage.ru_maxrss / 1024,
            stdout=out.read_text(),
        )
        if trace:
            self.traces.append({"command": tag, "argv": argv, "spans": record.get("spans", [])})
        elif "setup_s" in record:
            self.setups.append(record["setup_s"])
        return record

    def iteration(self, build_args: list[str], tag: str, trace: bool) -> dict:
        artifact = self.work / f"{tag}.json"
        artifact.unlink(missing_ok=True)
        build = self.command(["build", *build_args, "--out", str(artifact)], f"{tag}.build", trace)
        verify = self.command(["verify", "--in", str(artifact)], f"{tag}.verify", trace)
        sha = artifacts.file_sha256(artifact) if artifact.exists() else None
        return {"build": build, "verify": verify, "sha256": sha, "path": artifact}

    def verdicts(self, cases: list[tuple], trace: bool) -> list[int]:
        codes = []
        for name, data, extra, _ in cases:
            path = self.work / f"ka-{name}.json"
            artifacts.dump(data, path)
            tag = f"ka-{name}.{'traced' if trace else 'plain'}"
            codes.append(self.command(["verify", "--in", str(path), *extra], tag, trace)["exit"])
        return codes


def known_answer_cases(session: Session, data: dict, seed: int) -> tuple[list[tuple], list[str]]:
    """(name, artifact, extra verify args, accepted exit codes), and notes."""
    rng = random.Random(seed)
    mutant, index, cell = artifacts.drop_one_item(data, rng)
    notes = [f"drop-one: item {index} dropped; cell {cell} leaves the unit pattern without it"]
    small_path = session.work / "small.json"
    if session.command(["build", *SMALL, "--out", str(small_path)], "small.build")["exit"]:
        raise RuntimeError("the small known-answer cover did not build")
    small = artifacts.load(small_path)
    small_mutant, small_index, small_cell = artifacts.drop_one_item(small, rng)
    notes.append(f"small-drop-one: item {small_index} dropped; cell {small_cell} breaks")
    cases = [
        ("drop-one", mutant, [], {1}),
        ("small-wrong-modulus", artifacts.wrong_modulus(small, 30), [], REJECT),
        ("small-index-n-to-0", artifacts.first_index_to_zero(small), ["--expansion-budget", "0"], REJECT),
        ("small-drop-one", small_mutant, [], {1}),
    ]
    return cases, notes


def layer_metrics(it: dict, data: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced build + verify."""
    out: dict[str, float] = {}
    for step in ("build", "verify"):
        for span, seconds in self_times(it[step].get("spans", [])).items():
            name = MERGED_SPANS.get(span, f"{span}_s")
            out[name] = out.get(name, 0.0) + seconds
        for name, value in it[step].get("counts", {}).items():
            out[name] = out.get(name, 0) + value
    verify_spans = {span[0] for span in it["verify"].get("spans", [])}
    out["astrong.skipped"] = int("astrong.check_astrong" not in verify_spans)
    out["cover2d.cell_visits"] = artifacts.cell_visits(data)
    out["circuit.expand_terms"] = artifacts.expand_terms(data)
    out["zmod.coeff_checks"] = sum(
        out.get(key, 0)
        for key in ("cover2d.cells_checked", "coverkd.tuples_checked", "astrong.monomials_checked")
    )
    return out


def samples(runs: list[dict], step: str, key: str) -> list[float]:
    return [it[step][key] for it in runs]


def timed_loop(session: Session, build_args: list[str], trace: bool, seconds: float) -> dict:
    """Build + verify for `seconds`, alternating untraced and traced
    iterations when tracing.  Runs at least one of each, and no further
    one that, judged by the last, would end after the deadline."""
    modes = (False, True) if trace else (False,)
    runs: dict[bool, list[dict]] = {mode: [] for mode in modes}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for mode in modes:
            runs[mode].append(session.iteration(build_args, "traced" if mode else "plain", mode))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return runs


def output_checks(runs: dict, sizes: dict) -> dict[str, bool]:
    iterations = [it for mode_runs in runs.values() for it in mode_runs]
    summaries = [SUMMARY.search(it["build"]["stdout"]) for it in iterations]
    return {
        "every timed command exits 0": all(
            it[step]["exit"] == 0 for it in iterations for step in ("build", "verify")
        ),
        "build summary matches the sizes read back": all(
            m and {k: int(v) for k, v in m.groupdict().items()} == sizes for m in summaries
        ),
        "every build writes the same bytes": len({it["sha256"] for it in iterations}) == 1,
    }


def layer_values(session: Session, runs: dict, data: dict, spec: dict) -> dict[str, float]:
    plain, traced = runs[False], runs[True]
    per_iteration = [layer_metrics(it, data) for it in traced]
    # a layer the workload never calls reports 0
    values = {
        m["name"]: statistics.median(layers.get(m["name"], 0) for layers in per_iteration)
        for m in spec["per_layer"]
    }
    for step in ("build", "verify"):
        values[f"trace.{step}_overhead_s"] = statistics.mean(
            samples(traced, step, "wall_s")
        ) - statistics.mean(samples(plain, step, "wall_s"))
    (session.work / "trace.json").write_text(json.dumps(session.traces))
    print(f"  tracing overhead: build {values['trace.build_overhead_s']:+.4f} s, "
          f"verify {values['trace.verify_overhead_s']:+.4f} s "
          f"({len(traced)} traced iterations); spans in {session.work / 'trace.json'}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symcover" / "cli.py").is_file():
        print(f"no symcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    session = Session(work)
    session.command(["--help"], "warmup")  # compiles bytecode before anything is timed
    session.setups.clear()
    for i in range(SETUP_SAMPLES):
        session.command(["--help"], f"setup-{i}")
    build_args = WORKLOADS[args.workload]
    runs = timed_loop(session, build_args, bool(args.trace), args.seconds)
    plain = runs[False]
    timed = [it[step] for mode_runs in runs.values() for it in mode_runs for step in ("build", "verify")]
    failed = sum(rec["exit"] != 0 for rec in timed)
    data = artifacts.load(plain[-1]["path"])
    sizes = artifacts.sizes(data)
    checks = output_checks(runs, sizes)

    cases, notes = known_answer_cases(session, data, args.seed)
    codes = session.verdicts(cases, trace=False)
    honest = next((it["verify"]["exit"] for it in plain if it["verify"]["exit"]), 0)
    verdicts = [("honest", honest, {0})] + [
        (name, code, accepted) for (name, _, _, accepted), code in zip(cases, codes)
    ]
    wrong = [name for name, code, accepted in verdicts if code not in accepted]

    print(f"workload {args.workload} seed {args.seed}: "
          + " + ".join(f"{len(r)} {'traced' if mode else 'untraced'}" for mode, r in runs.items())
          + " build+verify iterations")
    print(f"  build args: {' '.join(build_args)}")
    for step in ("build", "verify"):
        print(f"  {step} wall/cpu s: " + ", ".join(
            f"{it[step]['wall_s']:.3f}/{it[step]['cpu_s']:.3f}" for it in plain))
    print(f"  artifact sha256 {plain[-1]['sha256']}")
    print(f"  item multiset sha256 {artifacts.item_multiset_sha256(data)}")
    print(f"  sizes read back: {sizes}")
    for note in notes:
        print(f"  {note}")
    for name, code, accepted in verdicts:
        mark = "ok" if code in accepted else "WRONG"
        print(f"  known answer {name}: exit {code}, expected one of {sorted(accepted)}: {mark}")
    print(f"  wrong_verdicts={len(wrong)} of {len(verdicts)}; "
          f"fail_rate={failed / len(timed)} ({failed} of {len(timed)} timed commands)")

    if args.trace:
        traced = runs[True]
        checks["traced artifacts are byte-identical"] = all(
            it["sha256"] == plain[0]["sha256"] for it in traced
        )
        checks["traced verdicts are identical"] = (
            [it["verify"]["exit"] for it in traced] == [it["verify"]["exit"] for it in plain]
            and session.verdicts(cases, trace=True) == codes
        )
        values = layer_values(session, runs, data, spec)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(session.setups),
            # mean time per command, i.e. the run's throughput: on a shared
            # machine it spreads less between runs than the median does
            "build_s": statistics.mean(samples(plain, "build", "wall_s")),
            "verify_s": statistics.mean(samples(plain, "verify", "wall_s")),
            "build_peak_mb": statistics.median(samples(plain, "build", "peak_mb")),
            "verify_peak_mb": statistics.median(samples(plain, "verify", "peak_mb")),
            "artifact_bytes": plain[-1]["path"].stat().st_size,
            **sizes,
            "right_verdicts": len(verdicts) - len(wrong),
            "ok_rate": (len(timed) - failed) / len(timed),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    for check, ok in checks.items():
        print(f"  check: {check}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": len(timed),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
