import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import symcover
from symcover import serialize
from symcover.cli import main
from symcover.zmod import factorize, mod_inverse
from symcover.circuit import from_cover2d, size
from symcover.cover2d import build_s2_cover


def _build(tmp_path, *extra):
    cover = tmp_path / "cover.json"
    args = ["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", str(cover)]
    assert main(args + list(extra)) == 0
    return cover


def test_build_and_verify_s2(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    circuit = tmp_path / "circuit.json"
    code = main(
        ["build", "--poly", "s2", "--n", "16", "--m", "6",
         "--out", str(cover), "--circuit-out", str(circuit)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gate_total=" in out and "bbr_degree=" in out
    assert cover.exists() and circuit.exists()

    assert main(["verify", "--in", str(cover)]) == 0
    out = capsys.readouterr().out
    assert "properties: pass" in out
    assert "a-strong: pass" in out


def test_build_and_verify_sk(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    code = main(
        ["build", "--poly", "sk", "--n", "8", "--k", "3", "--m", "35",
         "--seed", "7", "--out", str(cover)]
    )
    assert code == 0
    assert main(["verify", "--in", str(cover)]) == 0
    data = serialize.load(cover)
    assert data["meta"]["seed"] == 7


def test_covers_record_only_parameters_their_construction_used(tmp_path, capsys):
    # the hash-family search reads k and the seed; the digit cover reads neither
    s2 = tmp_path / "s2.json"
    for flag in (["--seed", "0"], ["--seed", "5"], ["--k", "3"]):
        assert main(["build", "--poly", "s2", "--n", "16", "--m", "6", *flag,
                     "--out", str(s2)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())
    assert main(["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", str(s2)]) == 0
    assert "seed" not in serialize.load(s2)["meta"]
    sk = tmp_path / "sk.json"
    assert main(["build", "--poly", "sk", "--n", "6", "--m", "15", "--out", str(sk)]) == 0
    data = serialize.load(sk)
    assert (data["k"], data["meta"]["seed"], data["meta"]["b"]) == (3, 0, 6)
    assert "strategy" not in data["meta"]


@pytest.mark.parametrize("circuit_out", ["c.json", "./c.json"])
def test_build_rejects_circuit_out_naming_the_cover(tmp_path, capsys, monkeypatch, circuit_out):
    monkeypatch.chdir(tmp_path)
    code = main(["build", "--poly", "s2", "--n", "16", "--m", "6",
                 "--out", "c.json", "--circuit-out", circuit_out])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("symcover ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for words in commands:
        # bracketed optional flags are run too, without their brackets
        argv = [w.strip("[]") for w in words[1:]]
        assert main(argv) == 0, words


def test_build_rejects_small_n(tmp_path, capsys):
    code = main(
        ["build", "--poly", "s2", "--n", "1", "--m", "6",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_build_rejects_prime_power_m(tmp_path):
    code = main(
        ["build", "--poly", "s2", "--n", "8", "--m", "9",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_verify_missing_file(tmp_path):
    assert main(["verify", "--in", str(tmp_path / "nope.json")]) == 2


def test_verify_corrupted_cover(tmp_path, capsys):
    cover = _build(tmp_path)
    capsys.readouterr()
    data = json.loads(cover.read_text())
    data["items"][0]["weight"] += 1
    cover.write_text(json.dumps(data))
    assert main(["verify", "--in", str(cover)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    assert re.search(r"cell \(\d+, \d+\)", out)


def test_verify_rejects_wrong_modulus(tmp_path, capsys):
    # m = 30 with the factors of 6 would otherwise be checked mod 6 and pass
    cover = _build(tmp_path)
    data = json.loads(cover.read_text())
    data["m"] = 30
    cover.write_text(json.dumps(data))
    assert main(["verify", "--in", str(cover)]) == 2
    assert "factor" in capsys.readouterr().err


def test_verify_rejects_index_zero(tmp_path, capsys):
    # index 0 would alias into row n and pass once the expansion is skipped
    cover = _build(tmp_path)
    data = json.loads(cover.read_text())
    for item in data["items"]:
        item["parts"][0] = sorted(0 if i == 16 else i for i in item["parts"][0])
    cover.write_text(json.dumps(data))
    assert main(["verify", "--in", str(cover), "--expansion-budget", "0"]) == 2
    assert "outside 1..16" in capsys.readouterr().err


def _box_artifact(n, k, items):
    return {"schema_version": 1, "kind": "box", "n": n, "k": k, "m": 6,
            "factors": [[2, 1], [3, 1]], "items": items, "meta": {}}


@pytest.mark.parametrize(
    "artifact, message",
    [
        # [0] * 2**64 would raise OverflowError inside the check
        (json.dumps(_box_artifact(2, 64, [])), "n**k = 2**64"),
        (json.dumps(_box_artifact(3, 3, [{"parts": [[1, 1], [2], [3]], "weight": 1}])),
         "repeats an index"),
        # the check would print "properties: pass" and then fail on the target
        (json.dumps(_box_artifact(2, 3, [])), "k = 3 exceeds n = 2"),
        # a cell count of 2**64 would wrap in the check's widest field
        (json.dumps(dict(_box_artifact(3, 3, [{"parts": [[1], [2], [3]], "weight": 2**64}]),
                         m=3 * 2**65, factors=[[2, 65], [3, 1]])),
         ">= 2**64"),
        # the parser runs out of stack before it sees a field
        ("[" * 5000 + "]" * 5000, "nested too deeply"),
    ],
    ids=["k-64", "duplicate-index", "k-above-n", "weights-beyond-count-field",
         "nested-too-deeply"],
)
def test_verify_rejects_unreadable_artifact(tmp_path, capsys, artifact, message):
    cover = tmp_path / "cover.json"
    cover.write_text(artifact)
    assert main(["verify", "--in", str(cover)]) == 2
    assert message in capsys.readouterr().err


def test_verify_rejects_a_modulus_trial_division_cannot_factor(tmp_path, capsys):
    # 2**61 - 1 is prime: trial division would run to 2**30.5 before saying so
    m = 2**61 - 1
    cover = tmp_path / "cover.json"
    artifact = dict(_box_artifact(2, 2, []), kind="rect", m=m, factors=[[m, 1]])
    cover.write_text(json.dumps(artifact))
    assert main(["verify", "--in", str(cover)]) == 2
    assert f"modulus {m} is not factored" in capsys.readouterr().err


def test_build_rejects_a_modulus_trial_division_cannot_factor(tmp_path, capsys):
    args = ["build", "--poly", "s2", "--n", "4", "--m", "2305843009213693951"]
    assert main(args + ["--out", str(tmp_path / "cover.json")]) == 2
    assert "modulus 2305843009213693951 is not factored" in capsys.readouterr().err
    assert not (tmp_path / "cover.json").exists()


def test_verify_reports_check_out_of_memory(tmp_path, capsys, monkeypatch):
    def out_of_memory(cover):
        raise MemoryError

    monkeypatch.setattr("symcover.cli.verify_sk_properties", out_of_memory)
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(_box_artifact(3, 3, [])))
    assert main(["verify", "--in", str(cover)]) == 2
    assert "n**k = 3**3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["export-dot", "--out-dir", "d"]],
                         ids=["verify", "export-dot"])
def test_reader_reports_part_mask_out_of_memory(tmp_path, capsys, monkeypatch, command):
    # n**2 fits the guard, but the mask of part [n] takes n + 1 bytes to make;
    # then the parse itself runs out of memory, as on a large artifact
    def out_of_memory(value):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    n = 3_000_000_000
    artifact = dict(_box_artifact(n, 2, [{"parts": [[n], [1]], "weight": 1}]), kind="rect")
    (tmp_path / "cover.json").write_text(json.dumps(artifact))
    for patched, message in [
        ("symcover.serialize.mask_of", "not enough memory to mask a part of n = 3000000000"),
        ("symcover.serialize.json.loads", "not enough memory to parse cover.json"),
    ]:
        monkeypatch.setattr(patched, out_of_memory)
        assert main([*command, "--in", "cover.json"]) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "Traceback" not in out + err and not (tmp_path / "d").exists()


def test_verify_reports_expansion_out_of_memory(tmp_path, capsys, monkeypatch):
    def out_of_memory(cover):
        raise MemoryError

    monkeypatch.setattr("symcover.cli.cover_coefficients", out_of_memory)
    cover = _build(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(cover)]) == 2
    out, err = capsys.readouterr()
    assert "properties: pass" in out and "a-strong" not in out
    assert "not enough memory" in err


def test_verify_skips_expansion_without_building_the_circuit(tmp_path, capsys, monkeypatch):
    def no_circuit(cover):
        raise AssertionError("an over-budget circuit was built")

    cover = _build(tmp_path)
    monkeypatch.setattr("symcover.cli.from_cover2d", no_circuit)
    gates = len(json.loads(cover.read_text())["items"])
    capsys.readouterr()
    assert main(["verify", "--in", str(cover), "--expansion-budget", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"a-strong: skipped (expansion of {gates} gates exceeds 0 terms); "
        "cover-level check above is authoritative"
    )


def test_verify_prints_artifact_sha256(tmp_path, capsys):
    cover = _build(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(cover)]) == 0
    digest = hashlib.sha256(cover.read_bytes()).hexdigest()
    assert capsys.readouterr().out.splitlines()[0] == f"artifact: sha256 {digest}"


def test_verify_caps_witness_lines(tmp_path, capsys):
    # every weight shifted by one: all 240 cells and all 240 monomials fail;
    # the sha256 pins the whole report, every witness line included
    cover = tmp_path / "cover.json"
    assert main(["build", "--poly", "s2", "--n", "16", "--m", "35", "--out", str(cover)]) == 0
    data = json.loads(cover.read_text())
    for item in data["items"]:
        item["weight"] += 1
        assert item["weight"] < 35
    cover.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--in", str(cover)]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    astrong = next(i for i, line in enumerate(lines) if line.startswith("a-strong:"))
    assert lines[1] == "properties: fail (240 violations): 256 cells checked"
    assert lines[astrong] == "a-strong: fail (240 of 240 monomials)"
    assert lines[astrong - 1] == lines[-1] == "  ... and 220 more"
    assert len(lines) == 2 + 21 + 1 + 21
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9efad3f3e771c707e9a225549d17893b548bfa56e9a6b8ca653c87542164a788"
    )


@pytest.mark.parametrize("shift", [0, 1], ids=["passing", "mutant"])
@pytest.mark.parametrize(
    "poly", [["s2", "--n", "16"], ["sk", "--n", "6", "--k", "3", "--seed", "1"]],
    ids=["k2", "k3"],
)
def test_indented_artifacts_read_and_verify_as_compact_ones(tmp_path, capsys, poly, shift):
    # the indent-2 layout that earlier versions wrote; the mutant shifts the
    # first item's weight by one within 1..34
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    assert main(["build", "--poly", *poly, "--m", "35", "--out", str(compact)]) == 0
    cover = serialize.cover_from_dict(serialize.load(compact))
    cover.items[0] = (cover.items[0][0], (cover.items[0][1] + shift - 1) % 34 + 1)
    data = serialize.cover_to_dict(cover)
    serialize.dump(data, compact)
    indented.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    assert serialize.cover_from_dict(serialize.load(indented)) == cover

    reports = []
    for path in (compact, indented):
        capsys.readouterr()
        code = main(["verify", "--in", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("artifact: sha256 ")
        reports.append((code, lines[1:]))
    assert reports[0] == reports[1]
    assert reports[0][0] == shift  # exit 0 for the passing cover, 1 for the mutant


def test_build_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["build", "--poly", "sk", "--n", "8", "--k", "2", "--m", "15", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report(tmp_path, capsys):
    csv_path = tmp_path / "sizes.csv"
    code = main(
        ["report", "--poly", "s2", "--n", "16,64,256", "--m", "6",
         "--csv", str(csv_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "asymptotic" in out
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    header = lines[0].split(",")
    assert header == [
        "n", "m", "h", "bbr_degree", "distinct_rectangles",
        "graph_model_count", "baseline_graham_pollack", "baseline_naive",
    ]
    for line, n in zip(lines[1:], (16, 64, 256)):
        row = dict(zip(header, line.split(",")))
        assert int(row["n"]) == n
        assert int(row["baseline_graham_pollack"]) == n - 1
        assert int(row["baseline_naive"]) == n * (n - 1) // 2
        assert all(int(row[c]) > 0 for c in header)
        # the sizes are read off the cover, as its circuit would give them
        s = size(from_cover2d(build_s2_cover(n, factorize(6))))
        assert int(row["distinct_rectangles"]) == s.products
        assert int(row["graph_model_count"]) == s.graph_model_count


def test_report_rejects_bad_range(tmp_path):
    code = main(
        ["report", "--poly", "s2", "--n", "1,4", "--m", "6",
         "--csv", str(tmp_path / "s.csv")]
    )
    assert code == 2


def test_export_dot_even_m_guard(tmp_path, capsys):
    cover = _build(tmp_path)
    code = main(["export-dot", "--in", str(cover), "--out-dir", str(tmp_path / "d")])
    assert code == 4
    assert "odd" in capsys.readouterr().err


def test_export_dot_counts(tmp_path, capsys):
    # an s2 cover, and an sk cover with k = 2
    for n, poly in ((4, ["s2"]), (6, ["sk", "--k", "2"])):
        work = tmp_path / poly[0]
        work.mkdir()
        _check_export_dot_counts(work, n, poly)


def _check_export_dot_counts(work, n, poly):
    cover = work / "cover.json"
    assert main(
        ["build", "--poly", *poly, "--n", str(n), "--m", "15", "--out", str(cover)]
    ) == 0
    out_dir = work / "dots"
    assert main(["export-dot", "--in", str(cover), "--out-dir", str(out_dir)]) == 0

    # Recount edge coverage from the emitted files alone.
    edge_counts = {}
    graphs = 0
    for dot in out_dir.glob("*.dot"):
        graphs += 1
        left, right = set(), set()
        for line in dot.read_text().splitlines():
            m = re.match(r"\s*l(\d+) -- r(\d+);", line)
            if m:
                i, j = int(m.group(1)), int(m.group(2))
                left.add(i)
                right.add(j)
                edge = (min(i, j), max(i, j))
                edge_counts[edge] = edge_counts.get(edge, 0) + 1
        assert left and right and not (left & right)  # bipartite, disjoint

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            count = edge_counts.get((i, j), 0)
            assert count % 3 == 1 or count % 5 == 1, (i, j, count)

    raw = (out_dir / "manifest.json").read_text()
    manifest = json.loads(raw)
    assert raw == json.dumps(manifest, sort_keys=True) + "\n"
    assert manifest["graphs"] == graphs
    by_edge = {tuple(e["edge"]): e for e in manifest["edges"]}
    for edge, count in edge_counts.items():
        assert by_edge[edge]["count"] == count
        assert by_edge[edge]["factor_index"] is not None


def test_export_names_no_agreeing_factor_for_a_failing_count(tmp_path, capsys):
    # edge {1, 2} counts 8 * 2**-1 = 4 mod 15: 1 mod 3 but 4, not 0, mod 5
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "schema_version": 1, "kind": "rect", "n": 2, "k": 2, "m": 15,
        "factors": [[3, 1], [5, 1]], "items": [{"parts": [[1], [2]], "weight": 8}], "meta": {},
    }))
    assert main(["verify", "--in", str(cover)]) == 1
    out_dir = tmp_path / "dots"
    assert main(["export-dot", "--in", str(cover), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["edges"] == [
        {"edge": [1, 2], "count": 4, "factor_index": None, "prime_power": None}
    ]


def test_export_csv_format(tmp_path):
    cover = tmp_path / "cover.json"
    assert main(
        ["build", "--poly", "s2", "--n", "4", "--m", "15", "--out", str(cover)]
    ) == 0
    out_dir = tmp_path / "csv"
    assert main(
        ["export-dot", "--in", str(cover), "--out-dir", str(out_dir),
         "--format", "csv"]
    ) == 0
    lines = (out_dir / "edges.csv").read_text().strip().splitlines()
    assert lines[0] == "graph_id,i,j"
    assert len(lines) > 1


def test_export_csv_is_every_line_joined_at_once(tmp_path):
    # the lines are written as they are made; the file is the one join of them
    path = tmp_path / "cover.json"
    assert main(["build", "--poly", "s2", "--n", "16", "--m", "15", "--out", str(path)]) == 0
    out_dir = tmp_path / "csv"
    assert main(
        ["export-dot", "--in", str(path), "--out-dir", str(out_dir), "--format", "csv"]
    ) == 0
    cover = serialize.cover_from_dict(serialize.load(path))
    lines = ["graph_id,i,j"]
    graphs = 0
    for rect, w in cover.items:
        for _ in range(w * mod_inverse(2, 15) % 15):
            lines += [f"{graphs},{i},{j}" for i in sorted(rect.rows) for j in sorted(rect.cols)]
            graphs += 1
    assert graphs > 1
    assert (out_dir / "edges.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_export_rejects_box_cover(tmp_path):
    cover = tmp_path / "cover.json"
    assert main(
        ["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "15",
         "--out", str(cover)]
    ) == 0
    code = main(["export-dot", "--in", str(cover), "--out-dir", str(tmp_path / "d")])
    assert code == 2


def test_export_reports_count_table_out_of_memory(tmp_path, capsys, monkeypatch):
    def out_of_memory(cover):
        raise MemoryError

    monkeypatch.setattr("symcover.cli.multiplicity_table", out_of_memory)
    cover = tmp_path / "cover.json"
    assert main(["build", "--poly", "s2", "--n", "4", "--m", "15", "--out", str(cover)]) == 0
    capsys.readouterr()
    assert main(["export-dot", "--in", str(cover), "--out-dir", str(tmp_path / "d")]) == 2
    assert "n x n = 4 x 4" in capsys.readouterr().err


def test_export_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert main(["export-dot", "--in", str(path), "--out-dir", str(tmp_path / "d")]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["build", "--poly", "s2"]) == 2
    assert main([]) == 2
    # the hash-family search has one strategy, and no flag to name it
    assert main(["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "15",
                 "--out", "never.json", "--strategy", "greedy"]) == 2
    # the alphabet is 2k, with no flag to set it
    assert main(["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "15",
                 "--out", "never.json", "--b", "6"]) == 2


def test_runtime_loads_only_the_standard_library():
    # -I -S: no site-packages and no PYTHONPATH, only the source tree
    package = Path(symcover.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(package.parent)!r})\n"
        f"for name in {names!r}: importlib.import_module('symcover.' + name)\n"
        "print(*sorted({m.partition('.')[0] for m in sys.modules}))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "symcover" in loaded
    assert loaded - {"__main__", "symcover"} <= sys.stdlib_module_names
