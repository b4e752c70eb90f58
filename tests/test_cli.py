import json
import re

import pytest

from symcover import serialize
from symcover.cli import main
from symcover.zmod import factorize


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

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["graphs"] == graphs
    by_edge = {tuple(e["edge"]): e for e in manifest["edges"]}
    for edge, count in edge_counts.items():
        assert by_edge[edge]["count"] == count
        assert by_edge[edge]["factor_index"] is not None


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


def test_export_rejects_box_cover(tmp_path):
    cover = tmp_path / "cover.json"
    assert main(
        ["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "15",
         "--out", str(cover)]
    ) == 0
    code = main(["export-dot", "--in", str(cover), "--out-dir", str(tmp_path / "d")])
    assert code == 2


def test_usage_error_exit_code():
    assert main(["build", "--poly", "s2"]) == 2
    assert main([]) == 2
