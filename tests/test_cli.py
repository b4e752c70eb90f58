import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import symcover
from symcover import serialize
from symcover.cli import _parse_args, main
from symcover.zmod import factorize, mod_inverse
from symcover.circuit import from_cover2d, size
from symcover.cover2d import build_s2_cover
from symcover.coverkd import _counts


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


def test_failed_build_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the cover's directory is missing, so its open fails after the circuit is written
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", "nodir/a.json",
                 "--circuit-out", "c.json"]) == 2
    assert "i/o error: [Errno 2] No such file or directory: 'nodir/a.json'" in (
        capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_build_failing_mid_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("symcover.serialize.cover_to_dict", lambda cover: {"items": [object()]})
    with pytest.raises(TypeError):
        main(["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", "a.json",
              "--circuit-out", "c.json"])
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


def test_verify_refuses_a_circuit_artifact(tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    _build(tmp_path, "--circuit-out", str(circuit))
    capsys.readouterr()
    assert main(["verify", "--in", str(circuit)]) == 2
    assert "artifact kind 'circuit' is not rect or box" in capsys.readouterr().err


def test_export_refuses_a_circuit_artifact(tmp_path, capsys):
    circuit, out_dir = tmp_path / "circuit.json", tmp_path / "d"
    _build(tmp_path, "--circuit-out", str(circuit))
    capsys.readouterr()
    assert main(["export-dot", "--in", str(circuit), "--out-dir", str(out_dir)]) == 2
    assert "artifact kind 'circuit' is not rect or box" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["verify"], ["export-dot", "--out-dir", "d"]])
@pytest.mark.parametrize(
    "key, before, repeat",
    [("m", "{", '"m": 35, "n": 2, '), ("weight", '"weight"', '"weight": 3, ')],
    ids=["top-level", "item"],
)
def test_an_artifact_that_repeats_a_key_is_refused(
    tmp_path, capsys, monkeypatch, command, key, before, repeat
):
    # the file names two values for the key, and a parser keeps either one:
    # the last, the cover's own, would pass
    monkeypatch.chdir(tmp_path)
    cover = _build(tmp_path)
    text = cover.read_text()
    at = text.index(before) + (before == "{")
    cover.write_text(text[:at] + repeat + text[at:])
    capsys.readouterr()
    assert main([*command, "--in", str(cover)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: JSON object repeats the key {key!r}\n"
    assert "Traceback" not in out + err and not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "patched, argv",
    [
        ("symcover.cli.build_s2_cover",
         ["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", "cover.json",
          "--circuit-out", "circuit.json"]),
        ("symcover.cli.build_sk_cover",
         ["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "6", "--out", "cover.json",
          "--circuit-out", "circuit.json"]),
        # the circuit file is written by then, and is removed
        ("symcover.serialize.cover_to_dict",
         ["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", "cover.json",
          "--circuit-out", "circuit.json"]),
        ("symcover.cli.build_s2_cover",
         ["report", "--poly", "s2", "--n", "16,64", "--m", "6", "--csv", "sizes.csv"]),
    ],
    ids=["build-s2", "build-sk", "build-cover-write", "report"],
)
def test_a_build_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, patched, argv):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(patched, out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: not enough memory for {argv[0]}\n"
    assert "Traceback" not in out + err and not [*tmp_path.iterdir()]


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
        # a transformed cover's meta is read with `in`, which an int does not support
        (json.dumps(dict(_box_artifact(2, 2, []), meta=5)), "meta must be a JSON object, not int"),
        # a cell count of 2**64 would wrap in the check's widest field
        (json.dumps(dict(_box_artifact(3, 3, [{"parts": [[1], [2], [3]], "weight": 2**64}]),
                         m=3 * 2**65, factors=[[2, 65], [3, 1]])),
         ">= 2**64"),
        # the parser runs out of stack before it sees a field
        ("[" * 5000 + "]" * 5000, "nested too deeply"),
    ],
    ids=["k-64", "duplicate-index", "k-above-n", "meta-int", "weights-beyond-count-field",
         "nested-too-deeply"],
)
def test_verify_rejects_unreadable_artifact(tmp_path, capsys, artifact, message):
    cover = tmp_path / "cover.json"
    cover.write_text(artifact)
    assert main(["verify", "--in", str(cover)]) == 2
    assert message in capsys.readouterr().err


def _cover_and_refused_copy(tmp_path):
    """cover.json, a passing s2 cover of odd m that export-dot takes, and
    bad.json, the same cover with a weight of 0, which the reader refuses
    with exit 2."""
    good = tmp_path / "cover.json"
    assert main(["build", "--poly", "s2", "--n", "16", "--m", "15", "--out", str(good)]) == 0
    data = json.loads(good.read_text())
    data["items"][-1]["weight"] = 0
    (tmp_path / "bad.json").write_text(json.dumps(data))


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "layer, runs",
    [
        ("symcover.cover2d.transform",
         [(["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", "new.json"], 0)]),
        ("symcover.serialize.dump",
         [(["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "35", "--out", "new.json",
            "--circuit-out", "circuit.json"], 0)]),
        # the refused artifact raises out of the read, through the pause
        ("symcover.serialize.cover_from_dict",
         [(["verify", "--in", "cover.json"], 0), (["verify", "--in", "bad.json"], 2)]),
        ("symcover.cover2d.transform",
         [(["report", "--poly", "s2", "--n", "16,64", "--m", "6", "--csv", "sizes.csv"], 0)]),
        ("symcover.serialize.cover_from_dict",
         [(["export-dot", "--in", "cover.json", "--out-dir", "dot", "--format", "csv"], 0)]),
        # argparse's usage exit is a SystemExit out of the parse
        ("symcover.cli._parse_args", [(["verify"], 2)]),
    ],
    ids=["build-s2", "build-sk-circuit", "verify", "report", "export-dot", "usage"],
)
def test_each_command_restores_the_collector_state(
    tmp_path, capsys, monkeypatch, layer, runs, caller_enabled
):
    # main pauses the cyclic collector for the whole command, and leaves it
    # as the caller had it on every exit
    _cover_and_refused_copy(tmp_path)
    monkeypatch.chdir(tmp_path)
    paused = []
    module, name = layer.rsplit(".", 1)
    inner = getattr(sys.modules[module], name)

    def spy(*args, **kwargs):
        paused.append(not gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(layer, spy)
    try:
        if not caller_enabled:
            gc.disable()
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() is caller_enabled
    finally:
        gc.enable()
    assert paused and all(paused)


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
def test_a_crashing_command_restores_the_collector_state(tmp_path, monkeypatch, caller_enabled):
    def crash(*args):
        raise RuntimeError("crash")

    monkeypatch.setattr("symcover.cover2d.transform", crash)
    try:
        if not caller_enabled:
            gc.disable()
        with pytest.raises(RuntimeError, match="crash"):
            _build(tmp_path)
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--poly", "s2", "--n", "64", "--m", "6", "--out", "new.json"],
        ["build", "--poly", "sk", "--n", "6", "--k", "3", "--m", "35", "--out", "new.json",
         "--circuit-out", "circuit.json"],
        ["verify", "--in", "cover.json"],
        ["report", "--poly", "s2", "--n", "16,64", "--m", "6", "--csv", "sizes.csv"],
        ["export-dot", "--in", "cover.json", "--out-dir", "dot", "--format", "csv"],
    ],
    ids=["build-s2", "build-sk-circuit", "verify", "report", "export-dot"],
)
def test_commands_leave_no_cyclic_garbage_beyond_argparse(tmp_path, capsys, monkeypatch, argv):
    # the pause in main can only hold objects in reference cycles; a
    # command's data has none, so a collection after it finds no more than
    # what parsing its arguments alone leaves (argparse's parser)
    _cover_and_refused_copy(tmp_path)
    monkeypatch.chdir(tmp_path)
    gc.collect()
    gc.disable()  # so no collection runs between the command and the count
    try:
        _parse_args(argv)
        parser_only = gc.collect()
        assert main(argv) == 0
        assert gc.collect() <= parser_only
    finally:
        gc.enable()


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
    def out_of_memory(*args, **kwargs):
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
    def out_of_memory(cover, counts):
        raise MemoryError

    monkeypatch.setattr("symcover.cli.cover_coefficients", out_of_memory)
    cover = _build(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(cover)]) == 2
    out, err = capsys.readouterr()
    assert "properties: pass" in out and "a-strong" not in out
    assert err == "error: not enough memory for verify\n"


@pytest.mark.parametrize("shift", [0, 1], ids=["as-built", "shifted"])
@pytest.mark.parametrize(
    "poly", [["s2", "--n", "16"], ["sk", "--n", "6", "--k", "3", "--seed", "1"]],
    ids=["s2", "sk"],
)
def test_verify_builds_one_count_table(tmp_path, capsys, monkeypatch, poly, shift):
    # the property check and the a-strong step read one table: every binding
    # of coverkd._counts across symcover counts its calls
    calls = []

    def counted(cover):
        calls.append(cover)
        return _counts(cover)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "symcover":
            for attr, value in list(vars(module).items()):
                if value is _counts:
                    monkeypatch.setattr(module, attr, counted)
    cover = tmp_path / "cover.json"
    assert main(["build", "--poly", *poly, "--m", "35", "--out", str(cover)]) == 0
    data = json.loads(cover.read_text())
    for item in data["items"]:  # every weight shifted by one, within 1..34
        item["weight"] = (item["weight"] + shift - 1) % 34 + 1
    cover.write_text(json.dumps(data))
    capsys.readouterr()
    calls.clear()
    assert main(["verify", "--in", str(cover)]) == shift
    assert len(calls) == 1
    assert any(line.startswith("a-strong: ") for line in capsys.readouterr().out.splitlines())


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


def test_verify_rejects_a_negative_expansion_budget(tmp_path, capsys):
    # a negative budget would skip the a-strong step as if it were a real limit
    cover = _build(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--in", str(cover), "--expansion-budget", "-5"]) == 2
    out, err = capsys.readouterr()
    assert "--expansion-budget" in err and "a-strong" not in out


@pytest.mark.parametrize(
    "args, cover_sha, circuit_sha",
    [
        (["--poly", "s2", "--n", "64", "--m", "6"],
         "ac45adc84898eb8a337992ad972103e5256c22e97cd9995268a77d466eeb86ba",
         "ad06a869c1de36c7480702d62048a3659e7d12cdeb922bdc6bc3c01955b9c1b9"),
        (["--poly", "sk", "--n", "8", "--k", "3", "--m", "35", "--seed", "1"],
         "eab1613e5a4c588f81cd8d14cc8512f885f280edf066828ff0ded34e5f4d511b",
         "377d5b9e90da7c2c03c035955446f512327dd3206bc63667f1f52ad6088d2f5a"),
    ],
    ids=["s2", "sk"],
)
def test_build_writes_pinned_cover_and_circuit_bytes(tmp_path, args, cover_sha, circuit_sha):
    # a serializer round trip reads the file against the forms it came from,
    # so only a pinned digest notices a changed [group, index, coefficient]
    cover, circuit = tmp_path / "cover.json", tmp_path / "circuit.json"
    assert main(["build", *args, "--out", str(cover), "--circuit-out", str(circuit)]) == 0
    assert hashlib.sha256(cover.read_bytes()).hexdigest() == cover_sha
    assert hashlib.sha256(circuit.read_bytes()).hexdigest() == circuit_sha


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


@pytest.mark.parametrize("pairs, itemsize", [(0, 1), (43, 2)], ids=["one-byte", "wide"])
def test_verify_prints_target_0_and_target_1_cells_in_row_major_order(
    tmp_path, capsys, pairs, itemsize
):
    # a full box counts every diagonal cell; (2, 2) then counts 6, which is
    # 0 mod 6, and (1, 2), (1, 3) count 2; the wide twin adds 43 pairs of
    # full boxes weighing 1 and 5, 258 in all, to every cell
    full = [[1, 2, 3], [1, 2, 3]]
    items = [([[1], [2, 3]], 1), (full, 1), ([[2], [2]], 5), ([[3], [3]], 1)]
    items += [(full, 1), (full, 5)] * pairs
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "schema_version": 1, "kind": "rect", "n": 3, "k": 2, "m": 6,
        "factors": [[2, 1], [3, 1]], "meta": {},
        "items": [{"parts": parts, "weight": w} for parts, w in items],
    }))
    assert _counts(serialize.cover_from_dict(serialize.load(cover))).itemsize == itemsize
    assert main(["verify", "--in", str(cover)]) == 1
    digest = hashlib.sha256(cover.read_bytes()).hexdigest()
    assert capsys.readouterr().out == f"artifact: sha256 {digest}\n" + (
        "properties: fail (4 violations): 9 cells checked\n"
        "  cell (1, 1): count 1 has residues [1, 1] per 6 = 2*3, target 0\n"
        "  cell (1, 2): count 2 has residues [0, 2] per 6 = 2*3, target 1\n"
        "  cell (1, 3): count 2 has residues [0, 2] per 6 = 2*3, target 1\n"
        "  cell (3, 3): count 2 has residues [0, 2] per 6 = 2*3, target 0\n"
        "a-strong: fail (4 of 8 monomials)\n"
        "  x1*y1: target 0 actual 1 residues 0|1 0|1\n"
        "  x1*y2: target 1 actual 2 residues 1|0 1|2\n"
        "  x1*y3: target 1 actual 2 residues 1|0 1|2\n"
        "  x3*y3: target 0 actual 2 residues 0|0 0|2\n"
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


@pytest.mark.parametrize("ns, message", [
    ("16,x", "argument --n: expects comma-separated integers"),
    (",", "argument --n: expects at least one value"),
])
def test_report_rejects_an_unparsable_n_list(tmp_path, capsys, ns, message):
    csv_path = tmp_path / "s.csv"
    assert main(["report", "--poly", "s2", "--n", ns, "--m", "6", "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not csv_path.exists()


def test_a_failed_hash_family_search_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("symcover.coverkd._MAX_ROUNDS", 0)
    path = tmp_path / "sk.json"
    assert main(["build", "--poly", "sk", "--n", "6", "--m", "35", "--out", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("construction failed: no perfect hash family after 0 rounds")
    assert "Traceback" not in err
    assert not path.exists()


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
    assert not (tmp_path / "d").exists()  # the edges are counted before any graph is written


def test_export_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert main(["export-dot", "--in", str(path), "--out-dir", str(tmp_path / "d")]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["build", "--poly", "s2"]) == 2
    # verify's help names what --in is and how --expansion-budget counts terms
    assert main(["verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--in INPUT the cover artifact to check" in text
    assert ("skip the a-strong step when the cover circuit's expansion would have more "
            "terms than this, the sum over items of the product of their part sizes "
            "(default 10,000,000)") in text
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


def test_cli_import_loads_no_heavy_modules():
    # records are namedtuples, so no command pays for dataclasses (and the
    # inspect, ast, dis and tokenize it loads), typing, or random, which only
    # the sk hash-family search imports
    code = "import sys, symcover.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(symcover.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "symcover.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "random"}
