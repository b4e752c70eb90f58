"""Tests of the benchmark's own pieces on tiny covers.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import artifacts
import run
import worker

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from symcover import cli, serialize  # noqa: E402
from symcover.circuit import from_cover2d, from_coverkd, size  # noqa: E402
from symcover.cover2d import build_s2_cover, verify_s2_properties  # noqa: E402
from symcover.coverkd import build_sk_cover, verify_sk_properties  # noqa: E402
from symcover.zmod import astrong_coeff_status, factorize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny_rect() -> dict:
    return serialize.cover_to_dict(build_s2_cover(16, factorize(6)))


def tiny_box() -> dict:
    return serialize.cover_to_dict(build_sk_cover(6, 3, factorize(35), seed=1))


@pytest.fixture
def restore_symcover():
    """Undo the tracer's patching after an in-process test."""
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("symcover")}
    saved = {name: dict(vars(mod)) for name, mod in modules.items()}
    yield
    for name, mod in modules.items():
        vars(mod).update(saved[name])


def test_install_patches_every_binding(restore_symcover):
    originals = {
        (mod, func): getattr(sys.modules[f"symcover.{mod}"], func)
        for mod, funcs in worker.LAYERS.items()
        for func in funcs
    }
    tracer = worker.Tracer()
    tracer.install()
    for name, mod in sys.modules.items():
        if name.startswith("symcover"):
            for attr, value in vars(mod).items():
                assert value not in originals.values(), f"{name}.{attr} left unwrapped"
    # names bound by `from .x import y` and module globals are both patched
    assert cli.factorize.__wrapped__ is originals[("zmod", "factorize")]
    assert sys.modules["symcover.cover2d"].bbr_construct.__wrapped__ is originals[("sympoly", "bbr_construct")]


def test_traced_build_records_nested_spans(restore_symcover, tmp_path):
    tracer = worker.Tracer()
    tracer.install()
    assert cli.main(["build", "--poly", "s2", "--n", "16", "--m", "6", "--out", str(tmp_path / "c.json")]) == 0
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.cmd_build" and tracer.spans[0][1] is None
    for inner in ("zmod.factorize", "cover2d.initial_cover", "sympoly.bbr_construct",
                  "cover2d.transform", "circuit.from_cover2d", "serialize.cover_to_dict",
                  "serialize.dump"):
        span = tracer.spans[names.index(inner)]
        assert span[1] == 0, f"{inner} is not a child of cmd_build"
        assert span[2] <= span[3]
    assert tracer.counts == {"sympoly.degree": 2}


def test_self_times_subtract_direct_children_only():
    spans = [
        ["a", None, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 6.0],
    ]
    assert worker.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_every_span_and_count_has_a_per_layer_metric():
    for mod, funcs in worker.LAYERS.items():
        for func in funcs:
            span = f"{mod}.{func}"
            assert run.MERGED_SPANS.get(span, f"{span}_s") in PER_LAYER
    for counter, _ in worker.COUNTS.values():
        assert counter in PER_LAYER


@pytest.mark.parametrize("poly", ["s2", "sk"])
def test_worker_traced_and_untraced_write_identical_bytes(tmp_path, poly):
    args = {"s2": ["--poly", "s2", "--n", "16", "--m", "6"],
            "sk": ["--poly", "sk", "--n", "6", "--k", "3", "--m", "35"]}[poly]
    session = run.Session(tmp_path)
    plain = session.iteration(args, "plain", trace=False)
    traced = session.iteration(args, "traced", trace=True)
    assert plain["build"]["exit"] == traced["build"]["exit"] == 0
    assert plain["verify"]["exit"] == traced["verify"]["exit"] == 0
    assert plain["sha256"] == traced["sha256"]
    assert "spans" not in plain["build"] and traced["build"]["spans"]
    assert plain["build"]["peak_mb"] > 0 and len(session.setups) == 2
    layers = run.layer_metrics(traced, artifacts.load(traced["path"]))
    assert set(layers) <= PER_LAYER
    assert layers["astrong.skipped"] == 0 and layers["astrong.monomials_checked"] > 0


def test_crash_is_recorded_with_its_own_exit_code(tmp_path, monkeypatch):
    def boom(argv):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "main", boom)
    result = tmp_path / "r.json"
    assert worker.run(str(result), False, ["verify"]) == worker.CRASH_EXIT
    assert json.loads(result.read_text())["exit"] == worker.CRASH_EXIT


@pytest.mark.parametrize("make, to_circuit", [
    (lambda: build_s2_cover(16, factorize(6)), from_cover2d),
    (lambda: build_sk_cover(6, 3, factorize(35), seed=1), from_coverkd),
])
def test_sizes_match_the_program(make, to_circuit):
    cover = make()
    s = size(to_circuit(cover))
    assert artifacts.sizes(serialize.cover_to_dict(cover)) == {
        "products": s.products, "gate_total": s.gate_total,
        "graph_model_count": s.graph_model_count,
    }


def test_item_hash_ignores_order_only():
    data = tiny_rect()
    shuffled = dict(data, items=random.Random(0).sample(data["items"], len(data["items"])))
    assert artifacts.item_multiset_sha256(shuffled) == artifacts.item_multiset_sha256(data)
    reweighted = json.loads(json.dumps(data))
    reweighted["items"][0]["weight"] += 1
    assert artifacts.item_multiset_sha256(reweighted) != artifacts.item_multiset_sha256(data)


def test_cell_visits_and_expand_terms():
    rect, box = tiny_rect(), tiny_box()
    assert artifacts.cell_visits(rect) == sum(len(r) * len(c) for r, c in (it["parts"] for it in rect["items"]))
    assert artifacts.expand_terms(rect) == artifacts.cell_visits(rect)
    assert artifacts.cell_visits(box) == 0 < artifacts.expand_terms(box)


@pytest.mark.parametrize("m", [6, 12, 35, 385])
def test_stands_for_matches_the_program(m):
    mod = factorize(m)
    qs = artifacts.prime_powers(m)
    assert qs == list(mod.prime_powers)
    for target in (0, 1):
        for value in range(-m, 2 * m):
            assert artifacts.stands_for(target, value, qs) == astrong_coeff_status(target, value, mod)[0]


@pytest.mark.parametrize("make, verify", [
    (tiny_rect, verify_s2_properties),
    (tiny_box, verify_sk_properties),
])
def test_drop_one_item_breaks_its_witness_cell(make, verify):
    data = make()
    mutant, index, cell = artifacts.drop_one_item(data, random.Random(5))
    again = artifacts.drop_one_item(data, random.Random(5))
    assert again[1:] == (index, cell)
    assert len(mutant["items"]) == len(data["items"]) - 1
    assert mutant["items"] == data["items"][:index] + data["items"][index + 1:]
    parts = data["items"][index]["parts"]
    assert all(j in p for j, p in zip(cell, parts))
    assert verify(serialize.cover_from_dict(data)).ok
    report = verify(serialize.cover_from_dict(mutant))
    assert cell in [v.cell for v in report.violations]


def test_drop_one_item_passes_over_harmless_items():
    # mod 6, cell (1, 2) counts 1 + 3 = 4, and 3 or 1 still stand for 1 there,
    # so only dropping the item that alone covers (2, 1) is provably wrong
    data = {"kind": "rect", "n": 2, "k": 2, "m": 6, "factors": [[2, 1], [3, 1]], "items": [
        {"parts": [[1], [2]], "weight": 1},
        {"parts": [[1], [2]], "weight": 3},
        {"parts": [[2], [1]], "weight": 1},
    ]}
    for seed in range(10):
        mutant, index, cell = artifacts.drop_one_item(data, random.Random(seed))
        assert (index, cell) == (2, (2, 1))
    with pytest.raises(ValueError):
        artifacts.drop_one_item(dict(data, items=data["items"][:2]), random.Random(0))


def test_trust_hole_mutants():
    data = tiny_rect()
    wrong = artifacts.wrong_modulus(data, 30)
    assert wrong["m"] == 30 and wrong["factors"] == data["factors"] == [[2, 1], [3, 1]]
    moved = artifacts.first_index_to_zero(data)
    n = data["n"]
    assert not any(n in it["parts"][0] for it in moved["items"])
    assert any(0 in it["parts"][0] for it in moved["items"])
    assert [it["parts"][1] for it in moved["items"]] == [it["parts"][1] for it in data["items"]]
    assert any(n in it["parts"][0] for it in data["items"])  # the original is untouched


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s2-cells", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no symcover sources" in proc.stderr
