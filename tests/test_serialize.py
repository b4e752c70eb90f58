import hashlib
import json

import pytest

from symcover.cli import main
from symcover.zmod import factorize
from symcover.cover2d import build_s2_cover
from symcover.coverkd import build_sk_cover
from symcover.circuit import from_cover2d, from_coverkd, evaluate
from symcover import serialize
from symcover.serialize import SchemaError

M6 = factorize(6)
M35 = factorize(35)


def test_rect_cover_round_trip(tmp_path):
    cover = build_s2_cover(16, M6)
    path = tmp_path / "cover.json"
    serialize.dump(serialize.cover_to_dict(cover), path)
    loaded = serialize.cover_from_dict(serialize.load(path))
    assert loaded.n == cover.n
    assert loaded.mod == cover.mod
    assert loaded.items == cover.items
    assert loaded.meta == cover.meta


def test_box_cover_round_trip(tmp_path):
    cover = build_sk_cover(8, 3, M6, seed=4)
    data = serialize.cover_to_dict(cover)
    loaded = serialize.cover_from_dict(data)
    assert loaded.k == 3
    assert loaded.items == cover.items


def test_circuit_round_trip():
    circuit = from_coverkd(build_sk_cover(6, 2, M6, seed=4))
    data = serialize.circuit_to_dict(circuit)
    loaded = serialize.circuit_from_dict(data)
    assert loaded.vars == circuit.vars
    assert loaded.mod == circuit.mod
    assert len(loaded.gates) == len(circuit.gates)
    point = {var: 1 for var in circuit.vars.ids()}
    assert evaluate(loaded, point) == evaluate(circuit, point)


def test_dump_is_deterministic(tmp_path):
    cover = build_s2_cover(8, M6)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.dump(serialize.cover_to_dict(cover), p1)
    serialize.dump(serialize.cover_to_dict(build_s2_cover(8, M6)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_schema_fields_present():
    data = serialize.cover_to_dict(build_s2_cover(4, M6))
    assert data["schema_version"] == 1
    assert data["kind"] == "rect"
    assert data["m"] == 6 and data["factors"] == [[2, 1], [3, 1]]
    assert all(set(item) == {"parts", "weight"} for item in data["items"])
    assert {"N", "g", "h", "bbr_coeffs"} <= set(data["meta"])


def test_schema_errors(tmp_path):
    good = serialize.cover_to_dict(build_s2_cover(4, M6))

    bad_version = dict(good, schema_version=99)
    with pytest.raises(SchemaError, match="schema_version"):
        serialize.cover_from_dict(bad_version)

    bad_kind = dict(good, kind="triangle")
    with pytest.raises(SchemaError, match="kind"):
        serialize.cover_from_dict(bad_kind)

    with pytest.raises(SchemaError, match="malformed"):
        serialize.cover_from_dict({"schema_version": 1, "kind": "rect"})

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        serialize.load(broken)


def _rect():
    return serialize.cover_to_dict(build_s2_cover(4, M6))


def _box():
    return serialize.cover_to_dict(build_sk_cover(6, 3, M35, seed=1))


def _huge_m():
    return dict(_rect(), m=6 * 2**64, factors=[[2, 65], [3, 1]])


@pytest.mark.parametrize(
    "make, path, value, message",
    [
        (_rect, ["n"], 1, "n must be"),
        (_rect, ["n"], "4", "n must be"),
        (_box, ["k"], 1, "k = 1"),
        (_rect, ["k"], 3, "rect cover cannot have k = 3"),
        (_box, ["k"], 7, "k = 7 exceeds n = 6"),
        (_box, ["items", 0, "parts"], [[1], [2]], "2 parts, k = 3"),
        (_rect, ["items", 0, "parts", 0], [0], "outside 1..4"),
        (_rect, ["items", 0, "parts", 1], [5], "outside 1..4"),
        (_box, ["items", 0, "parts", 2], [1.0], "outside 1..6"),
        (_box, ["items", 0, "parts", 0], [1, 1], "repeats an index"),
        (_rect, ["items", 0, "weight"], 0, "not in 1..5"),
        (_rect, ["items", 0, "weight"], 6, "not in 1..5"),
        (_rect, ["items", 0, "weight"], 1.5, "not in 1..5"),
        (_rect, ["m"], 30, "do not factor m = 30"),
        (_box, ["factors"], [[5, 1], [7, 1], [1, 1]], "do not factor m = 35"),
        (_rect, ["m"], True, "modulus must be"),
        (_huge_m, ["items", 0, "weight"], 2**64, r">= 2\*\*64"),
    ],
    ids=[
        "n-below-2", "n-not-int", "k-below-2", "rect-k-not-2", "k-above-n", "part-count",
        "index-0", "index-n-plus-1", "index-not-int", "index-repeated", "weight-0",
        "weight-m", "weight-not-int", "m-not-factored", "factors-not-of-m", "m-not-int",
        "weights-beyond-count-field",
    ],
)
def test_reader_rejects_malformed_fields(make, path, value, message):
    data = make()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError, match=message):
        serialize.cover_from_dict(data)


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["s2", "--n", "16", "--m", "6"],
         "eb2cd617bea3a9a5dcebb2492fdbdcb02ddf15606ba3839307ae5a0b9ce18260"),
        (["s2", "--n", "64", "--m", "15"],
         "00ca80afbb765a81eb0ad01c4ca1a65b3af812122608fa78fa80b24c80c4cb57"),
        (["sk", "--n", "8", "--k", "3", "--m", "35", "--seed", "7"],
         "29fdb0ff555d2cb6603b72d017302e353244fd79f50d8140221f7c5baf6047bc"),
    ],
    ids=["s2-16-6", "s2-64-15", "sk-8-3-35"],
)
def test_artifact_bytes_are_pinned(tmp_path, capsys, args, sha256):
    path = tmp_path / "cover.json"
    assert main(["build", "--poly", *args, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_unserializable_cover_rejected():
    from symcover.cover2d import initial_cover

    with pytest.raises(ValueError, match="modulus"):
        serialize.cover_to_dict(initial_cover(4))


def test_json_is_plain_data(tmp_path):
    cover = build_sk_cover(6, 2, M6, seed=0)
    path = tmp_path / "c.json"
    serialize.dump(serialize.cover_to_dict(cover), path)
    raw = json.loads(path.read_text())
    assert isinstance(raw["items"], list)
    assert isinstance(raw["items"][0]["parts"][0], list)
