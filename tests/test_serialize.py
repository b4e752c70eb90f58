import hashlib
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from symcover.cli import main
from symcover.zmod import factorize
from symcover.cover2d import build_s2_cover
from symcover.coverkd import Box, WeightedBoxCover, build_sk_cover, members
from symcover.circuit import (
    from_cover2d,
    from_coverkd,
    group_names,
    identify_variables_and_scale,
)
from symcover import serialize
from symcover.serialize import SchemaError

from naive_circuits import naive_ordered_snk_circuit, naive_snk_circuit

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
    # equal parts share one sorted list when written and one mask when read
    written = [p for item in data["items"] for p in item["parts"]]
    read = [p for box, _ in loaded.items for p in box.parts]
    distinct = len(set(read))
    assert distinct < len(read)
    assert len(set(map(id, written))) == len(set(map(id, read))) == distinct


def test_circuit_round_trip():
    # every kind of circuit the program builds is written whole: its
    # header, and each gate's repetition and forms decoded from the triples
    for circuit in (
        from_coverkd(build_sk_cover(6, 2, M6, seed=4)),
        from_coverkd(build_sk_cover(6, 3, M35, seed=1)),
        from_cover2d(build_s2_cover(8, M35)),
        naive_snk_circuit(5, 3, M6),
        naive_ordered_snk_circuit(4, 2, M6),
        identify_variables_and_scale(from_cover2d(build_s2_cover(8, M35)), M35),
    ):
        data = json.loads(json.dumps(serialize.circuit_to_dict(circuit)))
        assert (data["schema_version"], data["kind"]) == (1, "circuit")
        assert (data["n"], data["groups"]) == (circuit.vars.n, [*circuit.vars.groups])
        assert (data["m"], data["factors"]) == (circuit.mod.m, [*map(list, circuit.mod.factors)])
        gates = [
            (g["repetition"], [{(grp, idx): c for grp, idx, c in form} for form in g["forms"]])
            for g in data["gates"]
        ]
        assert gates == [(g.repetition, g.forms) for g in circuit.gates]


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


def _box_part_1():
    """A box cover whose first item's first part is [1]."""
    data = _box()
    data["items"][0]["parts"][0] = [1]
    return data


def _huge_m():
    return dict(_rect(), m=6 * 2**64, factors=[[2, 65], [3, 1]])


@pytest.mark.parametrize(
    "make, path, value, message",
    [
        (_rect, ["n"], 1, "n must be"),
        (_rect, ["n"], "4", "n must be"),
        (_box, ["n"], 6.0, "n must be"),
        (_box, ["k"], 1, "k = 1"),
        (_rect, ["k"], 3, "rect cover cannot have k = 3"),
        (_box, ["k"], 7, "k = 7 exceeds n = 6"),
        (_box, ["items", 0, "parts"], [[1], [2]], "2 parts, k = 3"),
        (_rect, ["items", 0, "parts", 0], [0], "outside 1..4"),
        (_rect, ["items", 0, "parts", 1], [5], "outside 1..4"),
        (_box, ["items", 0, "parts", 2], [1.0], "outside 1..6"),
        (_box, ["items", 0, "parts", 0], [1, 1], "repeats an index"),
        (_box_part_1, ["items", 1, "parts", 0], [True], "outside 1..6"),
        (_box_part_1, ["items", 1, "parts", 0], [1.0], "outside 1..6"),
        (_rect, ["items", 0, "weight"], 0, "not in 1..5"),
        (_rect, ["items", 0, "weight"], 6, "not in 1..5"),
        (_rect, ["items", 0, "weight"], 1.5, "not in 1..5"),
        (_rect, ["m"], 30, "do not factor m = 30"),
        (_box, ["factors"], [[5, 1], [7, 1], [1, 1]], "do not factor m = 35"),
        (_rect, ["m"], True, "modulus must be"),
        # each equals the int the header needs: True == 1.0 == 1
        (_rect, ["schema_version"], True, "unsupported schema_version True"),
        (_rect, ["schema_version"], 1.0, r"unsupported schema_version 1\.0"),
        (_rect, ["factors"], [[2.0, True], [3, 1.0]], "do not factor m = 6"),
        (_box, ["factors", 1], [7, True], "do not factor m = 35"),
        (_huge_m, ["items", 0, "weight"], 2**64, r">= 2\*\*64"),
        (_rect, ["items"], 3, "malformed cover artifact"),
        (_rect, ["items"], {"0": {"parts": [[1], [2]], "weight": 1}}, "malformed cover artifact"),
        (_rect, ["items", 1], [[1], [2]], "malformed cover artifact"),
        (_rect, ["items", 1], {"weight": 1}, "malformed cover artifact"),
        (_rect, ["items", 1], {"parts": [[1], [2]]}, "malformed cover artifact"),
        (_rect, ["items", 1, "parts", 0], None, "malformed cover artifact"),
        (_rect, ["items", 1, "parts", 1], 2, "malformed cover artifact"),
        (_rect, ["items", 1, "parts"], None, "malformed cover artifact"),
        (_rect, ["items", 1, "parts", 0], ["1"], "outside 1..4"),
        (_rect, ["items", 1, "parts", 1], [None], "outside 1..4"),
        (_rect, ["items", 1, "parts", 0], [[1]], "outside 1..4"),
        (_rect, ["items", 1, "parts", 1], "2", "outside 1..4"),
        # the whole-list type pass cannot read the second part: the first is
        # still refused for its index, not as malformed
        (_rect, ["items", 1, "parts"], [["1"], None], "outside 1..4"),
        (_rect, ["meta"], 5, "meta must be a JSON object, not int"),
        (_rect, ["meta"], [], "meta must be a JSON object, not list"),
        (_rect, ["meta"], "h", "meta must be a JSON object, not str"),
    ],
    ids=[
        "n-below-2", "n-not-int", "n-float", "k-below-2", "rect-k-not-2", "k-above-n",
        "part-count", "index-0", "index-n-plus-1", "index-not-int", "index-repeated",
        "bool-part-equal-to-a-read-part", "float-part-equal-to-a-read-part", "weight-0",
        "weight-m", "weight-not-int", "m-not-factored", "factors-not-of-m", "m-not-int",
        "schema-version-bool", "schema-version-float", "factors-not-int", "exponent-bool",
        "weights-beyond-count-field", "items-int", "items-dict", "item-list",
        "item-without-parts", "item-without-weight", "part-null", "part-int", "parts-null",
        "index-str", "index-null", "index-nested-list", "part-str", "index-str-before-null-part",
        "meta-int", "meta-list", "meta-str",
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


def test_reader_reads_a_missing_meta_as_empty():
    data = _rect()
    del data["meta"]
    assert serialize.cover_from_dict(data).meta == {}


def _item_fault(data: dict) -> str | None:
    """The reader's message for the first item at fault, found item by item
    and part by part, or None when every item reads."""
    n, k, m = data["n"], data["k"], data["m"]
    for pos, item in enumerate(data["items"]):
        parts, w = item["parts"], item["weight"]
        if len(parts) != k:
            return f"item {pos} has {len(parts)} parts, k = {k}"
        if type(w) is not int or not 1 <= w < m:
            return f"item {pos} weight {w!r} is not in 1..{m - 1}"
        for p in parts:
            if any(type(j) is not int or not 1 <= j <= n for j in p):
                return f"item {pos} has an index outside 1..{n}: {p}"
            if len(set(p)) != len(p):
                return f"item {pos} repeats an index in part {p}"
    return None


@st.composite
def _covers(draw, min_items=0):
    """Covers whose parts come from a small pool, so equal parts recur
    across items, with empty parts among them."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(2, min(4, n)))
    mod = draw(st.sampled_from([M6, M35, factorize(385)]))
    masks = st.integers(0, 2**n - 1).map(lambda bits: bits << 1)  # indices 1..n
    pool = draw(st.lists(masks, min_size=1, max_size=4))
    part = st.sampled_from(pool) | st.just(0) | masks
    items = draw(st.lists(st.tuples(st.lists(part, min_size=k, max_size=k),
                                    st.integers(1, mod.m - 1)),
                          min_size=min_items, max_size=8))
    return WeightedBoxCover(n, k, mod, [(Box(tuple(p)), w) for p, w in items], {"seed": 0})


@given(cover=_covers())
def test_reader_property_round_trip(cover):
    # read from text, so that no two part lists are one object
    data = json.loads(json.dumps(serialize.cover_to_dict(cover)))
    assert _item_fault(data) is None
    read = serialize.cover_from_dict(data)
    assert (read.n, read.k, read.mod, read.items, read.meta) == (
        cover.n, cover.k, cover.mod, cover.items, cover.meta)
    masks = [mask for box, _ in read.items for mask in box.parts]
    assert len({*map(id, masks)}) == len({*masks})


_FAULTS = ["index-0", "index-n-plus-1", "bool-index", "float-index", "repeated-index",
           "weight-0", "weight-m", "part-missing", "part-extra"]


def _put_fault(artifact: dict, cover: WeightedBoxCover, pos: int, slot: int, fault: str):
    """Put one fault of the kind named into item pos, at its part slot
    where the fault is in a part."""
    item = artifact["items"][pos]
    parts, part = item["parts"], item["parts"][slot]
    # a bool or float index equals an int one, so its part equals a valid part
    faulty = {
        "index-0": lambda: [0, *part],
        "index-n-plus-1": lambda: [*part, cover.n + 1],
        "bool-index": lambda: [True if j == 1 else j for j in part] if 1 in part else [True],
        "float-index": lambda: [float(part[0]), *part[1:]] if part else [1.0],
        "repeated-index": lambda: [*part, part[-1]] if part else [1, 1],
    }
    if fault in faulty:
        parts[slot] = faulty[fault]()
    elif fault.startswith("weight"):
        item["weight"] = 0 if fault == "weight-0" else cover.mod.m
    else:
        item["parts"] = parts[1:] if fault == "part-missing" else [*parts, part]


@given(cover=_covers(min_items=1), data=st.data(), fault=st.sampled_from(_FAULTS))
def test_reader_property_single_fault(cover, data, fault):
    artifact = json.loads(json.dumps(serialize.cover_to_dict(cover)))
    pos = data.draw(st.integers(0, len(cover.items) - 1))
    _put_fault(artifact, cover, pos, data.draw(st.integers(0, cover.k - 1)), fault)
    message = _item_fault(artifact)
    assert message.startswith(f"item {pos} ")
    with pytest.raises(SchemaError) as exc:
        serialize.cover_from_dict(artifact)
    assert str(exc.value) == message


@given(cover=_covers(min_items=2), data=st.data(),
       faults=st.lists(st.sampled_from(_FAULTS), min_size=2, max_size=2))
def test_reader_property_first_of_two_faults(cover, data, faults):
    # whatever kinds the two faults are, the one in the earlier item is named
    artifact = json.loads(json.dumps(serialize.cover_to_dict(cover)))
    where = st.lists(st.integers(0, len(cover.items) - 1), min_size=2, max_size=2, unique=True)
    positions = data.draw(where)
    for pos, fault in zip(positions, faults):
        _put_fault(artifact, cover, pos, data.draw(st.integers(0, cover.k - 1)), fault)
    message = _item_fault(artifact)
    assert message.startswith(f"item {min(positions)} ")
    with pytest.raises(SchemaError) as exc:
        serialize.cover_from_dict(artifact)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["s2", "--n", "16", "--m", "6"],
         "a210aad961b0ae4cf78473c8badf5bf5ec2876042b0b130946dea3bdfa10439b"),
        (["s2", "--n", "64", "--m", "15"],
         "a73e8fd5622afb51d7b586c13f23650493e8ea55d12043e2ed8b2f1d9d7f4116"),
        (["sk", "--n", "8", "--k", "3", "--m", "35", "--seed", "7"],
         "f01cb8b77121acc05616db170b9619016534f0bd32a0feaf2fb93bd92fc92dbc"),
        # the benchmark's three workloads
        (["s2", "--n", "2048", "--m", "6"],
         "fda0d5b05bd2e31561c2cd5585580619695a6eb5706c2d9d7d281a6c281a1f1d"),
        (["s2", "--n", "512", "--m", "35"],
         "357b91b9353f110828b663faceebebd7066154e19491f14da7d18509eedef73f"),
        (["sk", "--n", "10", "--k", "4", "--m", "385", "--seed", "0"],
         "6912c4813af80d533b8f9af7fd7e72f08a6ec05062bdac832f24961f04bfe8ba"),
    ],
    ids=["s2-16-6", "s2-64-15", "sk-8-3-35", "s2-2048-6", "s2-512-35", "sk-10-4-385"],
)
def test_artifact_bytes_are_pinned(tmp_path, capsys, args, sha256):
    path = tmp_path / "cover.json"
    assert main(["build", "--poly", *args, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["s2", "--n", "16", "--m", "6"],
         "da0546c6369283bed87dcd23c7ec2e725d2abaaaf1388d35d285dd3cc695c858"),
        (["s2", "--n", "64", "--m", "15"],
         "96c070e84c6c8bb7c7518817c23d75c40a7a308268cea8dece8de3afdbb4316a"),
        (["sk", "--n", "8", "--k", "3", "--m", "35", "--seed", "7"],
         "24687f3b100a67e897a2d276ad88feeea8cf1126326ddd9d4e134a07caa7a55f"),
        # the circuits of the benchmark's three workloads
        (["s2", "--n", "2048", "--m", "6"],
         "bc7db7e8f85a14e57c5e6f03636c564b2211ea508cc1501e8c9a0593869d086d"),
        (["s2", "--n", "512", "--m", "35"],
         "8663d2a2666529cc5b3526dff9abc5fc5813c376e4a2c8f627b541e7385d7f98"),
        (["sk", "--n", "10", "--k", "4", "--m", "385", "--seed", "0"],
         "bec1fade90e96cffa1a50d3d549000f03806d754849ef8e4f6f7950df4678705"),
    ],
    ids=["s2-16-6", "s2-64-15", "sk-8-3-35", "s2-2048-6", "s2-512-35", "sk-10-4-385"],
)
def test_circuit_bytes_are_pinned(tmp_path, capsys, args, sha256):
    path = tmp_path / "circuit.json"
    assert main(["build", "--poly", *args, "--out", str(tmp_path / "cover.json"),
                 "--circuit-out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


_int_lists = st.lists(st.integers(-(2**70), 2**70) | st.booleans(), min_size=1)
_scalars = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.floats() | st.text()
)
_values = st.recursive(
    _scalars | _int_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


_triple = st.tuples(st.text(), st.integers(), st.integers()).map(list)
_triples = st.lists(_triple, min_size=1, max_size=4)


@settings(deadline=None)
@given(value=_values, shared=st.lists(st.integers(), min_size=1), form=_triples)
@example(value={"\u00e9\n\"\\": [], "": {}, "k": [1, True, False, 2]}, shared=[3],
         form=[["x", 1, 2]])
def test_dump_writes_the_bytes_of_json_dumps(tmp_path_factory, value, shared, form):
    path = tmp_path_factory.getbasetemp() / "dump.json"
    records = [{"forms": [form, form], "v": value}, {"forms": [form]}, [form, value]]
    for data in (
        value,
        {"v": value, "s": shared, "t": [shared, {"u": shared}]},
        {"records": records, "again": records[:2], "form": form},
    ):
        serialize.dump(data, path)
        assert path.read_text() == json.dumps(data, sort_keys=True) + "\n"


def test_a_failed_dump_leaves_no_file(tmp_path):
    # "a" is written before "b" fails to encode; the old text was truncated
    path = tmp_path / "dump.json"
    path.write_text("old")
    with pytest.raises(TypeError):
        serialize.dump({"a": [1, 2], "b": object()}, path)
    assert not path.exists()


@given(pool=st.lists(_values, min_size=1, max_size=4),
       length=st.sampled_from([0, 1, serialize.SLICE, serialize.SLICE + 1,
                               2 * serialize.SLICE + 1]))
def test_dump_slices_top_level_lists_as_json_dumps(tmp_path_factory, pool, length):
    # a top-level list is written a slice at a time: lengths at and past each
    # seam, of entries cycled from a drawn pool
    path = tmp_path_factory.getbasetemp() / "slices.json"
    entries = [pool[i % len(pool)] for i in range(length)]
    for data in (entries, {"items": entries, "gates": entries[::-1], "n": length}):
        serialize.dump(data, path)
        assert path.read_text() == json.dumps(data, sort_keys=True) + "\n"


_odd_triple = st.one_of(
    st.tuples(st.text(), st.booleans(), st.integers()),
    st.tuples(st.text(), st.integers(), st.booleans()),
    st.tuples(st.text(), st.floats(), st.integers()),
    st.tuples(st.text(), st.integers(), st.floats()),
    st.tuples(st.integers() | st.booleans() | st.none(), st.integers(), st.integers()),
    st.tuples(st.text(), st.integers()),
    st.tuples(st.text(), st.integers(), st.integers(), st.integers()),
).map(list)
# a form with one triple spoiled
_some_triples = st.lists(_triple, max_size=2)
_odd_forms = st.tuples(_some_triples, _odd_triple, _some_triples).map(
    lambda form: [*form[0], form[1], *form[2]]
)


def _spoiled(record: dict):
    """One defect away from a cover item or a circuit gate: a third key or a
    missing one, a bool or float weight or repetition, empty parts or forms,
    or one part or form replaced by an empty list, a list holding a bool or
    a negative or huge int, a form with a bool or float index or coefficient,
    a group that is not a str or a triple of 2 or 4 entries, or a value that
    is not a list."""
    (key, leaves), (count_key, count) = sorted(record.items())

    def swapped(odd_leaf):
        return st.tuples(st.integers(0, len(leaves) - 1), odd_leaf).map(
            lambda swap: {key: [*leaves[:swap[0]], swap[1], *leaves[swap[0] + 1:]],
                          count_key: count}
        )

    return st.one_of(
        st.dictionaries(st.just("meta"), _scalars, min_size=1).map(lambda extra: record | extra),
        st.sampled_from([{key: leaves}, {count_key: count}]),
        (st.booleans() | st.floats()).map(lambda c: {key: leaves, count_key: c}),
        st.just({key: [], count_key: count}),
        swapped(st.just([]) | _int_lists | _scalars | st.dictionaries(st.text(), _scalars)),
        swapped(_odd_forms),  # a branch of its own, so that search finds it often
    )


@st.composite
def _records(draw):
    """Cover items, circuit gates and near misses of both, whose parts and
    forms are drawn from pools of lists, so one list is shared by id across
    records."""
    parts = draw(st.lists(st.lists(st.integers(1, 4096), max_size=6), min_size=1, max_size=4))
    forms = draw(st.lists(_triples, min_size=1, max_size=4))
    item = st.fixed_dictionaries({
        "parts": st.lists(st.sampled_from(parts), min_size=1, max_size=4),
        "weight": st.integers(1, 384),
    })
    gate = st.fixed_dictionaries({
        "forms": st.lists(st.sampled_from(forms), min_size=1, max_size=4),
        "repetition": st.integers(1, 384),
    })
    record = st.one_of(item, gate, item.flatmap(_spoiled), gate.flatmap(_spoiled))
    return parts, forms, draw(st.lists(record, max_size=6))


_form = [["x1", 1, 2], ["x2", 3, 0]]


@given(drawn=_records())
@example(drawn=([[1, 2]], [_form], [{"parts": [[1, 2]], "weight": 1},
                                    {"parts": [[1, 2]], "weight": 2}]))
@example(drawn=([[1]], [_form], [{"parts": [[1]], "weight": 1, "meta": None}, {"parts": [[1]]},
                                 {"parts": [], "weight": 1}, {"parts": [[]], "weight": True},
                                 {"parts": [3, [-1, 2**80, False]], "weight": 1.5}]))
@example(drawn=([[1]], [_form], [{"forms": [_form, _form], "repetition": 1},
                                 {"forms": [_form], "repetition": 2}]))
@example(drawn=([[1]], [_form], [
    {"forms": [_form, [["x1", True, 2]]], "repetition": 1},
    {"forms": [[["x1", 1, 2.0]]], "repetition": 1},
    {"forms": [[[1, 1, 2]]], "repetition": 1},
    {"forms": [[["x1", 1]]], "repetition": 1},
    {"forms": [[["x1", 1, 2, 3]]], "repetition": 1},
    {"forms": [_form, []], "repetition": 1},
    {"forms": [], "repetition": 1},
    {"forms": [_form], "repetition": False},
    {"forms": [_form], "repetition": 1, "meta": 0},
]))
def test_dump_writes_cover_items_as_json_dumps(tmp_path_factory, drawn):
    path = tmp_path_factory.getbasetemp() / "items.json"
    parts, forms, records = drawn
    for data in (
        records,
        {"items": records, "again": [records], "part": parts[0], "form": forms[0]},
        {"items": records, "gates": records[::-1], "meta": {"items": records}},
    ):
        serialize.dump(data, path)
        assert path.read_text() == json.dumps(data, sort_keys=True) + "\n"


@given(data=st.data())
def test_parts_are_listed_from_their_bits(data):
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(2, min(4, n)))
    masks = st.integers(0, 2**n - 1).map(lambda bits: bits << 1)  # indices 1..n
    pool = data.draw(st.lists(masks, min_size=1, max_size=3))
    part = st.sampled_from(pool) | masks
    items = data.draw(st.lists(st.tuples(st.lists(part, min_size=k, max_size=k),
                                         st.integers(1, 34)), max_size=6))
    cover = WeightedBoxCover(n, k, M35, [(Box(tuple(p)), w) for p, w in items])
    written = [p for item in serialize.cover_to_dict(cover)["items"] for p in item["parts"]]
    masks = [mask for box, _ in cover.items for mask in box.parts]
    assert written == [*map(members, masks)]
    # equal masks still share one list
    assert len({*map(id, written)}) == len({*masks})
    groups = group_names(k)
    for gate, (box, _) in zip(from_coverkd(cover).gates, cover.items):
        for g, form, mask in zip(groups, gate.forms, box.parts):
            assert [*form] == [(g, j) for j in members(mask)]


def test_circuit_forms_share_one_triple_list():
    circuit = from_coverkd(build_sk_cover(8, 3, M35, seed=4))
    data = serialize.circuit_to_dict(circuit)
    written = [f for g in data["gates"] for f in g["forms"]]
    forms = [f for g in circuit.gates for f in g.forms]
    assert len(set(map(id, written))) == len(set(map(id, forms))) < len(forms)


@pytest.mark.parametrize("data", [{1: 2}, {"a": [{"b": 1, 2: 3}]}], ids=["top", "nested"])
def test_dump_treats_keys_that_are_not_str_as_json_dumps(tmp_path, data):
    # the stdlib writes the int key 1 as "1", and cannot sort 2 against "b"
    path = tmp_path / "keys.json"
    try:
        text = json.dumps(data, sort_keys=True) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            serialize.dump(data, path)
    else:
        serialize.dump(data, path)
        assert path.read_text() == text


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
