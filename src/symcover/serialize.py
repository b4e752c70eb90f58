"""Versioned JSON artifacts for covers and circuits.

One self-describing schema for covers of every k: the file carries the
modulus with its factorization and the construction metadata, so a
verifier never has to re-derive parameters from flags.  A dump is exactly
`json.dumps(data, sort_keys=True, indent=2)` and a newline.  The stdlib
encodes every value but cover items and circuit gates: one record template
writes those a record at a time and reuses the text of shared parts and forms.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .zmod import Modulus, factorize
from .coverkd import Box, WeightedBoxCover, mask_of, members
from .circuit import Gate, SigmaPiSigmaCircuit, VariableSpace

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Raised when a JSON artifact does not match the expected shape."""


def _mod_fields(mod: Modulus) -> dict:
    return {"m": mod.m, "factors": [list(f) for f in mod.factors]}


def _header(data: dict, kinds: tuple[str, ...]) -> tuple[str, int, Modulus]:
    """The fields every artifact leads with: the schema version, a kind
    among kinds, n >= 2, and the modulus the artifact names, refactorized:
    stored factors that disagree with it would have the checks run against
    another modulus."""
    if data["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {data['schema_version']}")
    kind, n, m = data["kind"], data["n"], data["m"]
    if kind not in kinds:
        raise SchemaError(f"artifact kind {kind!r} is not {' or '.join(kinds)}")
    if type(n) is not int or n < 2:
        raise SchemaError(f"n must be an integer >= 2, got {n!r}")
    if type(m) is not int or m < 2:
        raise SchemaError(f"modulus must be an integer >= 2, got {m!r}")
    mod = factorize(m)
    if data["factors"] != [list(f) for f in mod.factors]:
        raise SchemaError(f"stored factors {data['factors']} do not factor m = {m}")
    return kind, n, mod


def cover_to_dict(cover: WeightedBoxCover) -> dict:
    """kind "rect" for k = 2 covers, "box" otherwise.  Equal parts share
    one ascending list of one table's ints, so the writer can reuse its text."""
    if cover.mod is None:
        raise ValueError("only covers with a modulus are serialized")
    table = [*range(cover.n + 1)]
    listed = functools.cache(lambda mask: members(mask, table))  # the memo dies with this call
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rect" if cover.k == 2 else "box",
        "n": cover.n,
        "k": cover.k,
        **_mod_fields(cover.mod),
        "items": [
            {"parts": [*map(listed, box.parts)], "weight": w}
            for box, w in cover.items
        ],
        "meta": cover.meta,
    }


def cover_from_dict(data: dict) -> WeightedBoxCover:
    """Read either cover kind, rejecting anything the checks could
    misread: n < 2, k outside 2..n, n**k beyond any table's size, a
    part count other than k, an index outside 1..n (it would alias into
    a neighbouring cell) or repeated in its part (it would be judged as
    written once), a weight outside 1..m-1, weights summing to 2**64 or
    more (a cell count would overflow the check's widest field), or
    stored factors that do not factor m."""
    try:
        kind, n, mod = _header(data, ("rect", "box"))
        k = data["k"]
        if type(k) is not int or k < 2 or (kind == "rect" and k != 2):
            raise SchemaError(f"a {kind} cover cannot have k = {k!r}")
        # n >= 2, so k >= 64 alone exceeds it, and no huge power is computed
        if k >= 64 or n**k > sys.maxsize:
            raise SchemaError(f"n**k = {n}**{k} cells is more than any table can hold")
        if k > n:
            raise SchemaError(f"k = {k} exceeds n = {n}: no distinct-index tuples")
        items = []
        # one mask per distinct index list, shared by every item that names
        # it; only its first occurrence is range-checked
        masks: dict[tuple[int, ...], int] = {}
        for pos, d in enumerate(data["items"]):
            parts, w = d["parts"], d["weight"]
            if len(parts) != k:
                raise SchemaError(f"item {pos} has {len(parts)} parts, k = {k}")
            if type(w) is not int or not 1 <= w < mod.m:
                raise SchemaError(f"item {pos} weight {w!r} is not in 1..{mod.m - 1}")
            box = []
            for p in parts:
                # before the lookup: (True,) == (1,)
                if not {*map(type, p)} <= {int}:
                    raise SchemaError(f"item {pos} has an index outside 1..{n}: {p}")
                if (key := tuple(p)) not in masks:
                    if p and not (1 <= min(p) and max(p) <= n):
                        raise SchemaError(f"item {pos} has an index outside 1..{n}: {p}")
                    try:
                        masks[key] = mask_of(p)
                    except MemoryError:
                        raise SchemaError(f"not enough memory to mask a part of n = {n}") from None
                    if masks[key].bit_count() != len(p):
                        raise SchemaError(f"item {pos} repeats an index in part {p}")
                box.append(masks[key])
            items.append((Box(tuple(box)), w))
        # the check counts cells in fields of at most 64 bits
        total = sum(w for _, w in items)
        if total >= 2**64:
            raise SchemaError(f"weights sum to {total} >= 2**64: a cell count could overflow")
        return WeightedBoxCover(n, k, mod, items, data.get("meta", {}))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed cover artifact: {exc}") from exc


def circuit_to_dict(c: SigmaPiSigmaCircuit) -> dict:
    """Gates that share a form share one list of its [group, index,
    coefficient] triples, so the writer can reuse its text."""
    triples: dict[int, list] = {}  # by id: the forms outlive this call

    def form_list(f: dict) -> list:
        if id(f) not in triples:
            triples[id(f)] = [[grp, idx, coef] for (grp, idx), coef in sorted(f.items())]
        return triples[id(f)]

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "circuit",
        "n": c.vars.n,
        "groups": list(c.vars.groups),
        **_mod_fields(c.mod),
        "gates": [
            {"repetition": g.repetition, "forms": [*map(form_list, g.forms)]}
            for g in c.gates
        ],
    }


def circuit_from_dict(data: dict) -> SigmaPiSigmaCircuit:
    """Read a circuit, rejecting n < 2, groups that are not distinct
    strings, a group not in groups, an index outside 1..n, a coefficient
    outside 0..m-1, a repetition below 1, a variable repeated within one
    form (a dict would merge it), or stored factors that do not factor m.
    A variable shared by two forms of a gate is left to
    `expand_coefficients`, which rejects it as not multilinear."""
    try:
        _, n, mod = _header(data, ("circuit",))
        groups = data["groups"]
        if type(groups) is not list or not {*map(type, groups)} <= {str} or (
            len(set(groups)) != len(groups)
        ):
            raise SchemaError(f"groups must be a list of distinct strings, got {groups!r}")
        known = set(groups)
        gates = []
        for pos, g in enumerate(data["gates"]):
            rep = g["repetition"]
            if type(rep) is not int or rep < 1:
                raise SchemaError(f"gate {pos} repetition {rep!r} is not an integer >= 1")
            forms = []
            for triples in g["forms"]:
                coeffs: dict[tuple[str, int], int] = {}
                for grp, idx, coef in triples:
                    if grp not in known:
                        raise SchemaError(f"gate {pos} names group {grp!r}, not in {groups}")
                    if type(idx) is not int or not 1 <= idx <= n:
                        raise SchemaError(f"gate {pos} has an index outside 1..{n}: {idx!r}")
                    if type(coef) is not int or not 0 <= coef < mod.m:
                        raise SchemaError(
                            f"gate {pos} coefficient {coef!r} is not in 0..{mod.m - 1}"
                        )
                    coeffs[grp, idx] = coef
                if len(coeffs) != len(triples):
                    raise SchemaError(f"gate {pos} repeats a variable within one form")
                forms.append(coeffs)
            gates.append(Gate(forms, repetition=rep))
        return SigmaPiSigmaCircuit(mod, VariableSpace(tuple(groups), n), gates)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed circuit artifact: {exc}") from exc


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_RECORDS = ({"parts", "weight"}, {"forms", "repetition"})  # cover items, circuit gates


def _json(value, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` nested at `indent`: the
    encoder escapes each newline in a string, so each one it writes starts a line."""
    return _ENCODER.encode(value).replace("\n", "\n" + indent)


class _Memo(dict):
    """A dump's texts of ints and strs by value."""

    def __missing__(self, value: int | str) -> str:
        self[value] = text = encode_basestring_ascii(value) if type(value) is str else str(value)
        return text


def _leaf(value, indent: str, memo: _Memo, seen: dict) -> str:
    """One part, a non-empty list of ints, or one form, a non-empty list of
    [str, int, int] triples, written at C speed; anything else through _json.
    Leaves are shared, so `seen` marks each by id and keeps its text from its second sighting."""
    inner = indent + "  "
    types = {*map(type, value)} if type(value) is list else None
    if types == {int}:
        body = f",\n{inner}".join(map(memo.__getitem__, value))
    elif types == {list} and {*map(len, value)} == {3}:
        flat = [*itertools.chain.from_iterable(value)]
        if [*map(type, flat)] != [str, int, int] * len(value):
            return _json(value, indent)
        triple = f"[\n{inner}  %s,\n{inner}  %s,\n{inner}  %s\n{inner}]"
        body = f",\n{inner}".join([triple] * len(value)) % tuple(map(memo.__getitem__, flat))
    else:
        return _json(value, indent)
    text = f"[\n{inner}{body}\n{indent}]"
    seen[id(value)] = text if id(value) in seen else None
    return text


def _record(record, indent: str, memo: _Memo, seen: dict) -> str:
    """A cover item, exactly {"parts": <non-empty list>, "weight": int}, or a
    circuit gate, {"forms": <non-empty list>, "repetition": int}, through one
    template, each leaf through _leaf; anything else through _json."""
    if type(record) is dict and record.keys() in _RECORDS:
        (key, leaves), (count_key, count) = sorted(record.items())
        if type(leaves) is list and leaves and type(count) is int:
            inner = indent + "    "
            texts = [seen.get(id(leaf)) or _leaf(leaf, inner, memo, seen) for leaf in leaves]
            return (f'{{\n{indent}  "{key}": [\n{inner}' + f",\n{inner}".join(texts)
                    + f'\n{indent}  ],\n{indent}  "{count_key}": {count}\n{indent}}}')
    return _json(record, indent)


def dump(data, path: str | Path) -> None:
    """Write exactly `json.dumps(data, sort_keys=True, indent=2)` and a
    newline.  Each list of records in an artifact (items, gates) is streamed
    a record at a time, and every other value is left to the stdlib."""
    memo, seen = _Memo(), {}

    def streamed(value, indent: str):
        if type(value) is not list or not value:
            yield _json(value, indent)
            return
        inner = indent + "  "
        for pos, record in enumerate(value):
            yield f"{',' if pos else '['}\n{inner}{_record(record, inner, memo, seen)}"
        yield f"\n{indent}]"

    with open(path, "w") as fh:
        if type(data) is dict and data and {*map(type, data)} == {str}:
            for pos, key in enumerate(sorted(data)):
                fh.write(f"{',' if pos else '{'}\n  {encode_basestring_ascii(key)}: ")
                fh.writelines(streamed(data[key], "  "))
            fh.write("\n}")
        else:
            fh.writelines(streamed(data, ""))
        fh.write("\n")


def load(path: str | Path, digest=None) -> dict:
    """Parse a JSON artifact; `digest` (a hashlib object), if given, is
    updated with exactly the bytes that were parsed.  Text that is not
    JSON, or nests too deeply or is too large to parse, is a SchemaError."""
    try:
        raw = Path(path).read_bytes()
        if digest is not None:
            digest.update(raw)
        return json.loads(raw)
    except MemoryError:
        raise SchemaError(f"not enough memory to parse {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested too deeply to parse: {path}") from None
