"""Versioned JSON artifacts for covers and circuits.

One self-describing schema for covers of every k: the file carries the
modulus with its factorization and the construction metadata, so a
verifier never has to re-derive parameters from flags.  Dumping is
deterministic (sorted keys, sorted index lists, fixed indentation):
identical inputs produce byte-identical files, exactly the bytes of
`json.dumps(data, sort_keys=True, indent=2)` and a newline.
"""

from __future__ import annotations

import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .zmod import Modulus, factorize
from .coverkd import Box, WeightedBoxCover, mask_of, members
from .circuit import (
    Gate,
    LinearForm,
    SigmaPiSigmaCircuit,
    VariableSpace,
)

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

    def form_list(f: LinearForm) -> list:
        if id(f) not in triples:
            triples[id(f)] = [[grp, idx, coef] for (grp, idx), coef in sorted(f.coeffs.items())]
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
                forms.append(LinearForm(coeffs))
            gates.append(Gate(forms, repetition=rep))
        return SigmaPiSigmaCircuit(mod, VariableSpace(tuple(groups), n), gates)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed circuit artifact: {exc}") from exc


_SCALARS = {str, int, float, bool, type(None)}


def _scalar(value) -> str:
    """json.dumps(value), with an int's and a str's text made directly."""
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _members(value, inner: str) -> tuple[list[str], list, str]:
    """A non-empty dict's or list's members in order, keys sorted, each
    with the text that leads it (the opening bracket or a comma, the
    indent, the key), and the closing bracket."""
    if isinstance(value, dict):
        if {*map(type, value)} != {str}:
            raise TypeError(f"artifact keys must be str, got {[*value]!r}")
        keys = sorted(value)
        heads = [f",\n{inner}{encode_basestring_ascii(key)}: " for key in keys]
        heads[0] = "{" + heads[0][1:]
        return heads, [*map(value.__getitem__, keys)], "}"
    heads = [f",\n{inner}"] * len(value)
    heads[0] = "[" + heads[0][1:]
    return heads, value, "]"


class _Memo(dict):
    """A dump's memo: shared lists' texts by (id, indent), ints' texts by value."""

    def __missing__(self, i: int) -> str:
        self[i] = text = str(i)
        return text


def _text(value, indent: str, memo: _Memo) -> str:
    """The whole text of `value` nested at `indent`.  A list of scalars is
    joined at C speed, an int list from the memo's int texts.  Covers and
    circuits share equal parts and forms, so `memo` marks each int list and
    each list of [group, index, coefficient] triples by (id, indent) when
    first seen and keeps its text from the second sighting on."""
    if not value or not isinstance(value, (dict, list, tuple)):
        return _scalar(value)
    inner = indent + "  "
    form = False
    if not isinstance(value, dict):
        types = {*map(type, value)}
        if types <= _SCALARS:
            ints = types == {int}
            body = f",\n{inner}".join(map(memo.__getitem__ if ints else _scalar, value))
            text = f"[\n{inner}{body}\n{indent}]"
            return _mark(memo, value, indent, text) if ints else text
        # a form: a list of lists whose first holds a str, the group name
        form = types == {list} and str in map(type, value[0])
    heads, values, close = _members(value, inner)
    texts = [memo.get((id(item), inner)) or _text(item, inner, memo) for item in values]
    text = f"{''.join(map(str.__add__, heads, texts))}\n{indent}{close}"
    return _mark(memo, value, indent, text) if form else text


def _mark(memo: _Memo, value, indent: str, text: str) -> str:
    """Mark a value that may be shared when first seen; keep its text
    from the second sighting on."""
    key = (id(value), indent)
    memo[key] = text if key in memo else None
    return text


def _item(record, indent: str, memo: _Memo) -> str | None:
    """The text of a record that is exactly {"parts": <non-empty list of
    lists>, "weight": <int>}, a cover item, through one template, else None."""
    if type(record) is not dict or record.keys() != {"parts", "weight"}:
        return None
    parts, weight = record["parts"], record["weight"]
    if type(weight) is not int or type(parts) is not list or {*map(type, parts)} != {list}:
        return None
    inner = indent + "    "
    texts = [memo.get((id(part), inner)) or _text(part, inner, memo) for part in parts]
    return (f'{{\n{indent}  "parts": [\n{inner}' + f",\n{inner}".join(texts)
            + f'\n{indent}  ],\n{indent}  "weight": {weight}\n{indent}}}')


def _pieces(value, indent: str, memo: _Memo, depth: int):
    """The text of `value` in pieces: containers are streamed a member at
    a time down `depth` levels, and each member below, a record, is one piece."""
    if not value or not isinstance(value, (dict, list, tuple)):
        yield _text(value, indent, memo)
        return
    inner = indent + "  "
    heads, values, close = _members(value, inner)
    for head, item in zip(heads, values):
        yield head
        if depth > 1:
            yield from _pieces(item, inner, memo, depth - 1)
        else:
            yield _item(item, inner, memo) or _text(item, inner, memo)
    yield f"\n{indent}{close}"


def dump(data: dict, path: str | Path) -> None:
    """Write exactly `json.dumps(data, sort_keys=True, indent=2)` and a
    newline.  An artifact is a dict of fields and lists of records (items,
    gates, edges), streamed one record at a time, so its whole text is
    never held at once.  Keys must be str."""
    with open(path, "w") as fh:
        fh.writelines(_pieces(data, "", _Memo(), 2))
        fh.write("\n")


def load(path: str | Path, digest=None) -> dict:
    """Parse a JSON artifact; `digest` (a hashlib object), if given, is
    updated with exactly the bytes that were parsed.  Text that is not
    JSON, or nests too deeply for the parser, is a SchemaError."""
    raw = Path(path).read_bytes()
    if digest is not None:
        digest.update(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested too deeply to parse: {path}") from None
