"""Versioned JSON artifacts for covers and circuits.

One self-describing schema for covers of every k: the file carries the
modulus with its factorization and the construction metadata, so a
verifier never has to re-derive parameters from flags.  A dump is exactly
`json.dumps(data, sort_keys=True)` and a newline, encoded by the stdlib a
slice of a top-level list at a time.  The reader takes any JSON layout, so
files written with indentation read the same.
"""

from __future__ import annotations

import functools
import json
import sys
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
    one ascending list of one table's ints, so each distinct part is listed
    by one `members()` call."""
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
    coefficient] triples, so each distinct form's triples are listed once."""
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


_ENCODER = json.JSONEncoder(sort_keys=True)
# entries of a top-level list per encode call; the C encoder holds one str
# per int of a slice, so 256 s2 n = 512 items raised build's peak by 3 MB
SLICE = 16


def _text(value):
    """The text of `json.dumps(value, sort_keys=True)`; a list's comes SLICE
    entries at a time, so the text of all the items or gates is never held."""
    if type(value) is not list:
        yield _ENCODER.encode(value)
        return
    yield "["
    for i in range(0, len(value), SLICE):
        yield (", " if i else "") + _ENCODER.encode(value[i:i + SLICE])[1:-1]
    yield "]"


def dump(data, path: str | Path) -> None:
    """Write exactly `json.dumps(data, sort_keys=True)` and a newline,
    one top-level value at a time."""
    with open(path, "w") as fh:
        if type(data) is dict and {*map(type, data)} == {str}:
            for pos, key in enumerate(sorted(data)):
                fh.write(f"{', ' if pos else '{'}{_ENCODER.encode(key)}: ")
                fh.writelines(_text(data[key]))
            fh.write("}")
        else:
            fh.writelines(_text(data))
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
