"""Versioned JSON artifacts: covers are written and read, circuits are
only written (no command takes a circuit in).

One self-describing schema for covers of every k: the file carries the
modulus with its factorization and the construction metadata, so a
verifier never has to re-derive parameters from flags.  A dump is exactly
`json.dumps(data, sort_keys=True)` and a newline, encoded by the stdlib a
slice of a top-level list at a time.  The reader takes any JSON layout, so
files written with indentation read the same.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import sys
from pathlib import Path

from .zmod import Modulus, factorize
from .coverkd import Box, WeightedBoxCover, mask_of, members
from .circuit import SigmaPiSigmaCircuit

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Raised when a JSON artifact does not match the expected shape."""


def _mod_fields(mod: Modulus) -> dict:
    return {"m": mod.m, "factors": [list(f) for f in mod.factors]}


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


def _items(records: list, n: int, k: int, m: int) -> list:
    """The items, read and checked one by one, so the first item at fault
    is the one named.  One C-level pass first types every index; each part
    is typed on its own only if that pass found a non-int or could not
    read an item, and then the loop meets the same fault."""
    chain = itertools.chain.from_iterable
    try:
        typed = {*map(type, chain(chain(map(operator.itemgetter("parts"), records))))} <= {int}
    except (KeyError, TypeError):
        typed = False
    items = []
    # one mask per distinct index list, shared by every item that names
    # it; only its first occurrence is range-checked
    masks: dict[tuple[int, ...], int] = {}
    for pos, d in enumerate(records):
        parts, w = d["parts"], d["weight"]
        if len(parts) != k:
            raise SchemaError(f"item {pos} has {len(parts)} parts, k = {k}")
        if type(w) is not int or not 1 <= w < m:
            raise SchemaError(f"item {pos} weight {w!r} is not in 1..{m - 1}")
        box = []
        for p in parts:
            # before the lookup: (True,) == (1,)
            if not typed and not {*map(type, p)} <= {int}:
                raise SchemaError(f"item {pos} has an index outside 1..{n}: {p}")
            if (key := tuple(p)) not in masks:
                top = max(p, default=0)
                if p and not (1 <= min(p) and top <= n):
                    raise SchemaError(f"item {pos} has an index outside 1..{n}: {p}")
                try:
                    masks[key] = mask_of(p, top)
                except MemoryError:
                    raise SchemaError(f"not enough memory to mask a part of n = {n}") from None
                if masks[key].bit_count() != len(p):
                    raise SchemaError(f"item {pos} repeats an index in part {p}")
            box.append(masks[key])
        items.append((Box(tuple(box)), w))
    return items


def cover_from_dict(data: dict) -> WeightedBoxCover:
    """Read either cover kind, rejecting anything the checks could
    misread: a schema version or kind it does not know, n < 2, m < 2,
    a header number that is not an int (true and 1.0 equal 1), stored
    factors that do not factor m (the checks would run against
    another modulus), k outside 2..n, n**k beyond any table's size, a
    part count other than k, an index outside 1..n (it would alias into
    a neighbouring cell) or repeated in its part (it would be judged as
    written once), a weight outside 1..m-1, weights summing to 2**64 or
    more (a cell count would overflow the check's widest field), or a
    meta that is not an object (a missing one reads as {}).  Items are
    read in one loop, and a refused one is the first item at fault."""
    try:
        if type(version := data["schema_version"]) is not int or version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {version}")
        kind, n, m = data["kind"], data["n"], data["m"]
        if kind not in ("rect", "box"):
            raise SchemaError(f"artifact kind {kind!r} is not rect or box")
        if type(n) is not int or n < 2:
            raise SchemaError(f"n must be an integer >= 2, got {n!r}")
        if type(m) is not int or m < 2:
            raise SchemaError(f"modulus must be an integer >= 2, got {m!r}")
        mod = factorize(m)
        factors = data["factors"]  # equal is not enough: 1.0 == True == 1
        if factors != [list(f) for f in mod.factors] or {*map(type, sum(factors, []))} != {int}:
            raise SchemaError(f"stored factors {factors} do not factor m = {m}")
        k = data["k"]
        if type(k) is not int or k < 2 or (kind == "rect" and k != 2):
            raise SchemaError(f"a {kind} cover cannot have k = {k!r}")
        # n >= 2, so k >= 64 alone exceeds it, and no huge power is computed
        if k >= 64 or n**k > sys.maxsize:
            raise SchemaError(f"n**k = {n}**{k} cells is more than any table can hold")
        if k > n:
            raise SchemaError(f"k = {k} exceeds n = {n}: no distinct-index tuples")
        meta = data.get("meta", {})
        if type(meta) is not dict:
            raise SchemaError(f"meta must be a JSON object, not {type(meta).__name__}")
        items = _items(data["items"], n, k, m)
        # the check counts cells in fields of at most 64 bits
        total = sum(map(operator.itemgetter(1), items))
        if total >= 2**64:
            raise SchemaError(f"weights sum to {total} >= 2**64: a cell count could overflow")
        return WeightedBoxCover(n, k, mod, items, meta)
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
    one top-level value at a time.  A write that fails removes the file
    it opened, so no partial artifact is left."""
    fh = open(path, "w")
    try:
        with fh:  # closing flushes, so a failed close is a failed write too
            if type(data) is dict and {*map(type, data)} == {str}:
                for pos, key in enumerate(sorted(data)):
                    fh.write(f"{', ' if pos else '{'}{_ENCODER.encode(key)}: ")
                    fh.writelines(_text(data[key]))
                fh.write("}")
            else:
                fh.writelines(_text(data))
            fh.write("\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _object(pairs: list) -> dict:
    """A JSON object that names one value per key; the first key it repeats is refused."""
    if len(obj := dict(pairs)) < len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise SchemaError(f"JSON object repeats the key {key!r}")
    return obj


def load(path: str | Path, digest=None) -> dict:
    """Parse a JSON artifact; `digest` (a hashlib object), if given, is
    updated with exactly the bytes that were parsed.  Text that is not JSON,
    nests too deeply, is too large to parse or repeats a key is a SchemaError."""
    try:
        raw = Path(path).read_bytes()
        if digest is not None:
            digest.update(raw)
        return json.loads(raw, object_pairs_hook=_object)
    except MemoryError:
        raise SchemaError(f"not enough memory to parse {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"JSON nested too deeply to parse: {path}") from None
