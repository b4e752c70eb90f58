"""Versioned JSON artifacts for covers and circuits.

One self-describing schema for covers of every k: the file carries the
modulus with its factorization and the construction metadata, so a
verifier never has to re-derive parameters from flags.  Dumping is
deterministic (sorted keys, sorted index lists, fixed indentation):
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .zmod import Modulus, factorize
from .coverkd import Box, WeightedBoxCover
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


def _mod_from(data: dict) -> Modulus:
    """The modulus the artifact names, refactorized: stored factors that
    disagree with it would have the checks run against another modulus."""
    m = data["m"]
    if type(m) is not int or m < 2:
        raise SchemaError(f"modulus must be an integer >= 2, got {m!r}")
    mod = factorize(m)
    if data["factors"] != [list(f) for f in mod.factors]:
        raise SchemaError(f"stored factors {data['factors']} do not factor m = {m}")
    return mod


def cover_to_dict(cover: WeightedBoxCover) -> dict:
    """kind "rect" for k = 2 covers, "box" otherwise."""
    if cover.mod is None:
        raise ValueError("only covers with a modulus are serialized")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rect" if cover.k == 2 else "box",
        "n": cover.n,
        "k": cover.k,
        **_mod_fields(cover.mod),
        "items": [
            {"parts": [sorted(p) for p in box.parts], "weight": w}
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
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {data['schema_version']}")
        kind, n, k = data["kind"], data["n"], data["k"]
        if kind not in ("rect", "box"):
            raise SchemaError(f"unknown cover kind {kind!r}")
        if type(n) is not int or n < 2:
            raise SchemaError(f"n must be an integer >= 2, got {n!r}")
        if type(k) is not int or k < 2 or (kind == "rect" and k != 2):
            raise SchemaError(f"a {kind} cover cannot have k = {k!r}")
        # n >= 2, so k >= 64 alone exceeds it, and no huge power is computed
        if k >= 64 or n**k > sys.maxsize:
            raise SchemaError(f"n**k = {n}**{k} cells is more than any table can hold")
        if k > n:
            raise SchemaError(f"k = {k} exceeds n = {n}: no distinct-index tuples")
        mod = _mod_from(data)
        items = []
        for pos, d in enumerate(data["items"]):
            parts, w = d["parts"], d["weight"]
            if len(parts) != k:
                raise SchemaError(f"item {pos} has {len(parts)} parts, k = {k}")
            if type(w) is not int or not 1 <= w < mod.m:
                raise SchemaError(f"item {pos} weight {w!r} is not in 1..{mod.m - 1}")
            box = Box(tuple(frozenset(p) for p in parts))
            for p, part in zip(parts, box.parts):
                if not (
                    {*map(type, p)} <= {int}
                    and (not part or 1 <= min(part) and max(part) <= n)
                ):
                    raise SchemaError(f"item {pos} has an index outside 1..{n}: {p}")
                if len(part) != len(p):
                    raise SchemaError(f"item {pos} repeats an index in part {p}")
            items.append((box, w))
        # the check counts cells in fields of at most 64 bits
        total = sum(w for _, w in items)
        if total >= 2**64:
            raise SchemaError(f"weights sum to {total} >= 2**64: a cell count could overflow")
        return WeightedBoxCover(n, k, mod, items, data.get("meta", {}))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed cover artifact: {exc}") from exc


def circuit_to_dict(c: SigmaPiSigmaCircuit) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "circuit",
        "n": c.vars.n,
        "groups": list(c.vars.groups),
        **_mod_fields(c.mod),
        "gates": [
            {
                "repetition": g.repetition,
                "forms": [
                    [[grp, idx, coef] for (grp, idx), coef in sorted(f.coeffs.items())]
                    for f in g.forms
                ],
            }
            for g in c.gates
        ],
    }


def circuit_from_dict(data: dict) -> SigmaPiSigmaCircuit:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {data['schema_version']}")
        if data["kind"] != "circuit":
            raise SchemaError(f"not a circuit artifact: kind {data['kind']!r}")
        mod = _mod_from(data)
        space = VariableSpace(tuple(data["groups"]), data["n"])
        gates = []
        for g in data["gates"]:
            forms = [
                LinearForm({(grp, idx): coef for grp, idx, coef in triples})
                for triples in g["forms"]
            ]
            gates.append(Gate(forms, repetition=g["repetition"]))
        return SigmaPiSigmaCircuit(mod, space, gates)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed circuit artifact: {exc}") from exc


def dump(data: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def load(path: str | Path, digest=None) -> dict:
    """Parse a JSON artifact; `digest` (a hashlib object), if given, is
    updated with exactly the bytes that were parsed."""
    raw = Path(path).read_bytes()
    if digest is not None:
        digest.update(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
