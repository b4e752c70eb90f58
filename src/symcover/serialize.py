"""Versioned JSON artifacts for covers and circuits.

One self-describing schema for covers of every k: the file carries the
modulus with its factorization and the construction metadata, so a
verifier never has to re-derive parameters from flags.  Dumping is
deterministic (sorted keys, sorted index lists, fixed indentation):
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
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
    misread: n < 2, a part count other than k, an index outside 1..n
    (it would alias into a neighbouring cell), a weight outside
    1..m-1, or stored factors that do not factor m."""
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
        mod = _mod_from(data)
        indices = frozenset(range(1, n + 1))
        items = []
        for pos, d in enumerate(data["items"]):
            parts, w = d["parts"], d["weight"]
            if len(parts) != k:
                raise SchemaError(f"item {pos} has {len(parts)} parts, k = {k}")
            if type(w) is not int or not 1 <= w < mod.m:
                raise SchemaError(f"item {pos} weight {w!r} is not in 1..{mod.m - 1}")
            box = Box(tuple(frozenset(p) for p in parts))
            for p, part in zip(parts, box.parts):
                if not (part <= indices and {*map(type, p)} <= {int}):
                    raise SchemaError(f"item {pos} has an index outside 1..{n}: {p}")
            items.append((box, w))
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


def load(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
