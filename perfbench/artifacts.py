"""Read cover artifacts back, recompute their sizes, and make mutants.

Everything here works on the artifact's JSON alone and imports nothing
from symcover, so the benchmark's checks do not share code with the
program they judge.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from pathlib import Path


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def dump(data: dict, path: Path) -> None:
    """Same layout as the program's own writer: sorted keys, indent 2."""
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sizes(data: dict) -> dict[str, int]:
    """products = r items, gate_total = 1 + r + sum of part counts,
    graph_model_count = sum of weights (the repetition-weighted count)."""
    items = data["items"]
    return {
        "products": len(items),
        "gate_total": 1 + len(items) + sum(len(it["parts"]) for it in items),
        "graph_model_count": sum(it["weight"] for it in items),
    }


def item_multiset_sha256(data: dict) -> str:
    """sha256 over the sorted item encodings: blind to item order only."""
    lines = sorted(json.dumps([it["parts"], it["weight"]]) for it in data["items"])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cell_visits(data: dict) -> int:
    """Sum of |R||C| over rectangles: the cells the s2 verifier adds up."""
    if data["kind"] != "rect":
        return 0
    return expand_terms(data)


def expand_terms(data: dict) -> int:
    """The expansion's budget estimate: sum over items of prod |part|."""
    return sum(math.prod(len(p) for p in it["parts"]) for it in data["items"])


def prime_powers(m: int) -> list[int]:
    """Prime-power factors of m by trial division."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    if m > 1:
        out.append(m)
    return out


def stands_for(target: int, value: int, qs: list[int]) -> bool:
    """value agrees with target modulo some q and is 0 modulo every q
    where it disagrees: the unit-pattern test for target 1, and
    "0 mod m" for target 0."""
    agree = False
    for q in qs:
        if value % q == target % q:
            agree = True
        elif value % q:
            return False
    return agree


def coverage(items: list[tuple[list[set[int]], int]], cell: tuple[int, ...]) -> int:
    return sum(w for parts, w in items if all(j in p for j, p in zip(cell, parts)))


def drop_one_item(
    data: dict, rng: random.Random, tries: int = 64, cells_per_item: int = 16
) -> tuple[dict, int, tuple[int, ...]]:
    """A copy of the cover with one seeded item removed, plus a witness.

    The witness is a cell of the dropped item whose coverage, counted
    directly from the artifact, stands for its target with the item and
    no longer does without it, so a correct verifier must reject the
    mutant.  Items whose removal happens to keep every sampled cell
    valid are passed over for the next seeded choice.
    """
    qs = prime_powers(data["m"])
    items = [([set(p) for p in it["parts"]], it["weight"]) for it in data["items"]]
    for index in rng.sample(range(len(items)), min(tries, len(items))):
        parts, weight = items[index]
        for _ in range(cells_per_item):
            cell = tuple(rng.choice(sorted(p)) for p in parts)
            target = 0 if len(set(cell)) < len(cell) else 1
            count = coverage(items, cell)
            if stands_for(target, count, qs) and not stands_for(target, count - weight, qs):
                mutant = dict(data, items=data["items"][:index] + data["items"][index + 1:])
                return mutant, index, cell
    raise ValueError("no item found whose removal breaks a checked cell")


def wrong_modulus(data: dict, m: int) -> dict:
    """Claim modulus m while keeping the stored factorization."""
    return dict(data, m=m)


def first_index_to_zero(data: dict) -> dict:
    """Rewrite every index n in each item's first part to 0."""
    n = data["n"]
    mutant = copy.deepcopy(data)
    for it in mutant["items"]:
        it["parts"][0] = sorted(0 if i == n else i for i in it["parts"][0])
    return mutant
