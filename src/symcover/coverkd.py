"""Weighted k-dimensional box covers of the k-fold cross-monomial array.

The array cell (j_1, ..., j_k) stands for the k-linear monomial
x^1_{j_1} * ... * x^k_{j_k}.  A box is a product A_1 x ... x A_k of
index sets and corresponds to one k-linear multiplication.  The target
is the same unit-pattern multiplicity state as in two dimensions, with
"diagonal" generalized to "some two indices equal": those tuples must
never be covered at all.

The initial cover comes from a perfect hash family: a u x n matrix over
an alphabet of size b in which every k columns are separated (pairwise
distinct) by some row.  Per row i and injective pattern sigma the box
collects, in part l, the columns hashed to sigma(l) by row i; a tuple
of pairwise distinct indices is then covered once per separating row,
between 1 and u times, and tuples with a repeated index never.

A rectangle cover is the k = 2 case of a box cover, so the box types,
the transformation and the property check here serve every k; cover2d
builds its rectangles on them.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator
import random
import sys
from collections import defaultdict
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field

from .zmod import Modulus, astrong_coeff_status
from .sympoly import SymmetricPolynomial, bbr_construct


class ConstructionError(RuntimeError):
    """Raised when the hash-family search exceeds its round cap or a
    construction fails its closing exhaustive check."""


@dataclass(frozen=True)
class HashMatrix:
    """u x n matrix over {0..b-1} separating every k-subset of columns."""

    n: int
    k: int
    b: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def u(self) -> int:
        return len(self.rows)


def _separates(row: tuple[int, ...], subset: tuple[int, ...]) -> bool:
    """True if the row's entries on these columns (1-based) are distinct."""
    values = [row[j - 1] for j in subset]
    return len(set(values)) == len(values)


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def members(mask: int, values: Sequence | None = None) -> list:
    """The set bits of mask in ascending order, or the entries of values
    there: its binary digits, lowest first, as 0/1 bytes select the
    positions to keep, so a table for values makes no object per index."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_VALUES)
    return [*itertools.compress(itertools.count() if values is None else values, bits)]


def mask_of(indices: Collection[int]) -> int:
    """The int with bit j set for each index j >= 0: one "1" digit is
    placed per index, and the digits are read at once.  (Made as bytes:
    a bytearray repeat out of memory also prints a SystemError line.)"""
    digits = bytearray(b"0" * (max(indices, default=0) + 1))
    for j in indices:
        digits[j] = 49  # "1"
    return int(digits[::-1], 2)


@dataclass(frozen=True)
class Box:
    """A product of k index sets: bit j of part l is set when index j is in it."""

    parts: tuple[int, ...]

    @classmethod
    def of(cls, *parts: Collection[int]) -> "Box":
        """The box with these index sets as its parts."""
        return cls(tuple(map(mask_of, parts)))

    @property
    def rows(self) -> frozenset[int]:
        """First part's indices: a rectangle's row set."""
        return frozenset(members(self.parts[0]))

    @property
    def cols(self) -> frozenset[int]:
        """Second part's indices: a rectangle's column set."""
        return frozenset(members(self.parts[1]))

    @property
    def is_empty(self) -> bool:
        return not all(self.parts)

    def contains(self, tup: tuple[int, ...]) -> bool:
        return all(part >> j & 1 for j, part in zip(tup, self.parts))

    def intersect(self, other: "Box") -> "Box":
        return Box(tuple(a & b for a, b in zip(self.parts, other.parts)))


@dataclass
class WeightedBoxCover:
    """Multiset of weighted k-dimensional boxes over indices 1..n.

    mod is None for covers that exist before a modulus is chosen (the
    initial covers); such covers report raw counts.  Weighted covers
    keep weights canonical in 1..m-1.
    """

    n: int
    k: int
    mod: Modulus | None
    items: list[tuple[Box, int]]
    meta: dict = field(default_factory=dict)


@dataclass
class CellViolation:
    cell: tuple[int, ...]
    count: int
    reason: str


@dataclass
class PropertyReport:
    """Outcome of a cover property check; ok iff no violations."""

    ok: bool
    violations: list[CellViolation]
    checked: int
    sampled: bool = False  # every check is exhaustive

    def summary(self) -> str:
        head = "pass" if self.ok else f"fail ({len(self.violations)} violations)"
        return f"{head}: {self.checked} cells checked"


@dataclass
class HashReport:
    ok: bool
    failing_subsets: list[tuple[int, ...]]
    checked: int


def verify_hash_family(h: HashMatrix) -> HashReport:
    """Exhaustively check the separation property on all C(n, k) subsets."""
    failing = []
    checked = 0
    for subset in itertools.combinations(range(1, h.n + 1), h.k):
        checked += 1
        if not any(_separates(row, subset) for row in h.rows):
            failing.append(subset)
    return HashReport(not failing, failing, checked)


_MAX_ROUNDS = 4096  # candidate pools drawn before the search gives up


def build_hash_family(n: int, k: int, b: int, seed: int = 0) -> HashMatrix:
    """Construct a hash matrix separating every k-subset of 1..n.

    Each round draws 32 random candidate rows and keeps the one
    separating the most still-unseparated subsets (first wins ties),
    unless it separates none.  The unseparated subsets are tracked
    incrementally, the search stops as soon as none remain, and the
    result is re-verified exhaustively, so correctness never rests on a
    probabilistic argument.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if b < k:
        raise ValueError(f"alphabet size {b} cannot separate {k} columns")

    rng = random.Random(seed)
    uncovered = set(itertools.combinations(range(1, n + 1), k))
    total = len(uncovered)
    rows: list[tuple[int, ...]] = []
    for _ in range(_MAX_ROUNDS):
        if not uncovered:
            break
        candidates = [tuple(rng.randrange(b) for _ in range(n)) for _ in range(32)]
        gains = [sum(_separates(row, s) for s in uncovered) for row in candidates]
        gain = max(gains)
        best = candidates[gains.index(gain)]
        if gain == 0:
            continue  # a useless row would only inflate u, and d = u downstream
        rows.append(best)
        uncovered = {s for s in uncovered if not _separates(best, s)}
    if uncovered:
        raise ConstructionError(
            f"no perfect hash family after {_MAX_ROUNDS} rounds ({len(rows)} rows): "
            f"{len(uncovered)} of {total} subsets still unseparated"
        )

    result = HashMatrix(n, k, b, tuple(rows))
    report = verify_hash_family(result)
    if not report.ok:
        raise ConstructionError(
            f"incremental tracking disagrees with the exhaustive check: "
            f"{len(report.failing_subsets)} subsets unseparated"
        )
    return result


def initial_box_cover(h: HashMatrix, mod: Modulus | None = None) -> WeightedBoxCover:
    """One unit-weight box per (row, injective pattern) with no empty part.

    Part l of the box for (i, sigma) holds the columns hashed to
    sigma(l) by row i.  Parts of one box are pairwise disjoint, so a
    covered tuple has pairwise distinct indices; it is covered once per
    row separating it, hence between 1 and u times by the hash property.
    """
    items: list[tuple[Box, int]] = []
    for row in h.rows:
        by_value = [mask_of([j for j, x in enumerate(row, 1) if x == v]) for v in range(h.b)]
        for sigma in itertools.permutations(range(h.b), h.k):
            box = Box(tuple(by_value[v] for v in sigma))
            if not box.is_empty:
                items.append((box, 1))
    return WeightedBoxCover(h.n, h.k, mod, items, {"u": h.u, "b": h.b})


def box_multiplicity(cover: WeightedBoxCover, tup: tuple[int, ...]) -> int:
    """Weighted number of boxes containing the tuple, mod m when set."""
    if len(tup) != cover.k or not all(1 <= j <= cover.n for j in tup):
        raise ValueError(f"tuple {tup} outside (1..{cover.n})^{cover.k}")
    count = sum(w for box, w in cover.items if box.contains(tup))
    return count % cover.mod.m if cover.mod else count


def box_multiplicity_table(cover: WeightedBoxCover) -> dict[tuple[int, ...], int]:
    """Sparse table of all covered tuples; absent tuples have count 0."""
    counts = _counts(cover)
    table = {_cell(i, cover.n, cover.k): c for i, c in enumerate(counts) if c}
    if cover.mod:
        m = cover.mod.m
        return {tup: v % m for tup, v in table.items()}
    return table


def _transform(cover: WeightedBoxCover, f: SymmetricPolynomial) -> WeightedBoxCover:
    """Replace the cover by f's monomial intersections, for every k.

    One item per subset K of cover items with 1 <= |K| <= deg f and
    c_{|K|} != 0 whose intersection box is nonempty, carrying weight
    c_{|K|}.  Afterwards the multiplicity of any cell equals f
    evaluated at the cell's original covering count: of the subsets of
    size t, exactly C(w, t) intersect over the cell, where w is the
    original count.

    Enumeration is depth-first in item-index order, with index sets and
    item sets held as bitmasks.  meeting[i] is the set of items whose box
    meets box i in every part: the AND over parts l of the OR, over the
    indices j in part l of box i, of the items whose part l holds j.  A
    node's candidates are the items after its last one that are in
    meeting[] of every item on its path.  They are visited in increasing
    index order, and each gets the exact k-part intersection test.  An
    item left out misses some path item entirely in some part, so its
    intersection with the path would be empty anyway: the output, and
    its order, is that of scanning every later item.  For hash-family
    boxes, items from one hash row never meet (two distinct injective
    patterns disagree somewhere, and a column hashes to a single value
    per row), so they are never candidates of each other.
    """
    if f.ell != len(cover.items):
        raise ValueError(
            f"polynomial has {f.ell} variables, cover has {len(cover.items)} items"
        )
    if f.coeffs[0] != 0:
        raise ValueError(
            "constant term must be 0: it would cover every cell, "
            "repeated indices included"
        )
    if any(w != 1 for _, w in cover.items):
        raise ValueError("transformation expects a unit-weight cover")

    masks = [box.parts for box, _ in cover.items]
    listed = functools.cache(members)  # input parts repeat across items
    # holders[l][j]: the items whose part l holds index j
    holders = [[0] * (cover.n + 1) for _ in range(cover.k)]
    for idx, parts in enumerate(masks):
        for holder, part in zip(holders, parts):
            for j in listed(part):
                holder[j] |= 1 << idx
    meeting = []
    for parts in masks:
        meets = -1
        for holder, part in zip(holders, parts):
            meets &= functools.reduce(operator.or_, map(holder.__getitem__, listed(part)), 0)
        meeting.append(meets)
    out: list[tuple[Box, int]] = []
    # output boxes repeat few distinct parts (hash-family boxes above all),
    # so each distinct mask is kept once and shared; the dict dies with this call
    shared: dict[int, int] = {}

    def extend(cands: int, depth: int, current: tuple[int, ...]) -> None:
        size = depth + 1
        coeff = f.coeffs[size] if size <= f.degree else 0
        while cands:
            low = cands & -cands
            cands ^= low
            idx = low.bit_length() - 1  # cands now holds the candidates after idx
            merged = []
            for a, b in zip(current, masks[idx]):
                c = a & b
                if not c:
                    break
                merged.append(c)
            else:
                if coeff != 0:
                    out.append((Box(tuple(map(shared.setdefault, merged, merged))), coeff))
                if size < f.degree:
                    extend(cands & meeting[idx], size, tuple(merged))

    full = (1 << (cover.n + 1)) - 1
    extend((1 << len(masks)) - 1, 0, (full,) * cover.k)
    del extend  # the closure refers to itself; free meeting[] now, not at the next gc
    meta = dict(cover.meta)
    meta.update(h=len(cover.items), bbr_coeffs=list(f.coeffs), bbr_degree=f.degree)
    return WeightedBoxCover(cover.n, cover.k, f.mod, out, meta)


def transform_boxes(cover: WeightedBoxCover, f: SymmetricPolynomial) -> WeightedBoxCover:
    """The monomial-intersection transformation of a box cover."""
    return _transform(cover, f)


def field_width(total: int) -> int:
    """Bytes per packed field that hold any count up to total, so that no
    field carries into the next: 1, 2, 4 or 8, else as many as total needs."""
    return next((b for b in (1, 2, 4, 8) if total < 1 << 8 * b), -(-total.bit_length() // 8))


def _counts(cover: WeightedBoxCover) -> array.array:
    """Raw weighted counts of all n**k cells, flat and row-major: cell
    (j_1, ..., j_k) sits at index sum of (j_l - 1) * n**(k - l).

    Each row (j_1, ..., j_{k-1}) is one int of n fixed-width fields, wide
    enough for the sum of all weights, so no field carries into the next.
    An item's last part is packed with its weight in the field of each
    index it holds; the packed parts of items with equal first k - 1 parts
    are summed, and the sum is added to each row those parts span.  The
    rows' little-endian bytes are read back as one array of counts."""
    n, k = cover.n, cover.k
    total = sum(w for _, w in cover.items)
    width = field_width(total)
    if width > 8:
        raise ValueError(f"weights summing to {total} overflow a 64-bit count")
    packed: dict[tuple[int, int], int] = {}
    listed = functools.cache(members)  # the memo dies with this call
    by_heads: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for box, w in cover.items:
        key = (box.parts[-1], w)
        if key not in packed:
            flags = bin(key[0] >> 1)[:1:-1].encode().translate(_BIT_VALUES)
            fields = bytearray(n * width)
            fields[::width] = flags.ljust(n, b"\0")  # field j - 1 holds bit j
            packed[key] = int.from_bytes(fields, "little") * w
        by_heads[box.parts[:-1]] += packed[key]
    rows = [0] * n ** (k - 1)
    for heads, add in by_heads.items():
        bases = [0]
        for part in heads:
            bases = [b * n + j - 1 for b in bases for j in listed(part)]
        for b in bases:
            rows[b] += add
    counts = array.array(next(t for t in "BHILQ" if array.array(t).itemsize == width))
    counts.frombytes(b"".join(r.to_bytes(n * width, "little") for r in rows))
    if sys.byteorder == "big":
        counts.byteswap()
    return counts


def _cell(index: int, n: int, k: int) -> tuple[int, ...]:
    """The 1-based tuple at a flat index of _counts."""
    return tuple(index // n ** (k - 1 - l) % n + 1 for l in range(k))


def _repeated_cells(n: int, k: int) -> set[int]:
    """Flat indices of the tuples with some index repeated: each is a
    (k-1)-tuple u with an entry u[a] inserted again at a position b <= a
    (drop the first of a repeated pair to get u)."""
    strides = [n ** (k - 1 - l) for l in range(k)]
    return {
        sum(j * s for j, s in zip(u[:b] + (u[a],) + u[b:], strides))
        for u in itertools.product(range(n), repeat=k - 1)
        for b in range(k - 1)
        for a in range(b, k - 1)
    }


def _check_properties(cover: WeightedBoxCover) -> PropertyReport:
    """Exhaustive check of all n**k cells: repeated-index tuples must
    count 0 mod m, distinct-index tuples must carry the unit-pattern
    property.  Verdicts are computed once per count that occurs.  The
    repeated-index cells are judged one by one; the other cells are
    looked at one by one only when a count failing the unit pattern
    occurs among them."""
    if cover.mod is None:
        raise ValueError("cover has no modulus to verify against")
    mod, n, k = cover.mod, cover.n, cover.k
    counts = _counts(cover)
    repeated = {i: counts[i] for i in _repeated_cells(n, k)}
    for i in repeated:
        counts[i] = 1  # a unit-pattern count: only distinct-index cells can fail below
    bad0, bad1 = (
        {c for c in values if not astrong_coeff_status(target, c, mod)[0]}
        for target, values in ((0, set(repeated.values())), (1, set(counts)))
    )
    failing = {i: (c, 0) for i, c in repeated.items() if c in bad0}
    if bad1:
        cells = itertools.compress(itertools.count(), map(bad1.__contains__, counts))
        failing.update((i, (counts[i], 1)) for i in cells)
    reasons: dict[tuple[int, int], str] = {}
    violations = []
    for i in sorted(failing):
        c, target = failing[i]
        d = c % mod.m
        if (d, target) not in reasons:
            reasons[d, target] = (
                f"count {d} has residues {mod.residues(d)} per {mod}, target {target}"
            )
        violations.append(CellViolation(_cell(i, n, k), d, reasons[d, target]))
    return PropertyReport(not violations, violations, len(counts))


def verify_sk_properties(cover: WeightedBoxCover) -> PropertyReport:
    """Check every tuple of (1..n)^k: repeated-index tuples must count
    0 mod m, distinct-index tuples must carry the unit-pattern property."""
    return _check_properties(cover)


def build_sk_cover(n: int, k: int, mod: Modulus, seed: int = 0) -> WeightedBoxCover:
    """Hash family over 2k symbols -> initial boxes -> indicator
    polynomial -> transform.

    The indicator threshold is d = u (the row count), since u bounds
    every covered tuple's initial multiplicity.  Each kept row separates
    some k-subset, whose k! orderings give k! nonempty boxes, so the
    cover has more items than u.
    """
    mod.require_composite_nonprimepower()
    h = build_hash_family(n, k, 2 * k, seed=seed)
    base = initial_box_cover(h, mod)
    f = bbr_construct(mod, d=h.u, ell=len(base.items))
    result = transform_boxes(base, f)
    result.meta.update(d=h.u, seed=seed)
    return result


def rect_as_box_cover(cover: WeightedBoxCover) -> WeightedBoxCover:
    """A rectangle cover already is the k = 2 box cover; checks k only."""
    if cover.k != 2:
        raise ValueError(f"not a rectangle cover: k = {cover.k}")
    return cover
