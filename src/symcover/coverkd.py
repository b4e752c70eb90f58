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

import itertools
import random
from dataclasses import dataclass, field

from .zmod import Modulus, astrong_coeff_status
from .sympoly import SymmetricPolynomial, bbr_construct


class ConstructionError(RuntimeError):
    """Raised when a randomized search exceeds its resource cap."""


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

    def separates(self, row: int, subset: tuple[int, ...]) -> bool:
        """True if the row's entries on these columns (1-based) are distinct."""
        return _separates(self.rows[row], subset)


def _separates(row: tuple[int, ...], subset: tuple[int, ...]) -> bool:
    values = [row[j - 1] for j in subset]
    return len(set(values)) == len(values)


@dataclass(frozen=True)
class Box:
    parts: tuple[frozenset[int], ...]

    @property
    def rows(self) -> frozenset[int]:
        """First part: a rectangle's row set."""
        return self.parts[0]

    @property
    def cols(self) -> frozenset[int]:
        """Second part: a rectangle's column set."""
        return self.parts[1]

    @property
    def is_empty(self) -> bool:
        return any(not part for part in self.parts)

    def contains(self, tup: tuple[int, ...]) -> bool:
        return all(j in part for j, part in zip(tup, self.parts))

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
        if not any(h.separates(i, subset) for i in range(h.u)):
            failing.append(subset)
    return HashReport(not failing, failing, checked)


def build_hash_family(
    n: int,
    k: int,
    b: int,
    strategy: str = "greedy",
    seed: int = 0,
    max_rows: int = 4096,
) -> HashMatrix:
    """Construct a hash matrix separating every k-subset of 1..n.

    greedy: each round draws a pool of random candidate rows and keeps
    the one separating the most still-unseparated subsets (first wins
    ties).  randomized: appends every drawn row, useful only as a
    baseline.  Both track the unseparated subsets incrementally, stop
    as soon as none remain, and re-verify the result exhaustively, so
    correctness never rests on a probabilistic argument.
    """
    if b < k:
        raise ValueError(f"alphabet size {b} cannot separate {k} columns")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if strategy not in ("greedy", "randomized"):
        raise ValueError(f"unknown strategy {strategy!r}")

    rng = random.Random(seed)
    uncovered = set(itertools.combinations(range(1, n + 1), k))
    total = len(uncovered)
    rows: list[tuple[int, ...]] = []
    pool_size = 32 if strategy == "greedy" else 1
    rounds = 0
    while uncovered:
        if rounds >= max_rows:
            raise ConstructionError(
                f"no perfect hash family after {rounds} rounds ({len(rows)} rows): "
                f"{len(uncovered)} of {total} subsets still unseparated"
            )
        rounds += 1
        candidates = [
            tuple(rng.randrange(b) for _ in range(n)) for _ in range(pool_size)
        ]
        best = max(
            candidates,
            key=lambda row: sum(_separates(row, s) for s in uncovered),
        )
        gain = sum(_separates(best, s) for s in uncovered)
        if gain == 0 and strategy == "greedy":
            continue  # a useless row would only inflate u, and d = u downstream
        rows.append(best)
        uncovered = {s for s in uncovered if not _separates(best, s)}

    result = HashMatrix(n, k, b, tuple(rows))
    report = verify_hash_family(result)
    assert report.ok, "incremental tracking disagrees with exhaustive check"
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
        by_value: dict[int, frozenset[int]] = {}
        for v in range(h.b):
            by_value[v] = frozenset(j for j in range(1, h.n + 1) if row[j - 1] == v)
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


def _bitmask(indices: frozenset[int]) -> int:
    return sum(1 << i for i in indices)


def _unmask(mask: int) -> frozenset[int]:
    return frozenset(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")


def _transform(cover: WeightedBoxCover, f: SymmetricPolynomial) -> WeightedBoxCover:
    """Replace the cover by f's monomial intersections, for every k.

    One item per subset K of cover items with 1 <= |K| <= deg f and
    c_{|K|} != 0 whose intersection box is nonempty, carrying weight
    c_{|K|}.  Afterwards the multiplicity of any cell equals f
    evaluated at the cell's original covering count: of the subsets of
    size t, exactly C(w, t) intersect over the cell, where w is the
    original count.

    Enumeration is depth-first in item-index order (index sets held as
    bitmasks) and prunes a branch as soon as any part of its running
    intersection empties, so the output order is deterministic.  For
    hash-family boxes this kills all pairs drawn from one hash row (two
    distinct injective patterns disagree somewhere, and a column hashes
    to a single value per row).
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

    masks = [[_bitmask(part) for part in box.parts] for box, _ in cover.items]
    # most candidates die on the first part, so test it before the rest
    firsts = [mask[0] for mask in masks]
    rests = [mask[1:] for mask in masks]
    out: list[tuple[Box, int]] = []

    def extend(start: int, depth: int, current: tuple[int, ...]) -> None:
        size = depth + 1
        coeff = f.coeffs[size] if size <= f.degree else 0
        first, rest = current[0], current[1:]
        for idx in range(start, len(masks)):
            c = first & firsts[idx]
            if not c:
                continue
            merged = [c]
            for a, b in zip(rest, rests[idx]):
                c = a & b
                if not c:
                    break
                merged.append(c)
            else:
                if coeff != 0:
                    out.append((Box(tuple(_unmask(x) for x in merged)), coeff))
                if size < f.degree:
                    extend(idx + 1, size, tuple(merged))

    full = (1 << (cover.n + 1)) - 1
    extend(0, 0, (full,) * cover.k)
    meta = dict(cover.meta)
    meta.update(h=len(cover.items), bbr_coeffs=list(f.coeffs), bbr_degree=f.degree)
    return WeightedBoxCover(cover.n, cover.k, f.mod, out, meta)


def transform_boxes(cover: WeightedBoxCover, f: SymmetricPolynomial) -> WeightedBoxCover:
    """The monomial-intersection transformation of a box cover."""
    return _transform(cover, f)


def _counts(cover: WeightedBoxCover) -> list[int]:
    """Raw weighted counts of all n**k cells, flat and row-major: cell
    (j_1, ..., j_k) sits at index sum of (j_l - 1) * n**(k - l)."""
    n = cover.n
    counts = [0] * n**cover.k
    for box, w in cover.items:
        bases = [0]
        for part in box.parts[:-1]:
            bases = [(b + j - 1) * n for b in bases for j in part]
        last = [j - 1 for j in box.parts[-1]]
        for b in bases:
            for j in last:
                counts[b + j] += w
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
    property.  Verdicts are computed once per count that occurs, and only
    cells failing the unit pattern or having a repeated index are looked
    at one by one."""
    if cover.mod is None:
        raise ValueError("cover has no modulus to verify against")
    mod, n, k = cover.mod, cover.n, cover.k
    counts = _counts(cover)
    bad = {
        target: {c: not astrong_coeff_status(target, c, mod)[0] for c in set(counts)}
        for target in (0, 1)
    }
    suspects = _repeated_cells(n, k)
    suspects.update(itertools.compress(range(len(counts)), map(bad[1].__getitem__, counts)))
    violations = []
    for i in sorted(suspects):
        cell, d = _cell(i, n, k), counts[i] % mod.m
        target = int(len(set(cell)) == k)
        if bad[target][counts[i]]:
            reason = f"count {d} has residues {mod.residues(d)} per {mod}, target {target}"
            violations.append(CellViolation(cell, d, reason))
    return PropertyReport(not violations, violations, len(counts))


def verify_sk_properties(cover: WeightedBoxCover) -> PropertyReport:
    """Check every tuple of (1..n)^k: repeated-index tuples must count
    0 mod m, distinct-index tuples must carry the unit-pattern property."""
    return _check_properties(cover)


def build_sk_cover(
    n: int,
    k: int,
    mod: Modulus,
    b: int | None = None,
    strategy: str = "greedy",
    seed: int = 0,
) -> WeightedBoxCover:
    """Hash family -> initial boxes -> indicator polynomial -> transform.

    The indicator threshold is d = u (the row count), since u bounds
    every covered tuple's initial multiplicity.
    """
    mod.require_composite_nonprimepower()
    if b is None:
        b = 2 * k
    h = build_hash_family(n, k, b, strategy=strategy, seed=seed)
    base = initial_box_cover(h, mod)
    if h.u > len(base.items):
        raise ConstructionError(
            f"degenerate cover: {len(base.items)} boxes from {h.u} rows"
        )
    f = bbr_construct(mod, d=h.u, ell=len(base.items))
    result = transform_boxes(base, f)
    result.meta.update(d=h.u, strategy=strategy, seed=seed)
    return result


def rect_as_box_cover(cover: WeightedBoxCover) -> WeightedBoxCover:
    """A rectangle cover already is the k = 2 box cover; checks k only."""
    if cover.k != 2:
        raise ValueError(f"not a rectangle cover: k = {cover.k}")
    return cover
