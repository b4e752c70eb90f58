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
import sys
from collections import defaultdict, namedtuple
from collections.abc import Collection, Sequence

from .zmod import Modulus, astrong_coeff_status
from .sympoly import SymmetricPolynomial, bbr_construct


class ConstructionError(RuntimeError):
    """Raised when the hash-family search exceeds its round cap or a
    construction fails its closing exhaustive check."""


class HashMatrix(namedtuple("HashMatrix", "n k b rows")):
    """u x n matrix over {0..b-1} separating every k-subset of columns:
    rows holds its u rows, each a tuple of n entries."""

    __slots__ = ()

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


def mask_of(indices: Collection[int], top: int | None = None) -> int:
    """The int with bit j set for each index j >= 0: one "1" digit is
    placed per index, and the digits are read at once.  top, when the
    caller already knows it, is the largest index (0 for none).  (Made as
    bytes: a bytearray repeat out of memory also prints a SystemError line.)"""
    if top is None:
        top = max(indices, default=0)
    digits = bytearray(b"0" * (top + 1))
    for j in indices:
        digits[j] = 49  # "1"
    return int(digits[::-1], 2)


class Box(namedtuple("Box", "parts")):
    """A product of k index sets: bit j of part l is set when index j is in it."""

    __slots__ = ()

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


class WeightedBoxCover(namedtuple("WeightedBoxCover", "n k mod items meta")):
    """Multiset of weighted k-dimensional boxes over indices 1..n: items
    is a list of (Box, weight) pairs, meta a dict (a fresh {} if omitted).

    mod is None for covers that exist before a modulus is chosen (the
    initial covers); such covers report raw counts.  Weighted covers
    keep weights canonical in 1..m-1.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, mod: Modulus | None, items: list[tuple[Box, int]],
                meta: dict | None = None) -> WeightedBoxCover:
        return super().__new__(cls, n, k, mod, items, {} if meta is None else meta)


class CellViolation(namedtuple("CellViolation", "cell count target")):
    __slots__ = ()

    def line(self, mod: Modulus) -> str:
        """The cell, its count mod m and the count's residues per factor."""
        return (f"cell {self.cell}: count {self.count} has residues "
                f"{mod.residues(self.count)} per {mod}, target {self.target}")


class PropertyReport(namedtuple("PropertyReport", "ok violations checked sampled counts",
                                 defaults=(False, None))):
    """Outcome of a cover property check; ok iff no violations.  sampled
    defaults to False: every check is exhaustive.  counts is the raw count
    table it judged, which the a-strong step reads: one table, two verdicts."""

    __slots__ = ()

    def summary(self) -> str:
        head = "pass" if self.ok else f"fail ({len(self.violations)} violations)"
        return f"{head}: {self.checked} cells checked"


HashReport = namedtuple("HashReport", "ok failing_subsets checked")


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

    import random  # only this search draws, so only `build --poly sk` loads it

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


def box_multiplicity_table(cover: WeightedBoxCover) -> dict[tuple[int, ...], int]:
    """Sparse table of all covered tuples; absent tuples have count 0."""
    counts = _counts(cover)
    cells = itertools.compress(itertools.product(range(1, cover.n + 1), repeat=cover.k), counts)
    values = itertools.compress(counts, counts)
    return dict(zip(cells, map(cover.mod.m.__rmod__, values) if cover.mod else values))


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
    degree = f.degree  # a property, computed on each read

    def extend(cands: int, depth: int, current: tuple[int, ...]) -> None:
        size = depth + 1
        coeff = f.coeffs[size] if size <= degree else 0
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
                if size < degree:
                    extend(cands & meeting[idx], size, tuple(merged))

    full = (1 << (cover.n + 1)) - 1
    extend((1 << len(masks)) - 1, 0, (full,) * cover.k)
    # the closure refers to itself, and the cyclic collector is paused for a
    # whole command, so without this meeting[] would live until the command ends
    del extend
    meta = dict(cover.meta)
    meta.update(h=len(cover.items), bbr_coeffs=list(f.coeffs), bbr_degree=degree)
    return WeightedBoxCover(cover.n, cover.k, f.mod, out, meta)


def transform_boxes(cover: WeightedBoxCover, f: SymmetricPolynomial) -> WeightedBoxCover:
    """The monomial-intersection transformation of a box cover."""
    return _transform(cover, f)


def field_width(total: int) -> int:
    """Bytes per packed field that hold any count up to total, so that no
    field carries into the next: 1, 2, 4 or 8, else as many as total needs."""
    return next((b for b in (1, 2, 4, 8) if total < 1 << 8 * b), -(-total.bit_length() // 8))


def _typecode(width: int) -> str:
    """The array typecode of unsigned ints of width bytes."""
    return next(t for t in "BHILQ" if array.array(t).itemsize == width)


def _fields(mask: int, n: int, width: int) -> int:
    """The int of n fields of width bytes whose field j - 1 is bit j of mask."""
    flags = bin(mask >> 1)[:1:-1].encode().translate(_BIT_VALUES)
    fields = bytearray(n * width)
    fields[::width] = flags.ljust(n, b"\0")
    return int.from_bytes(fields, "little")


def _counts(cover: WeightedBoxCover) -> array.array:
    """Raw weighted counts of all n**k cells, flat and row-major: cell
    (j_1, ..., j_k) sits at index sum of (j_l - 1) * n**(k - l).

    Each row (j_1, ..., j_{k-1}) is one int of n fixed-width fields.  No
    cell counts more than the total weight of the items whose first part
    holds its j_1, so the fields are as wide as the largest such total:
    those totals are the fields of one packed sum over the distinct first
    parts, taken at the width of the sum of all weights, which no field
    can reach past.  An item's last part is packed with its weight in the
    field of each index it holds; the packed parts of items with equal
    first k - 1 parts are summed, and the sum is added to each row those
    parts span.  Each row's little-endian bytes are moved into one array
    of counts, and the row is freed."""
    n, k = cover.n, cover.k
    by_first: defaultdict[int, int] = defaultdict(int)
    for box, w in cover.items:
        by_first[box.parts[0]] += w
    total = sum(by_first.values())
    width = field_width(total)
    if width > 8:
        raise ValueError(f"weights summing to {total} overflow a 64-bit count")
    spread = sum(_fields(part, n, width) * w for part, w in by_first.items())
    # read in native order, the fields come reversed on a big-endian
    # machine, but only the largest is kept
    bounds = array.array(_typecode(width), spread.to_bytes(n * width, sys.byteorder))
    width = field_width(max(bounds))
    packed = functools.cache(lambda part, w: _fields(part, n, width) * w)
    listed = functools.cache(members)  # the memo dies with this call
    by_heads: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for box, w in cover.items:
        by_heads[box.parts[:-1]] += packed(box.parts[-1], w)
    del packed  # freed before the rows are made, and by_heads before the array
    rows = [0] * n ** (k - 1)
    for heads, add in by_heads.items():
        bases = [0]
        for part in heads:
            bases = [b * n + j - 1 for b in bases for j in listed(part)]
        for b in bases:
            rows[b] += add
    del by_heads
    size = n * width
    counts = array.array(_typecode(width), [0]) * n**k
    with memoryview(counts).cast("B") as raw:
        for b, row in enumerate(rows):
            raw[b * size:(b + 1) * size] = row.to_bytes(size, "little")
            rows[b] = 0
    if sys.byteorder == "big":
        counts.byteswap()
    return counts


def _repeated_cells(n: int, k: int) -> set[int]:
    """Flat indices of the tuples with some index repeated.  For positions
    a < b and each choice of the other entries, the tuples with j_a = j_b
    are one run of n cells whose step is the sum of a's and b's strides."""
    strides = [n ** (k - 1 - l) for l in range(k)]
    cells: set[int] = set()
    for a, b in itertools.combinations(range(k), 2):
        step = strides[a] + strides[b]
        others = (range(0, n * s, s) for l, s in enumerate(strides) if l not in (a, b))
        cells.update(*(range(base, base + n * step, step)
                       for base in map(sum, itertools.product(*others))))
    return cells


def _judge(table, zeros: Collection[int], mod: Modulus) -> bytes:
    """The 0/1 flags of the cells of a row-major table that fail a 0/1
    target, or b"" when none fails: target 0 at the cells in zeros, 1 at
    every other.  On a copy, a cell in zeros is first made 1 if it is 0 mod
    m and 0 if not: 1 meets the unit pattern for every m, 0 for none, so
    one verdict table judges every cell, computed once per value that
    occurs.  A table of one byte per cell is judged by bytes.translate
    through a 256-entry byte table, at C speed: once to delete every value
    that meets the unit pattern, and, if any is left, once more to flag
    the cells that hold one; a wider table through a set of failing values."""
    wide = isinstance(table, array.array) and table.itemsize > 1
    cells = table[:] if wide else bytearray(table)
    for i in zeros:
        cells[i] = cells[i] % mod.m == 0
    if not wide:
        fails = bytes(not astrong_coeff_status(1, c, mod)[0] for c in range(256))
        passing = bytes(c for c in range(256) if not fails[c])
        return cells.translate(fails) if cells.translate(None, passing) else b""
    bad = {c for c in set(cells) if not astrong_coeff_status(1, c, mod)[0]}
    return bytes(map(bad.__contains__, cells)) if bad else b""


def _check_properties(cover: WeightedBoxCover) -> PropertyReport:
    """Exhaustive check of all n**k cells against the unit-pattern
    property: _judge wants 0 mod m at the repeated-index cells and the unit
    pattern at the others.  The flags pick the failing cells, in row-major
    order, out of one enumeration of all cells; a repeated-index cell's
    witness keeps its own count, target 0."""
    if cover.mod is None:
        raise ValueError("cover has no modulus to verify against")
    mod, n, k = cover.mod, cover.n, cover.k
    counts = _counts(cover)
    repeated = _repeated_cells(n, k)
    flags = _judge(counts, repeated, mod)
    if not flags:
        return PropertyReport(True, [], len(counts), counts=counts)
    cells = itertools.compress(itertools.product(range(1, n + 1), repeat=k), flags)
    violations = [CellViolation(cell, counts[i] % mod.m, int(i not in repeated))
                  for i, cell in zip(itertools.compress(itertools.count(), flags), cells)]
    return PropertyReport(False, violations, len(counts), counts=counts)


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
