"""Box membership, intersection and a tuple's multiplicity, one box at a
time.  The program counts every cell of a cover at once, so the tests use
these as oracles for single cells and boxes."""

from symcover.coverkd import Box, WeightedBoxCover


def contains(box: Box, tup: tuple[int, ...]) -> bool:
    """Whether index tup[l] is in part l of the box, for every l."""
    return all(part >> j & 1 for j, part in zip(tup, box.parts))


def intersect(a: Box, b: Box) -> Box:
    """The box whose parts are the two boxes' parts intersected pairwise."""
    return Box(tuple(x & y for x, y in zip(a.parts, b.parts)))


def box_multiplicity(cover: WeightedBoxCover, tup: tuple[int, ...]) -> int:
    """Weighted number of boxes containing the tuple, mod m when set."""
    if len(tup) != cover.k or not all(1 <= j <= cover.n for j in tup):
        raise ValueError(f"tuple {tup} outside (1..{cover.n})^{cover.k}")
    count = sum(w for box, w in cover.items if contains(box, tup))
    return count % cover.mod.m if cover.mod else count
