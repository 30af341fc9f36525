"""Cubical subdivision: slice every cube into a p x ... x p grid.

Cells are those of the cell model in `core` (a tuple of codes, 2a for the
point a and 2a+1 for the interval [a, a+1]), with faces by
`core.cell_faces`.  A grid cell is named by its codes joined with dots
("0-1.1"; "e" when empty).

A cell of the subdivided complex is a pair (base cube of K, codes in the
order-p grid, one per base axis).  The codes 0 and 2p are the outer
boundary: a pair touching it is identified with a pair over the base's face
on that side, so normal forms use only the codes 1 .. 2p - 1 and a base
d-cube contributes exactly (2p - 1)^d cells.  Subdividing by 1 changes
nothing, and `sub_compose_iso` maps Sub_p(Sub_q(K)) onto Sub_pq(K).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    Codes,
    CubeId,
    PcsError,
    PcsMorphism,
    PrecubicalSet,
    _grid,
    cell_faces,
    check_cells,
    check_valid,
    shown,
)

Pair = tuple[str, Codes]


def _label(code: int) -> str:
    a = code // 2
    return f"{a}-{a + 1}" if code % 2 else f"{a}"


def normalize_pair(K: PrecubicalSet, base: str, codes: Codes, p: int) -> Pair:
    """Rewrite a pair to normal form: each boundary code (0 or 2p) pairs the
    base with the face of the original cube on that side.

    The result does not depend on the rewriting order (the precubical
    identities of K make the deletions commute).
    """
    if len(codes) != K.dim_of(base):
        raise PcsError(
            f"cell has {len(codes)} entries for base {base!r} "
            f"of dimension {K.dim_of(base)}"
        )
    if not all(0 <= c <= 2 * p for c in codes):
        raise PcsError(f"cell codes {shown(codes)} out of range for grid {shown(p)}")
    kept: list[int] = []
    for c in codes:
        if c in (0, 2 * p):
            base = K.face(base, len(kept) + 1, int(c > 0))
        else:
            kept.append(c)
    return base, tuple(kept)


@dataclass(eq=False)
class Subdivision:
    """The result of subdividing: the new complex plus the pair decomposition
    of its cells.

    `pairs` maps each cell name of `complex` to its (base, codes) pair;
    `names` is the inverse.  Cell names are "<base>.<e1>.<e2>..." with
    intervals rendered "a-b" and points "a"; cells over a base vertex keep
    the bare base name, so the original vertices keep their names.
    """

    source: PrecubicalSet
    order: int
    complex: PrecubicalSet
    pairs: dict[str, Pair]
    names: dict[Pair, str]

    def __repr__(self) -> str:
        return f"Subdivision(order {self.order}, {len(self.complex)} cells)"


def subdivide(K: PrecubicalSet, p: int) -> Subdivision:
    """Slice every cube of K into an order-p grid.

    Raises PcsError if K is not a valid precubical set, if the result would
    have more than MAX_CELLS cells, or if the generated cell names collide
    with each other (possible only when cube names of K already look like
    subdivision names).
    """
    if p < 1:
        raise PcsError(f"subdivision order must be >= 1, got {shown(p)}")
    check_valid(K)
    if p == 1:
        # One interval per axis leaves the complex unchanged: keep the
        # original object and names instead of renaming every cube.
        pairs = {c.name: (c.name, (1,) * c.dim) for c in K.cubes()}
        return Subdivision(K, 1, K, pairs, {pair: name for name, pair in pairs.items()})
    check_cells(f"the order-{shown(p)} subdivision", 2 * p - 1, K.counts())
    top = 2 * p
    # intervals first, then the interior points: the order cells are named in
    interior = [*range(1, top, 2), *range(2, top, 2)]
    suffix = ["." + _label(c) for c in range(top + 1)]
    pairs: dict[str, Pair] = {}
    names: dict[Pair, str] = {}
    for cube in K.cubes():
        for codes in itertools.product(interior, repeat=cube.dim):
            name = cube.name + "".join(suffix[c] for c in codes)
            if name in pairs:
                raise PcsError(
                    f"subdivision name collision on {name!r}; rename the source cubes"
                )
            pairs[name] = (cube.name, codes)
            names[(cube.name, codes)] = name
    dims, facets = {}, {}
    for name, (base, codes) in pairs.items():
        dims[name] = sum(c % 2 for c in codes)
        if dims[name]:
            facets[name] = tuple(
                names[normalize_pair(K, base, raw, p) if 0 in raw or top in raw else (base, raw)]
                for _, _, raw in cell_faces(codes)
            )
    return Subdivision(K, p, PrecubicalSet._adopt(dims, facets, _valid=True), pairs, names)


def grid_complex(boxes: Iterable[Sequence[int]]) -> PrecubicalSet:
    """The cubical complex spanned by unit boxes of Z^d, each given by its
    lower corner.  Cells are named by their codes, e.g. "0-1.1"."""
    cells = {}
    for box in boxes:
        for codes in itertools.product(*[(2 * b, 2 * b + 1, 2 * b + 2) for b in box]):
            cells[codes] = ".".join(map(_label, codes)) or "e"
    return _grid(cells)


def sub_standard(p: int, n: int) -> PrecubicalSet:
    """The subdivided standard n-cube, built on grid cells; (2p+1)**n <= MAX_CELLS."""
    if p < 1:
        raise PcsError(f"subdivision order must be >= 1, got {shown(p)}")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    check_cells(f"the order-{shown(p)} subdivided {shown(n)}-cube", 2 * p + 1, {n: 1})
    return grid_complex(itertools.product(range(p), repeat=n))


def vertex_coordinates(K: PrecubicalSet, p: int, vertex: str) -> tuple[CubeId, tuple[Fraction, ...]]:
    """Locate a vertex of subdivide(K, p) inside its base cube: returns the
    base cube of K and exact coordinates in [0, 1]^dim.

    The name is decoded, not looked up: a vertex over a d-cube of K is the
    base name followed by d interior grid points.  Original vertices of K
    map to themselves with empty coordinates.
    """
    if p < 1:
        raise PcsError(f"subdivision order must be >= 1, got {shown(p)}")
    found = []
    for d in range(min(vertex.count("."), K.dim) + 1):  # no base cube is higher than K
        base, *points = vertex.rsplit(".", d)
        if base in K and K.dim_of(base) == d and all(
            e.isascii() and e.isdigit() and e[0] != "0" and int(e) < p for e in points
        ):
            found.append((CubeId(base, d), tuple(Fraction(int(e), p) for e in points)))
    if not found:
        raise PcsError(f"{vertex!r} is not a vertex of the order-{shown(p)} subdivision")
    if len(found) > 1:
        raise PcsError(f"subdivision name collision on {vertex!r}; rename the source cubes")
    return found[0]


def sub_compose_iso(K: PrecubicalSet, p: int, q: int) -> PcsMorphism:
    """The isomorphism Sub_p(Sub_q(K)) -> Sub_pq(K): an outer interval code
    e refined by the inner code u rescales to (e - 1) p + u in the order-pq
    grid, and an outer point code e to e p; the base stays the same."""
    outer = subdivide(K, q)
    inner = subdivide(outer.complex, p)
    flat = subdivide(K, p * q)
    mapping = {}
    for name, (mid, inner_codes) in inner.pairs.items():
        base, outer_codes = outer.pairs[mid]
        refined = iter(inner_codes)
        codes = tuple((e - 1) * p + next(refined) if e % 2 else e * p for e in outer_codes)
        mapping[name] = flat.names[(base, codes)]
    return PcsMorphism(inner.complex, flat.complex, mapping)
