"""Cubical subdivision: slice every cube into a p x ... x p grid.

Cells are those of the cell model in `core` (a tuple of codes, 2a for the
point a and 2a+1 for the interval [a, a+1]), and every grid here reads its
faces by position from `core._grid_template`.  A grid cell is named by its
codes joined with dots ("0-1.1"; "e" when empty).

A cell of the subdivided complex is a pair (base cube of K, codes in the
order-p grid, one per base axis); `Subdivision.pairs` is the one map stored,
from cell names to pairs.  The codes 0 and 2p are the outer boundary: a pair
touching it is identified with a pair over the base's face on that side, so
normal forms use only the codes 1 .. 2p - 1 and a base d-cube contributes
exactly (2p - 1)^d cells.  Subdividing by 1 changes nothing, and
`sub_compose_iso` maps Sub_p(Sub_q(K)) onto Sub_pq(K).

`subdivide` takes one template per base dimension d, over the codes
1 .. 2p - 1: a face that reaches 0 or 2p is a position among the cells of
one of the base's facets.  It walks the bases by (dim, name), so a facet's
cells are named before a cube reads them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .core import (
    Codes,
    PcsError,
    PcsMorphism,
    PrecubicalSet,
    _grid_template,
    check_cells,
    check_valid,
    shown,
    whole,
)

Pair = tuple[str, Codes]

_COORDINATE_BOUND = 10**99  # grid box coordinates have fewer than 100 digits


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
    """The result of subdividing: the order, the new complex and the pair
    decomposition of its cells.

    `pairs` maps each cell name of `complex` to its (base, codes) pair, and
    no two cells share a pair.  Cell names are "<base>.<e1>.<e2>..." with
    intervals rendered "a-b" and points "a"; cells over a base vertex keep
    the bare base name, so the original vertices keep their names.
    """

    order: int
    complex: PrecubicalSet
    pairs: dict[str, Pair]

    def __repr__(self) -> str:
        return f"Subdivision(order {self.order}, {len(self.complex)} cells)"


def subdivide(K: PrecubicalSet, p: int) -> Subdivision:
    """Slice every cube of K into an order-p grid.

    Raises PcsError if K is not a valid precubical set, if the result would
    have more than MAX_CELLS cells, or if the generated cell names collide
    with each other (possible only when cube names of K already look like
    subdivision names).
    """
    p = whole(p, "subdivision order")
    if p < 1:
        raise PcsError(f"subdivision order must be >= 1, got {shown(p)}")
    check_valid(K)
    if p == 1:
        # One interval per axis leaves the complex unchanged: keep the
        # original object and names instead of renaming every cube.
        pairs = {c.name: (c.name, (1,) * c.dim) for c in K.cubes()}
        return Subdivision(1, K, pairs)
    check_cells(f"the order-{shown(p)} subdivision", 2 * p - 1, K.counts())
    top = 2 * p if K.dim > 0 else 0  # vertices alone need no grid labels
    # intervals first, then the interior points: the order cells are named in
    interior = [*range(1, top, 2), *range(2, top, 2)]
    suffix = ["." + _label(c) for c in range(top + 1)]
    pairs: dict[str, Pair] = {}
    dims, facets, cells = {}, {}, {}  # cells: each base's cell names, in grid order
    for d in sorted(K._grades):
        grid, faces = _grid_template(interior, d)
        tails = ["".join(suffix[c] for c in codes) for codes in grid]
        cell_dims = [len(F) // 2 for F in faces]
        live = [j for j, F in enumerate(faces) if F]
        reads = [itemgetter(*faces[j]) for j in live]
        for base in K._grades[d]:
            row = [base + tail for tail in tails]
            if not pairs.keys().isdisjoint(row):
                name = next(name for name in row if name in pairs)
                raise PcsError(
                    f"subdivision name collision on {name!r}; rename the source cubes"
                )
            pairs.update(zip(row, [(base, codes) for codes in grid]))
            dims.update(zip(row, cell_dims))
            if d:  # a face position indexes the base's cells, then its facets' in slot order
                pool = row + [name for t in K._facets[base] for name in cells[t]]
                facets.update(zip([row[j] for j in live], [read(pool) for read in reads]))
            cells[base] = row
    return Subdivision(p, PrecubicalSet._adopt(dims, facets, _valid=True), pairs)


def grid_complex(boxes: Iterable[Sequence[int]]) -> PrecubicalSet:
    """The cubical complex spanned by unit boxes of Z^d, each given by its
    lower corner.  Cells are named by their codes, e.g. "0-1.1".

    Raises PcsError before building a box of more than MAX_CELLS cells or
    with a coordinate that is not an int of fewer than 100 digits, and after
    any box that takes the distinct cells (boxes share faces) past it.
    """
    dims, facets, key, template = {}, {}, {}, {}  # key: each cell name as first built
    built = set()  # the boxes already built; a repeated box adds no cell
    for box in boxes:
        if not isinstance(box, Sequence):
            raise PcsError(f"grid box {shown(box)} is not a sequence of coordinates")
        d = len(box)
        check_cells("the grid complex", 3, {d: 1})
        for b in box:
            if not isinstance(b, int) or not -_COORDINATE_BOUND < b < _COORDINATE_BOUND:
                raise PcsError(
                    f"grid box coordinate {shown(b)} is not an int of fewer than 100 digits"
                )
        if (box := tuple(box)) in built:
            continue
        built.add(box)
        # the template's codes 0, 1, 2 shifted by 2b on each axis
        labels = [[_label(c + 2 * b) for c in (0, 1, 2)] for b in box]
        words = map(".".join, itertools.product(*labels)) if box else ["e"]
        row = [key.setdefault(name, name) for name in words]
        check_cells("the grid complex", 1, {0: len(key)})  # shared faces count once
        if d not in template:
            template[d] = _grid_template((0, 1, 2), d)[1]
        for name, F in zip(row, template[d]):
            if name not in dims:  # a cell shared by boxes keeps its first place
                dims[name] = len(F) // 2
                if F:
                    facets[name] = itemgetter(*F)(row)
    return PrecubicalSet._adopt(dims, facets, _valid=True)


def sub_compose_iso(K: PrecubicalSet, p: int, q: int) -> PcsMorphism:
    """The isomorphism Sub_p(Sub_q(K)) -> Sub_pq(K): an outer interval code
    e refined by the inner code u rescales to (e - 1) p + u in the order-pq
    grid, and an outer point code e to e p; the base stays the same."""
    outer = subdivide(K, q)
    inner = subdivide(outer.complex, p)
    flat = subdivide(K, p * q)
    name_of = {pair: name for name, pair in flat.pairs.items()}
    mapping = {}
    for name, (mid, inner_codes) in inner.pairs.items():
        base, outer_codes = outer.pairs[mid]
        refined = iter(inner_codes)
        codes = tuple((e - 1) * p + next(refined) if e % 2 else e * p for e in outer_codes)
        mapping[name] = name_of[(base, codes)]
    return PcsMorphism(inner.complex, flat.complex, mapping)
