"""Per-vertex branching and merging complexes of a precubical set.

For a vertex v, the cubes of dimension >= 1 that start at v assemble into a
semi-simplicial set: an (k+1)-cube starting at v becomes a k-simplex whose
i-th face (0 <= i <= k) is the start face along axis i+1.  The precubical
identities make this well defined.  The merging complex is the same
construction read at the finish end (`core.side_end`): the cubes that
finish at v, with their finish faces.  That is the branching complex of
the time-reversed complex, which the tests use as a second route.

The components of these complexes are what branching/merging homology sees
in low degrees, so `pi0_components` computes them directly on the cube data
with a union-find, independent of any chain-complex machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (
    MINUS,
    CellStore,
    PcsError,
    PrecubicalSet,
    check_valid,
    extremal_cubes,
    extremal_partition,
    side_end,
    shown,
    standard_cube,
)


class UnionFind:
    """Disjoint sets over hashable items, with path compression."""

    def __init__(self, items: Iterable = ()):
        self._parent: dict = {}
        self.num_components = 0
        for x in items:
            self.add(x)

    def add(self, x) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self.num_components += 1

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self._parent[ry] = rx
        self.num_components -= 1
        return True

    def components(self) -> list[frozenset]:
        classes: dict = {}
        for x in self._parent:
            classes.setdefault(self.find(x), []).append(x)
        return sorted(
            (frozenset(c) for c in classes.values()), key=lambda c: min(c)
        )


@dataclass(frozen=True)
class SimplexId:
    name: str
    dim: int


class SemiSimplicialSet(CellStore):
    """A finite semi-simplicial set with named simplices.

    `dims` maps names to dimensions; `faces` maps (simplex, i) to the i-th
    face, 0 <= i <= dim, kept as one tuple of faces per simplex of positive
    dimension.  Unlike PrecubicalSet, whose validator reports defects (users
    author those files by hand), this constructor refuses malformed data
    with PcsError: every face must be present and the identities

        face(face(s, j), i) == face(face(s, i), j - 1)   for i < j

    must hold exhaustively.  The per-vertex complexes that the library
    assembles from a valid precubical set satisfy them by construction and
    take the trusted `_adopt` route instead.
    """

    __slots__ = ()
    _cell = "simplex"

    def __init__(self, dims: Mapping[str, int], faces: Mapping[tuple[str, int], str]):
        self._check_dims(dims)
        for (s, i), t in faces.items():
            if s not in self._dims or t not in self._dims:
                raise PcsError(f"face ({s!r}, {shown(i)}) involves unknown simplices")
            if not 0 <= i <= self._dims[s] or self._dims[s] == 0:
                raise PcsError(f"face index {shown(i)} out of range on {s!r}")
            if self._dims[t] != self._dims[s] - 1:
                raise PcsError(f"face ({s!r}, {i}) drops to wrong dimension")
        for s, d in self._dims.items():
            for i in range(d + 1):
                if d >= 1 and (s, i) not in faces:
                    raise PcsError(f"simplex {s!r} lacks face {i}")
        facets = {s: tuple(faces[s, i] for i in range(d + 1)) for s, d in self._dims.items() if d}
        for s, d in self._dims.items():
            for j in range(d + 1 if d >= 2 else 0):
                for i in range(j):
                    if facets[facets[s][j]][i] != facets[facets[s][i]][j - 1]:
                        raise PcsError(
                            f"simplicial identity fails on {s!r} at i={i}, j={j}"
                        )
        self._facets = facets
        self._grade()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} simplices, dim {self.dim})"

    def simplices(self, dim: int | None = None) -> tuple[SimplexId, ...]:
        return self._graded(dim, SimplexId)

    def face(self, name: str, i: int) -> str:
        """The i-th face of a simplex; arguments are checked only on a miss."""
        F = self._facets.get(name)
        if F is not None and i in range(len(F)):
            return F[int(i)]
        self.dim_of(name)
        raise PcsError(f"face index {shown(i)} out of range on {name!r}")

    def components(self) -> tuple[frozenset[str], ...]:
        """Connected classes of the simplices, via union-find on the faces."""
        uf = UnionFind(self._dims)
        for s, F in self._facets.items():
            for t in F:
                uf.union(s, t)
        return tuple(uf.components())


class BranchingComplex(SemiSimplicialSet):
    """The branching (side '-') or merging (side '+') complex at one vertex."""

    __slots__ = ("vertex", "side")

    def __init__(self, dims, faces, vertex: str, side: str):
        super().__init__(dims, faces)
        self.vertex = vertex
        self.side = side

    def __repr__(self) -> str:
        kind = "branching" if self.side == MINUS else "merging"
        return f"BranchingComplex({kind} at {self.vertex!r}, {len(self)} simplices)"


def _assemble_at(K: PrecubicalSet, vertex: str, side: str,
                 members: frozenset[str]) -> BranchingComplex:
    end = side_end(side)
    dims = {c: K._dims[c] - 1 for c in members}
    # a valid K satisfies the simplicial identities (module docstring)
    facets = {c: K._facets[c][end::2] for c, k in dims.items() if k}
    return BranchingComplex._adopt(dims, facets, vertex=vertex, side=side)


def branching_complex(K: PrecubicalSet, vertex: str, side: str = MINUS) -> BranchingComplex:
    """The complex of cubes branching out of (or merging into) a vertex.

    Simplex names are the cube names they come from.  Raises PcsError if
    K is not a valid precubical set.
    """
    side_end(side)
    check_valid(K)
    return _assemble_at(K, vertex, side, extremal_cubes(K, vertex, side))


def assemble_all(K: PrecubicalSet, side: str = MINUS) -> dict[str, BranchingComplex]:
    """The branching (or merging) complex at every vertex, possibly empty.

    One pass groups the cubes by extremal vertex, so this is the cheap way
    to look at every vertex of a large complex.  Raises PcsError if K is
    not a valid precubical set.
    """
    side_end(side)
    check_valid(K)
    return {
        v: _assemble_at(K, v, side, members)
        for v, members in extremal_partition(K, side).items()
    }


def pi0_components(K: PrecubicalSet, vertex: str, side: str = MINUS) -> tuple[frozenset[str], ...]:
    """Partition the cubes branching out of (merging into) a vertex into
    connected classes.

    Works directly on the cube data with a union-find, joining each cube of
    dimension >= 2 with its start faces (finish faces on side '+'); this
    stays independent of the chain-complex route to the same numbers.
    Raises PcsError if K is not a valid precubical set.
    """
    end = side_end(side)
    check_valid(K)
    members = extremal_cubes(K, vertex, side)
    uf = UnionFind(members)
    for c in members:
        if K.dim_of(c) >= 2:
            for i in range(1, K.dim_of(c) + 1):
                uf.union(c, K.face(c, i, end))
    return tuple(uf.components())


def nonempty_index(n: int, side: str = MINUS) -> frozenset[str]:
    """Vertices of the standard n-cube with a nonempty branching complex.

    Every vertex except the top one branches (except the bottom one, for
    merging); the 0-cube has no branching at all.  Returned as vertex names
    of standard_cube(n).
    """
    end = side_end(side)
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n == 0:
        return frozenset()
    omit = str(1 - end) * n
    return frozenset(
        v.name for v in standard_cube(n).cubes(0) if v.name != omit
    )
