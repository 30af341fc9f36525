"""Branching and merging homology with exact integer arithmetic.

The graded group of a complex K is assembled per vertex:

  degree 0      free on the final states (initial states for merging);
  degree n + 1  the direct sum over vertices of the reduced H_n of the
                branching complex there; in degree 1 that is one free
                generator per extra connected component.

Degrees 0 and 1 only ever produce free groups; from degree 2 on, torsion
from the per-vertex complexes survives into the total group, so no
vanishing is assumed anywhere.  All computations run over the integers with
unbounded Python ints.  Boundary matrices are sparse integer columns, and
`smith_normal_form` is the one elimination route: one sparse column loop
takes the +-1 pivots first and then the smallest entry left, computing the
Smith diagonal and nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .complexes import SemiSimplicialSet, assemble_all
from .core import MINUS, PLUS, PrecubicalSet


# A sparse matrix column: row index -> nonzero coefficient.
Column = dict[int, int]


def _integer(x) -> int:
    """A matrix entry equal to an int (2.0, True) as that int; not 0.5, inf, nan."""
    if x % 1:
        raise ValueError(f"matrix entry {x!r} is not an integer")
    return int(x)


class Matrix:
    """An integer matrix with explicit shape (rows may be zero), stored as
    sparse `{row: coeff}` columns without zero entries.

    It is built from dense rows, `Matrix(rows, cols, data)`, or from
    columns, `Matrix.from_columns`; `data` is the dense view.  Both refuse
    an entry that is not an integer.  The columns are not to be mutated.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        if data is not None and (len(data) != rows or any(len(r) != cols for r in data)):
            raise ValueError("shape mismatch")
        self.rows, self.cols = rows, cols
        self.columns: tuple[Column, ...] = tuple(
            {i: _integer(r[j]) for i, r in enumerate(data or ()) if r[j]} for j in range(cols)
        )

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Column]) -> "Matrix":
        """The matrix whose j-th column has entry x in row i for each i: x
        of columns[j]; zero entries are dropped."""
        cols = tuple({i: _integer(x) for i, x in c.items() if x} for c in columns)
        if rows < 0 or any(not 0 <= i < rows for c in cols for i in c):
            raise ValueError("shape mismatch")
        M = cls(rows, 0)
        M.cols, M.columns = len(cols), cols
        return M

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built on each use."""
        rows = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return tuple(tuple(r) for r in rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.columns) == (other.rows, other.columns)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def smith_normal_form(M: Matrix) -> tuple[int, ...]:
    """The nonzero diagonal entries of the Smith normal form of M: positive
    integers, each dividing the next, as many as the rank of M.

    One column loop takes every pivot x, in row p of column j: floor
    multiples of column j clear row p elsewhere, then row operations, which
    touch no other column, reduce column j mod x.  If x is left alone it
    splits off; otherwise a remainder below |x| stays and is queued again.
    Unit pivots go first, in the row with the fewest entries (less fill-in),
    and always split; a column without one waits in `stuck` until a pivot
    touches it.  Then the smallest waiting entry is the pivot: it shrinks
    between two splits, so the loop ends.  The split entries form a diagonal
    of M, whose invariant factors are the Smith chain.
    """
    cols = [dict(c) for c in M.columns]
    where: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for i in col:
            where.setdefault(i, set()).add(j)
    units = 0
    torsion = []
    pending = list(range(len(cols) - 1, -1, -1))
    stuck: set[int] = set()
    while pending or stuck:
        if pending:
            j = pending.pop()
            col = cols[j]
            p = min(
                (i for i, x in col.items() if x == 1 or x == -1),
                key=lambda i: len(where[i]),
                default=None,
            )
            if p is None:
                if col:
                    stuck.add(j)
                continue
        else:
            _, p, j = min((abs(x), i, k) for k in stuck for i, x in cols[k].items())
            stuck.discard(j)
            col = cols[j]
        x = col[p]
        for i in col:
            where[i].discard(j)
        del col[p]
        cols[j] = {}
        for k in where.pop(p):
            other = cols[k]
            y = other.pop(p)
            q = y // x
            for i, v in col.items():
                z = other.get(i, 0) - q * v
                if z:
                    if i not in other:
                        where[i].add(k)
                    other[i] = z
                else:
                    del other[i]
                    where[i].discard(k)
            if y - q * x:  # a remainder smaller than |x| stays in row p
                other[p] = y - q * x
                where.setdefault(p, set()).add(k)
            if k in stuck:
                stuck.discard(k)
                pending.append(k)
        if p not in where:  # row p is clear
            if x * x == 1:  # nothing is left mod a unit
                units += 1
                continue
            col = {i: r for i, y in col.items() if (r := y % x)}
            if not col:
                torsion.append(x)
                continue
        cols[j] = col = {p: x, **col}
        for i in col:
            where.setdefault(i, set()).add(j)
        pending.append(j)
    chain = invariant_factors(torsion) if torsion else ()
    return (1,) * (units + len(torsion) - len(chain)) + chain


def invariant_factors(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize torsion coefficients to invariant factors: a divisibility
    chain with the same direct sum.  E.g. (2, 3) -> (6); (2, 4, 3) -> (2, 12).
    Each value enters at the top, as Z/d + Z/t = Z/lcm + Z/gcd; the gcd moves down."""
    chain: list[int] = []
    for t in (abs(v) for v in values if abs(v) > 1):
        for k in range(len(chain) - 1, -1, -1):
            g = gcd(chain[k], t)
            chain[k], t = chain[k] * t // g, g
        chain.insert(0, t)
    return tuple(t for t in chain if t > 1)


@dataclass(frozen=True)
class GradedAbelianGroup:
    """A finitely generated abelian group per degree.

    groups[k] = (rank, torsion) where torsion is the invariant-factor chain
    (each entry > 1 and dividing the next).  Trailing trivial degrees are
    trimmed, so equality is isomorphism degreewise.
    """

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(self, groups: Iterable[tuple[int, Iterable[int]]]):
        cleaned = []
        for rank, torsion in groups:
            torsion = tuple(torsion)
            if rank < 0:
                raise ValueError("negative rank")
            if invariant_factors(torsion) != torsion:
                raise ValueError(f"torsion {torsion} is not an invariant-factor chain")
            cleaned.append((rank, torsion))
        while cleaned and cleaned[-1] == (0, ()):
            cleaned.pop()
        object.__setattr__(self, "groups", tuple(cleaned))

    @classmethod
    def free(cls, *ranks: int) -> "GradedAbelianGroup":
        return cls([(r, ()) for r in ranks])

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    def rank(self, k: int) -> int:
        if 0 <= k < len(self.groups):
            return self.groups[k][0]
        return 0

    def torsion(self, k: int) -> tuple[int, ...]:
        if 0 <= k < len(self.groups):
            return self.groups[k][1]
        return ()

    def is_trivial(self) -> bool:
        return not self.groups

    def __str__(self) -> str:
        if not self.groups:
            return "0"
        return ", ".join(
            f"H{k}={group_str(r, t)}" for k, (r, t) in enumerate(self.groups)
        )


def group_str(rank: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def graded_iso(a: GradedAbelianGroup, b: GradedAbelianGroup) -> bool:
    """Isomorphism of graded groups; canonical form makes this equality."""
    return a.groups == b.groups


def direct_sum(a: GradedAbelianGroup, b: GradedAbelianGroup) -> GradedAbelianGroup:
    out = []
    for k in range(max(len(a.groups), len(b.groups))):
        out.append(
            (a.rank(k) + b.rank(k), invariant_factors(a.torsion(k) + b.torsion(k)))
        )
    return GradedAbelianGroup(out)


class ChainComplex:
    """Free integer chain complex with named basis elements per degree.

    boundaries[k - 1], for 1 <= k <= top, is the boundary C_k -> C_(k-1)
    as a `Matrix` (rows indexed by bases[k-1], columns by bases[k]).
    Consecutive boundaries must compose to zero.  The constructor checks
    shapes and d∘d = 0; `chain_complex` builds through the trusted
    `_adopt`, since simplicial boundaries satisfy both.
    """

    def __init__(self, bases: Sequence[Sequence[str]], boundaries: Sequence[Matrix]):
        self.bases = tuple(tuple(b) for b in bases)
        self.matrices = tuple(boundaries)
        if len(self.matrices) != max(0, len(self.bases) - 1):
            raise ValueError("need exactly one boundary matrix per positive degree")
        for k, M in enumerate(self.matrices, start=1):
            if (M.rows, M.cols) != (len(self.bases[k - 1]), len(self.bases[k])):
                raise ValueError(f"boundary {k} has the wrong shape")
        for k in range(2, len(self.bases)):
            lower = self.matrices[k - 2].columns
            for col in self.matrices[k - 1].columns:
                image: dict[int, int] = {}
                for i, x in col.items():
                    for r, y in lower[i].items():
                        image[r] = image.get(r, 0) + x * y
                if any(image.values()):
                    raise ValueError(f"boundary of boundary is nonzero in degree {k}")

    @classmethod
    def _adopt(cls, bases: tuple[tuple[str, ...], ...], matrices: tuple[Matrix, ...]):
        C = cls.__new__(cls)
        C.bases, C.matrices = bases, matrices
        return C

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def boundary(self, k: int) -> Matrix:
        """The boundary out of degree k; zero maps off the ends."""
        if 1 <= k <= self.top_degree:
            return self.matrices[k - 1]
        if k == 0 and self.bases:
            return Matrix(0, len(self.bases[0]))
        if k == self.top_degree + 1 and self.bases:
            return Matrix(len(self.bases[-1]), 0)
        return Matrix(0, 0)


def chain_complex(S: SemiSimplicialSet) -> ChainComplex:
    """Simplicial chains: the boundary of a k-simplex alternates its faces."""
    top = S.dim
    bases = tuple(tuple(S._grades.get(k, ())) for k in range(top + 1))
    boundaries = []
    for k in range(1, top + 1):
        index = {name: i for i, name in enumerate(bases[k - 1])}
        columns = []
        for name in bases[k]:
            col: Column = {}
            for i, face in enumerate(S._facets[name]):
                row = index[face]
                col[row] = col.get(row, 0) + (-1) ** i
            columns.append(col)
        boundaries.append(Matrix.from_columns(len(index), columns))
    return ChainComplex._adopt(bases, tuple(boundaries))


def homology_of(C: ChainComplex) -> GradedAbelianGroup:
    """Integral homology of a chain complex from the Smith diagonals of its
    boundaries.

    rank H_k = dim C_k - rank d_k - rank d_(k+1); the torsion of H_k is the
    set of Smith diagonal entries of d_(k+1) exceeding 1.
    """
    if not C.bases:
        return GradedAbelianGroup([])
    diags = {k: smith_normal_form(C.boundary(k)) for k in range(1, C.top_degree + 1)}
    out = []
    for k in range(C.top_degree + 1):
        rank = len(C.bases[k]) - len(diags.get(k, ())) - len(diags.get(k + 1, ()))
        torsion = tuple(d for d in diags.get(k + 1, ()) if d > 1)
        out.append((rank, torsion))
    return GradedAbelianGroup(out)


def branching_homology(K: PrecubicalSet, side: str = MINUS) -> GradedAbelianGroup:
    """The branching (side '-') or merging (side '+') homology of K.

    Side '+' reads the finish faces where side '-' reads the start faces
    (`assemble_all`); the tests check it against the branching homology of
    the time-reversed complex.  Ranks are summed and torsion collected over
    the vertices, then normalized once per degree.  Raises PcsError if K is
    not a valid precubical set.
    """
    ranks = [0]
    torsion: list[list[int]] = [[]]
    for B in assemble_all(K, side).values():
        if len(B) == 0:  # no cube starts here: a final state
            ranks[0] += 1
            continue
        # the reduced H_n of the complex at a vertex lands in degree n + 1
        H = homology_of(chain_complex(B))
        while len(ranks) <= len(H.groups):
            ranks.append(0)
            torsion.append([])
        for n, (rank, factors) in enumerate(H.groups, start=1):
            ranks[n] += rank
            torsion[n] += factors
        ranks[1] -= 1  # reduced H0: one less than the components
    return GradedAbelianGroup(zip(ranks, map(invariant_factors, torsion)))


def merging_homology(K: PrecubicalSet) -> GradedAbelianGroup:
    return branching_homology(K, side=PLUS)
