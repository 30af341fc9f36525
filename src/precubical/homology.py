"""Branching and merging homology with exact integer arithmetic.

The graded group of a complex K is assembled per vertex:

  degree 0      free on the final states (initial states for merging);
  degree 1      one free generator per extra connected component of a
                branching complex, summed over vertices;
  degree n + 1  the direct sum over vertices of H_n of the branching
                complex there, for n >= 1.

Degrees 0 and 1 only ever produce free groups; from degree 2 on, torsion
from the per-vertex complexes survives into the total group, so no
vanishing is assumed anywhere.  All computations run over the integers with
unbounded Python ints.  Boundary matrices are kept as sparse columns and
reduced by eliminating every +-1 pivot first; only a leftover block without
unit entries, if any, goes to the dense `smith_normal_form`, which also
stays the reference route in the tests.  `rational_rank` provides a
deliberately separate elimination-over-Fraction route so tests can check
ranks without trusting the normal form code.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .complexes import SemiSimplicialSet, assemble_all
from .core import MINUS, PLUS, PrecubicalSet, check_side, time_reverse


# A sparse matrix column: row index -> nonzero coefficient.
Column = dict[int, int]


class Matrix:
    """An integer matrix with explicit shape (rows may be zero).

    It is given either densely, as rows, or by sparse `{row: coeff}`
    columns (`Matrix.from_columns`); the other form is built on first use of
    `data` or `columns`.  Neither form is to be mutated.
    """

    __slots__ = ("rows", "cols", "_data", "_columns")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        self.rows = rows
        self.cols = cols
        self._columns = None
        if data is None:
            self._data = tuple((0,) * cols for _ in range(rows))
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("shape mismatch")
            self._data = tuple(tuple(int(x) for x in r) for r in data)

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Column]) -> "Matrix":
        """The matrix whose j-th column has entry x in row i for each i: x
        of columns[j]; zero entries are dropped."""
        cols = tuple({i: int(x) for i, x in c.items() if x} for c in columns)
        if rows < 0 or any(not 0 <= i < rows for c in cols for i in c):
            raise ValueError("shape mismatch")
        M = cls.__new__(cls)
        M.rows, M.cols, M._data, M._columns = rows, len(cols), None, cols
        return M

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        if self._data is None:
            rows = [[0] * self.cols for _ in range(self.rows)]
            for j, col in enumerate(self._columns):
                for i, x in col.items():
                    rows[i][j] = x
            self._data = tuple(tuple(r) for r in rows)
        return self._data

    @property
    def columns(self) -> tuple[Column, ...]:
        if self._columns is None:
            self._columns = tuple(
                {i: row[j] for i, row in enumerate(self._data) if row[j]}
                for j in range(self.cols)
            )
        return self._columns

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        left, right = self.data, other.data
        out = []
        for i in range(self.rows):
            row = left[i]
            out.append(
                [
                    sum(row[k] * right[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
            )
        return Matrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        if self._data is None:
            return not any(self._columns)
        return all(x == 0 for row in self._data for x in row)

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.rows, self.cols)
        if self._data is None:
            return tuple(self._columns[j].get(j, 0) for j in range(n))
        return tuple(self._data[i][i] for i in range(n))


def smith_normal_form(
    M: Matrix, transforms: bool = True
) -> tuple[Matrix, Matrix | None, Matrix | None]:
    """Diagonalize M over the integers: returns (D, U, V) with U @ M @ V == D,
    U and V unimodular, D nonnegative diagonal with each entry dividing the
    next.

    Pivots are chosen by minimal absolute value, which keeps intermediate
    entries small on the sparse boundary matrices this package produces.

    With transforms=False only D is computed, as a sparse matrix, and U and V
    come back as None: `smith_diagonal` runs on the columns of M, so the
    dense steps below see only its leftover block.  This is the route
    `homology_of` takes.
    """
    m, n = M.rows, M.cols
    if not transforms:
        diagonal = sorted(smith_diagonal(M.columns, m))
        # sorted, the units come first and the leftover's own chain
        # follows, so the diagonal divides down the line
        columns = [{j: d} for j, d in enumerate(diagonal)]
        columns.extend({} for _ in range(n - len(diagonal)))
        return Matrix.from_columns(m, columns), None, None
    D = [list(row) for row in M.data]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(a: int, b: int) -> None:
        D[a], D[b] = D[b], D[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a: int, b: int) -> None:
        for row in D:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst: int, src: int, q: int) -> None:
        # row dst += q * row src
        D[dst] = [x + q * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(a: int) -> None:
        D[a] = [-x for x in D[a]]
        U[a] = [-x for x in U[a]]

    for t in range(min(m, n)):
        while True:
            pivot = None
            best = 0
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(D[i][j])
                    if v and (pivot is None or v < best):
                        pivot, best = (i, j), v
            if pivot is None:
                break
            if pivot != (t, t):
                swap_rows(t, pivot[0])
                swap_cols(t, pivot[1])
            if D[t][t] < 0:
                negate_row(t)
            d = D[t][t]
            # clear below and to the right; a nonzero remainder becomes the
            # new, strictly smaller pivot
            resized = False
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // d))
                    if D[i][t]:
                        swap_rows(t, i)
                        resized = True
                        break
            if resized:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // d))
                    if D[t][j]:
                        swap_cols(t, j)
                        resized = True
                        break
            if resized:
                continue
            # divisibility sweep: fold in any entry the pivot misses
            for i in range(t + 1, m):
                bad = next((j for j in range(t + 1, n) if D[i][j] % d), None)
                if bad is not None:
                    add_row(t, i, 1)
                    resized = True
                    break
            if not resized:
                break
    return (
        Matrix(m, n, D),
        Matrix(m, m, U),
        Matrix(n, n, V),
    )


def rational_rank(M: Matrix) -> int:
    """Rank over the rationals by fraction Gaussian elimination.

    Kept free of any code shared with smith_normal_form on purpose: it is
    the cross-check route for every rank this package computes.
    """
    a = [[Fraction(x) for x in row] for row in M.data]
    rank = 0
    col = 0
    while rank < M.rows and col < M.cols:
        pivot_row = next((i for i in range(rank, M.rows) if a[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(M.rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def rational_det_is_unit(M: Matrix) -> bool:
    """True when a square matrix has determinant +1 or -1 (so it is
    invertible over the integers, given integer entries)."""
    if M.rows != M.cols:
        return False
    a = [[Fraction(x) for x in row] for row in M.data]
    det = Fraction(1)
    for col in range(M.cols):
        pivot_row = next((i for i in range(col, M.rows) if a[i][col]), None)
        if pivot_row is None:
            return False
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(col + 1, M.rows):
            if a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det in (1, -1)


def invariant_factors(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize torsion coefficients to invariant factors: a divisibility
    chain with the same direct sum.  E.g. (2, 3) -> (6); (2, 4, 3) -> (2, 12)."""
    ts = sorted(abs(v) for v in values if abs(v) > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                if ts[j] % ts[i]:
                    g = gcd(ts[i], ts[j])
                    ts[i], ts[j] = g, ts[i] * ts[j] // g
                    changed = True
        if changed:
            ts.sort()
    return tuple(t for t in ts if t > 1)


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


def smith_diagonal(columns: Sequence[Column], rows: int) -> list[int]:
    """The nonzero diagonal entries of the Smith normal form of a matrix given
    by sparse columns with `rows` rows, up to order.

    Every +-1 pivot is eliminated first: adding multiples of the pivot column
    clears the pivot's row, after which the pivot row and column split off as
    a diagonal 1 (the row operations clearing the column touch nothing else).
    A row -> columns index finds the columns each pivot touches; among the
    unit entries of a column, the row with the fewest entries is taken, to
    keep fill-in low.  Columns left without unit entries form a block that
    goes to the dense `smith_normal_form`, which supplies the rest of the
    diagonal, torsion included.
    """
    cols = [dict(c) for c in columns]
    where: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for i in col:
            where.setdefault(i, set()).add(j)
    units = 0
    pending = list(range(len(cols) - 1, -1, -1))
    stuck: set[int] = set()
    while pending:
        j = pending.pop()
        col = cols[j]
        pivot = min(
            (i for i, x in col.items() if x == 1 or x == -1),
            key=lambda i: len(where[i]),
            default=None,
        )
        if pivot is None:
            if col:
                stuck.add(j)
            continue
        units += 1
        cols[j] = {}
        for i in col:
            where[i].discard(j)
        sign = col.pop(pivot)
        for k in where.pop(pivot):
            other = cols[k]
            f = other.pop(pivot) * sign
            for i, x in col.items():
                y = other.get(i, 0) - f * x
                if y:
                    if i not in other:
                        where[i].add(k)
                    other[i] = y
                else:
                    del other[i]
                    where[i].discard(k)
            if k in stuck:
                stuck.discard(k)
                pending.append(k)
    diagonal = [1] * units
    if stuck:
        order = sorted(stuck)
        used = sorted({i for j in order for i in cols[j]})
        block = [[cols[j].get(i, 0) for j in order] for i in used]
        D, _, _ = smith_normal_form(Matrix(len(used), len(order), block))
        diagonal.extend(d for d in D.diagonal() if d)
    return diagonal


class ChainComplex:
    """Free integer chain complex with named basis elements per degree.

    boundaries[k - 1], for 1 <= k <= top, is the boundary C_k -> C_(k-1)
    (rows indexed by bases[k-1], columns by bases[k]), given either as a
    `Matrix` or as one sparse `{row: coeff}` column per basis element of
    degree k, which is kept as a sparse `Matrix`.  Consecutive boundaries
    must compose to zero.
    """

    def __init__(
        self,
        bases: Sequence[Sequence[str]],
        boundaries: Sequence[Matrix | Sequence[Column]],
    ):
        self.bases = tuple(tuple(b) for b in bases)
        boundaries = tuple(boundaries)
        if len(boundaries) != max(0, len(self.bases) - 1):
            raise ValueError("need exactly one boundary matrix per positive degree")
        matrices = []
        for k, M in enumerate(boundaries, start=1):
            rows, width = len(self.bases[k - 1]), len(self.bases[k])
            if not isinstance(M, Matrix):
                if len(M) != width:
                    raise ValueError(f"boundary {k} has the wrong shape")
                try:
                    M = Matrix.from_columns(rows, M)
                except ValueError:
                    raise ValueError(f"boundary {k} has the wrong shape") from None
            if (M.rows, M.cols) != (rows, width):
                raise ValueError(f"boundary {k} has the wrong shape")
            matrices.append(M)
        self.matrices = tuple(matrices)
        for k in range(2, len(self.bases)):
            lower = self.matrices[k - 2].columns
            for col in self.matrices[k - 1].columns:
                image: dict[int, int] = {}
                for i, x in col.items():
                    for r, y in lower[i].items():
                        image[r] = image.get(r, 0) + x * y
                if any(image.values()):
                    raise ValueError(f"boundary of boundary is nonzero in degree {k}")

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
    if top < 0:
        return ChainComplex([], [])
    bases = [[s.name for s in S.simplices(k)] for k in range(top + 1)]
    boundaries = []
    for k in range(1, top + 1):
        index = {name: i for i, name in enumerate(bases[k - 1])}
        columns = []
        for name in bases[k]:
            col: Column = {}
            for i in range(k + 1):
                row = index[S.face(name, i)]
                col[row] = col.get(row, 0) + (-1) ** i
            columns.append(col)
        boundaries.append(columns)
    return ChainComplex(bases, boundaries)


def homology_of(C: ChainComplex) -> GradedAbelianGroup:
    """Integral homology of a chain complex from the Smith diagonals of its
    boundaries.

    rank H_k = dim C_k - rank d_k - rank d_(k+1); the torsion of H_k is the
    set of Smith diagonal entries of d_(k+1) exceeding 1.
    """
    if not C.bases:
        return GradedAbelianGroup([])
    diags = {}
    for k in range(1, C.top_degree + 1):
        D, _, _ = smith_normal_form(C.boundary(k), transforms=False)
        diags[k] = [d for d in D.diagonal() if d]
    out = []
    for k in range(C.top_degree + 1):
        rank = len(C.bases[k]) - len(diags.get(k, ())) - len(diags.get(k + 1, ()))
        torsion = invariant_factors(diags.get(k + 1, ()))
        out.append((rank, torsion))
    return GradedAbelianGroup(out)


def branching_homology(K: PrecubicalSet, side: str = MINUS) -> GradedAbelianGroup:
    """The branching (side '-') or merging (side '+') homology of K.

    Side '+' is computed as side '-' of the time-reversed complex.  K must
    be a valid precubical set.
    """
    check_side(side)
    R = time_reverse(K) if side == PLUS else K
    degree0 = 0
    degree1 = 0
    higher: list[tuple[int, tuple[int, ...]]] = []
    for B in assemble_all(R).values():
        if len(B) == 0:  # no cube starts here: a final state
            degree0 += 1
            continue
        parts = B.components()
        degree1 += max(0, len(parts) - 1)
        if B.dim < 1:
            continue
        H = homology_of(chain_complex(B))
        for n in range(1, H.top_degree + 1):
            slot = n - 1  # degree n + 1 of the total group
            while len(higher) <= slot:
                higher.append((0, ()))
            rank, torsion = higher[slot]
            higher[slot] = (
                rank + H.rank(n),
                invariant_factors(torsion + H.torsion(n)),
            )
    groups = [(degree0, ()), (degree1, ())] + higher
    return GradedAbelianGroup(groups)


def merging_homology(K: PrecubicalSet) -> GradedAbelianGroup:
    return branching_homology(K, side=PLUS)
