"""Finite precubical sets with named cubes and explicit face maps.

A precubical set is a graded family of cubes together with face maps:
every n-cube c has faces face(c, i, a) of dimension n - 1, one for each
axis i in 1..n and each end a in {0, 1}, subject to

    face(face(c, j, b), i, a) == face(face(c, i, a), j - 1, b)   for i < j.

Everything here is finite and explicit.  A complex is a table of named
cubes plus a facet tuple for each cube with a recorded face: its 2n faces,
face (i, a) at index 2(i - 1) + a and None for a hole, so a cube's simplex
in the branching (merging) complex is the slice [0::2] ([1::2]).
Construction checks only structure (known names, index ranges), while
`validate` checks the axioms exhaustively and returns every violation.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")

MINUS = "-"
PLUS = "+"
SIDES = (MINUS, PLUS)  # SIDES[alpha] is the symbol of face end alpha

FaceKey = tuple[str, int, int]


class PcsError(Exception):
    """Base class for all errors raised by this package."""


class UnknownCubeError(PcsError):
    """A cube (or simplex) name that is not present in the complex."""


class MissingFaceError(PcsError):
    """A face lookup on a cube whose face table has a hole."""


class MorphismError(PcsError):
    """A mapping between complexes that is not a morphism."""


def shown(x: object) -> str:
    """repr(x) for an error message, or "<100+ digits>" if x is, or is a
    tuple holding, an int that long: Python may refuse to print it.  A
    Fraction shows as str(x), only such a numerator or denominator elided."""
    if isinstance(x, Fraction):
        q = shown(x.numerator)
        return q if x.denominator == 1 else f"{q}/{shown(x.denominator)}"
    for i in x if isinstance(x, tuple) else (x,):
        if isinstance(i, int) and not -(10**100) < i < 10**100:
            return "<100+ digits>"
    return repr(x)


def whole_in(i: object, lo: int, hi: int) -> bool:
    """Whether the index i is a whole number in lo..hi; False, not a
    TypeError, for an index that is no number, such as a str or None."""
    try:
        return lo <= i <= hi and i == int(i)
    except TypeError:
        return False


def whole(x: object, what: str, error=PcsError) -> int:
    """x as an int if it equals one, as 2.0 and True do; for anything else,
    such as 1.5, "2" or None, raise error naming `what` and x."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise error(f"{what} must be an integer, got {shown(x)}")
    return n


def side_end(side: str) -> int:
    """The face end a side reads: 0 (start) for '-', 1 (finish) for '+'."""
    if side not in SIDES:
        raise ValueError(f"side must be '-' or '+', got {side!r}")
    return SIDES.index(side)


def check_end(alpha: int) -> int:
    """alpha as the int 0 or 1, which indexes SIDES."""
    if alpha not in (0, 1):
        raise ValueError(f"face end must be 0 or 1, got {alpha!r}")
    return int(alpha)


@dataclass(frozen=True)
class CubeId:
    """A cube reference: name plus dimension."""

    name: str
    dim: int


@dataclass(frozen=True)
class Violation:
    """One defect found by `validate`.

    kind is "missing-face", "dimension-mismatch", or "identity"; cube is the
    offending cube's name; where carries the witnessing indices:
      missing-face:        (i, alpha)
      dimension-mismatch:  (i, alpha, target, expected_dim, actual_dim)
      identity:            (i, j, alpha, beta, via_j_then_i, via_i_then_j)
    """

    kind: str
    cube: str
    where: tuple

    def __str__(self) -> str:
        w = self.where
        if self.kind == "missing-face":
            return f"{self.cube}: missing face ({w[0]}, {SIDES[w[1]]})"
        if self.kind == "dimension-mismatch":
            return (
                f"{self.cube}: face ({w[0]}, {SIDES[w[1]]}) -> {w[2]} "
                f"has dimension {w[4]}, expected {w[3]}"
            )
        if self.kind == "identity":
            i, j, a, b, lhs, rhs = w
            return (
                f"{self.cube}: identity fails for i={i}, j={j}, "
                f"alpha={SIDES[a]}, beta={SIDES[b]}: "
                f"face({j},{SIDES[b]}) then face({i},{SIDES[a]}) gives {lhs}, "
                f"face({i},{SIDES[a]}) then face({j - 1},{SIDES[b]}) gives {rhs}"
            )
        return f"{self.cube}: {self.kind} {w}"


class CellStore:
    """Named cells graded by dimension plus their facet tuples, shared by
    precubical and semi-simplicial sets.  Public constructors check their
    input; `_adopt`, for tables the library built, neither copies nor checks.
    """

    __slots__ = ("_dims", "_facets", "_grades")

    @classmethod
    def _adopt(cls, dims: dict, facets: dict, **attributes):
        self = cls.__new__(cls)
        self._dims, self._facets = dims, facets
        self._grade()
        for name, value in attributes.items():
            setattr(self, name, value)
        return self

    def _grade(self) -> None:
        """Index the names by dimension, each grade sorted."""
        grades: dict[int, list[str]] = {}
        for name, d in self._dims.items():
            grades.setdefault(d, []).append(name)
        for names in grades.values():
            names.sort()
        self._grades = grades

    def _check_dims(self, dims: Mapping[str, int]) -> None:
        """Store a copy of dims, refusing bad names and dimensions."""
        self._dims = {}
        for name, d in dims.items():
            if not isinstance(name, str) or not NAME_RE.match(name):
                raise PcsError(f"bad {self._cell} name {shown(name)}")
            if not isinstance(d, int) or not 0 <= d <= MAX_CELLS:
                raise PcsError(f"bad dimension {shown(d)} for {self._cell} {name!r}")
            self._dims[name] = d

    @property
    def dim(self) -> int:
        """Top dimension present; -1 when empty."""
        return max(self._grades, default=-1)

    def __len__(self) -> int:
        return len(self._dims)

    def __contains__(self, name: object) -> bool:
        return name in self._dims

    def dim_of(self, name: str) -> int:
        try:
            return self._dims[name]
        except KeyError:
            raise UnknownCubeError(f"unknown {self._cell} {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellStore) or other._cell != self._cell:
            return NotImplemented
        return self._dims == other._dims and self._facets == other._facets

    def __hash__(self) -> int:
        return hash((frozenset(self._dims.items()), frozenset(self._facets.items())))

    def _graded(self, dim: int | None, make) -> tuple:
        """make(name, dim) for every cell (or those of one dimension),
        sorted by (dim, name)."""
        if dim is not None:
            return tuple(make(n, dim) for n in self._grades.get(dim, ()))
        return tuple(make(n, d) for d in sorted(self._grades) for n in self._grades[d])

    def counts(self) -> dict[int, int]:
        """Number of cells per dimension."""
        return {d: len(self._grades[d]) for d in sorted(self._grades)}


class PrecubicalSet(CellStore):
    """An immutable finite precubical set.

    `dims` maps cube names to dimensions; `faces` maps (cube, axis, end)
    keys to target cube names, with axis in 1..dim(cube) and end in {0, 1}.
    Holes and wrong-dimension targets are representable (so that `validate`
    can report them); unknown names and out-of-range axes are not.

    `_valid` is set once the axioms are known to hold, by `validate` or by
    a construction that preserves them, so `check_valid` validates once.
    """

    __slots__ = ("_valid",)
    _cell = "cube"

    def __init__(self, dims: Mapping[str, int], faces: Mapping[FaceKey, str]):
        self._check_dims(dims)
        slots = []
        for (c, i, alpha), target in faces.items():
            if c not in self._dims:
                raise UnknownCubeError(f"face on unknown cube {c!r}")
            if target not in self._dims:
                raise UnknownCubeError(f"face of {c!r} targets unknown cube {target!r}")
            alpha, n = check_end(alpha), self._dims[c]
            if not whole_in(i, 1, n):
                raise PcsError(f"face axis {shown(i)} out of range 1..{n} on cube {c!r}")
            slots.append(2 * int(i) - 2 + alpha)
        # every slot is in range and distinct, so None is the hole bound
        self._facets = seal_facets(self._dims, (c for c, _, _ in faces), slots, faces.values())
        if self._facets is None:
            raise PcsError(SLOTS_ERROR)
        self._grade()
        self._valid = False

    def __repr__(self) -> str:
        return f"PrecubicalSet({len(self)} cubes, dim {self.dim})"

    def cubes(self, dim: int | None = None) -> tuple[CubeId, ...]:
        """All cubes (or those of one dimension), sorted by (dim, name)."""
        return self._graded(dim, CubeId)

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._grades.get(0, ()))

    def face(self, name: str, i: int, alpha: int) -> str:
        """The (i, alpha) face of a cube; raises if absent.  The arguments
        are checked only on a miss."""
        t = self.face_or_none(name, i, alpha)
        if t is not None:
            return t
        d = self.dim_of(name)
        alpha = check_end(alpha)
        if not whole_in(i, 1, d):
            raise PcsError(f"face axis {shown(i)} out of range 1..{d} on cube {name!r}")
        raise MissingFaceError(f"cube {name!r} has no face ({i}, {SIDES[alpha]})")

    def face_or_none(self, name: str, i: int, alpha: int) -> str | None:
        F = self._facets.get(name)
        if F is None or alpha not in (0, 1) or i not in range(1, len(F) // 2 + 1):
            return None
        return F[2 * int(i) - 2 + int(alpha)]

    def face_items(self) -> Iterator[tuple[FaceKey, str]]:
        """All face entries: cubes by (dim, name), axes ascending, '-' first."""
        for c in self._graded(None, lambda name, d: name):
            for k, t in enumerate(self._facets.get(c, ())):
                if t is not None:
                    yield (c, k // 2 + 1, k % 2), t

    def as_tables(self) -> tuple[dict[str, int], dict[FaceKey, str]]:
        """Copies of the (dims, faces) tables, faces keyed (cube, axis, end)."""
        return dict(self._dims), dict(self.face_items())


EMPTY = PrecubicalSet._adopt({}, {}, _valid=True)


def validate(K: PrecubicalSet) -> list[Violation]:
    """Check the precubical axioms; return every violation with a witness.

    Reports, in deterministic order: each missing face, each face whose
    target has the wrong dimension, and each failed instance of the identity
    face(face(c, j, b), i, a) == face(face(c, i, a), j - 1, b) for i < j.
    Identity instances are only checked when all four lookups land, since
    the holes involved are already reported.  Each dimension layer is first
    checked as a whole (`_layer_holds`); only a layer that fails is walked
    cube by cube, visiting only pairs of recorded faces of the right
    dimension, so a declared cube with few recorded faces costs little
    whatever its dimension.
    """
    out: list[Violation] = []
    for n in sorted(K._grades):
        if n and not _layer_holds(K, n):
            for c in K._grades[n]:
                _cube_violations(K, c, K._facets.get(c, (None,) * (2 * n)), n, out)
    if not out:
        K._valid = True
    return out


def _layer_holds(K: PrecubicalSet, n: int) -> bool:
    """True only if no n-cube of K has a violation, n >= 1: every cube has
    a facet tuple without holes, of targets of dimension n - 1 that have
    facet tuples; and for each k = 2(i - 1) + a, face(face(c, j, b), i, a)
    and face(face(c, i, a), j - 1, b) over all cubes c, j > i and b, as
    two flat lists in one order, are equal.  A hole in a face's own tuple
    is None in a list, and `validate` skips such an instance, so equal
    lists mean no violation; unequal ones send the layer to the walk."""
    dims, facets = K._dims, K._facets
    Fs = list(map(facets.get, K._grades[n]))
    if None in Fs:
        return False
    N = len(Fs)
    flat = list(itertools.chain.from_iterable(zip(*Fs)))  # face m of cube c at m * N + c
    if set(map(dims.get, flat)) != {n - 1}:  # a hole reads dims.get(None)
        return False
    if n == 1:
        return True
    G = list(map(facets.get, flat))  # their facet tuples, in the same order
    if None in G:
        return False
    for k in range(2 * n - 2):
        i2 = k & ~1  # 2(i - 1); the faces m = 2(j - 1) + b, j > i, start at i2 + 2
        lhs = list(map(itemgetter(k), G[(i2 + 2) * N :]))
        # the rows p = m - 2 >= i2 of the facet tuples of the faces k
        rows = itertools.islice(zip(*G[k * N : (k + 1) * N]), i2, None)
        if lhs != list(itertools.chain.from_iterable(rows)):
            return False
    return True


def _cube_violations(K: PrecubicalSet, c: str, F: tuple, n: int, out: list) -> None:
    """Append to out the violations of the n-cube c with facet tuple F, in
    `validate`'s order; c need not be in K yet, but every name in F is."""
    dims, facets = K._dims, K._facets
    for k, t in enumerate(F):
        if t is None:
            out.append(Violation("missing-face", c, (k // 2 + 1, k % 2)))
        elif dims[t] != n - 1:
            where = (k // 2 + 1, k % 2, t, n - 1, dims[t])
            out.append(Violation("dimension-mismatch", c, where))
    # G[2j + beta] is the facet tuple of face (j + 1, beta) if that has
    # dimension n - 1, so each identity is two index reads
    G = [facets.get(t) if t and dims[t] == n - 1 else None for t in F]
    axes = [i for i in range(n) if G[2 * i] or G[2 * i + 1]]
    for a, i in enumerate(axes):
        for j in axes[a + 1 :]:
            for alpha in (0, 1):
                U = G[2 * i + alpha]
                for beta in (0, 1):
                    T = G[2 * j + beta]
                    if T and U:
                        lhs, rhs = T[2 * i + alpha], U[2 * j - 2 + beta]
                        if lhs and rhs and lhs != rhs:
                            where = (i + 1, j + 1, alpha, beta, lhs, rhs)
                            out.append(Violation("identity", c, where))


def violations_message(violations: list[Violation]) -> str:
    """The error message for a complex with these violations."""
    listed = "; ".join(str(v) for v in violations[:5])
    if len(violations) > 5:
        listed += f"; and {len(violations) - 5} more"
    return f"not a precubical set: {listed}"


def check_valid(K: PrecubicalSet) -> None:
    """Raise PcsError unless K satisfies the precubical axioms; runs
    `validate` only if that is not yet known."""
    if not K._valid:
        violations = validate(K)
        if violations:
            raise PcsError(violations_message(violations))


# -- size guard ---------------------------------------------------------------

MAX_CELLS = 10**6
SLOTS_ERROR = f"face tables would leave more than {MAX_CELLS} face slots empty"


def seal_facets(dims: Mapping, owners: Iterable, slots: list, targets: Iterable) -> dict | None:
    """Each cube's facet tuple, None for a hole, where face j puts targets[j]
    in slot slots[j] of owners[j]; or None at a slot out of range or filled
    twice, or before a list would take the holes past MAX_CELLS."""
    facets: dict = {}
    holes = -len(slots)
    for cube, k, target in zip(owners, slots, targets):
        F = facets.get(cube)
        if F is None:
            holes += 2 * dims[cube]
            if holes > MAX_CELLS:
                return None
            F = facets[cube] = [None] * (2 * dims[cube])
        if k >= len(F) or F[k] is not None:
            return None
        F[k] = target
    for cube, F in facets.items():  # each list is freed as its tuple replaces it
        facets[cube] = tuple(F)
    return facets


def check_cells(what: str, base: int, counts: Mapping[int, int]) -> None:
    """Raise PcsError if `what`, with k * base**d cells for each d: k in
    counts, has more than MAX_CELLS.  Capping d at 20 keeps the count cheap
    and decides alike, since base**20 > MAX_CELLS for base >= 2."""
    total = sum(k * base ** min(d, 20) for d, k in counts.items())
    if total > MAX_CELLS:
        raise PcsError(f"{what} would have more than {MAX_CELLS} cells")


# -- the cell model ---------------------------------------------------------
#
# A cell of a cubical grid is a tuple of codes, one per axis: 2a is the point
# a and 2a + 1 the interval [a, a + 1].  Its dimension is the number of odd
# codes, and its face (j, alpha) adds -1 (alpha = 0) or +1 (alpha = 1) to the
# j-th odd code.  Every grid the package builds reads its faces by position
# from `_grid_template`.  The standard n-cube is the grid {0, 1, 2}^n, each
# cell named by its codes' letters in "0x1" (an x marks a free axis; the
# empty word, the cube of the standard 0-cube, is named "e").

STAR = "x"

Codes = tuple[int, ...]


def _grid_template(axis: Sequence[int], d: int) -> tuple[list[Codes], list[list[int]]]:
    """The cells of the grid axis^d in `itertools.product` order, and their
    faces as positions.  Face (j, alpha) of the cell at x moves its j-th odd
    code c, at place k, to e = c - 1 + 2 alpha: the cell at x + (digit[e] -
    digit[c]) * stride[k] if e is in axis, else the other codes' cell on facet
    2k + alpha, at m^d + (2k + alpha) m^(d-1) + their position in axis^(d-1)."""
    m, digit = len(axis), {c: i for i, c in enumerate(axis)}
    size, strides = m**d, [m ** (d - 1 - k) for k in range(d)]
    grid, faces = list(itertools.product(axis, repeat=d)), []
    for x, codes in enumerate(grid):
        F = []
        for k, c in enumerate(codes):
            if c % 2:
                s = strides[k]
                for alpha, e in enumerate((c - 1, c + 1)):
                    F.append(x + (digit[e] - digit[c]) * s if e in digit
                             else size + (2 * k + alpha) * (size // m) + x // (m * s) * s + x % s)
        faces.append(F)
    return grid, faces


def _cube(n: int, hollow: bool) -> tuple[PrecubicalSet, tuple[str, ...]]:
    """The standard n-cube, or its boundary without the centre, and the centre's facets."""
    n = whole(n, "dimension")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    check_cells(f"the {'boundary of the ' * hollow}standard {shown(n)}-cube", 3, {n: 1})
    _, faces = _grid_template((0, 1, 2), n)
    names = ["".join(word) or "e" for word in itertools.product("0x1", repeat=n)]
    dims = dict(zip(names, [len(F) // 2 for F in faces]))
    facets = {name: itemgetter(*F)(names) for name, F in zip(names, faces) if F}
    centre, F = names[len(names) // 2], ()
    if hollow:  # the centre is a face of no cell
        del dims[centre]
        F = facets.pop(centre, ())
    return PrecubicalSet._adopt(dims, facets, _valid=True), F


def standard_cube(n: int) -> PrecubicalSet:
    """The standard n-cube: one top cell, all faces, 3**n <= MAX_CELLS cubes."""
    return _cube(n, False)[0]


def boundary_cube(n: int) -> PrecubicalSet:
    """The boundary of the standard n-cube; empty for n = 0."""
    return _cube(n, True)[0]


def truncate(K: PrecubicalSet, p: int) -> PrecubicalSet:
    """Discard every cube of dimension above p (and its face entries)."""
    kept = {n: d for n, d in K._dims.items() if d <= p}
    if K._valid:  # faces of kept cubes are kept
        facets = {c: F for c, F in K._facets.items() if c in kept}
        return PrecubicalSet._adopt(kept, facets, _valid=True)
    return PrecubicalSet(kept, {k: t for k, t in K.face_items() if k[0] in kept})


# -- extremal vertices and states -------------------------------------------


def extremal_vertex(K: PrecubicalSet, name: str, side: str = MINUS) -> str:
    """The initial (side '-') or final (side '+') vertex of a cube.

    Computed by iterating face(-, 1, end); the precubical identities make
    any other descent through faces land on the same vertex.  Each step
    must drop the dimension, or PcsError is raised: a complex loaded
    without validation may have a face that does not.
    """
    alpha = side_end(side)
    d = K.dim_of(name)
    while d > 0:
        face = K._facets.get(name, (None, None))[alpha] or K.face(name, 1, alpha)  # a hole raises
        face_dim = K._dims[face]
        if face_dim >= d:
            raise PcsError(
                f"face (1, {side}) of {name!r} is {face!r} of dimension "
                f"{face_dim}, not below {d}"
            )
        name, d = face, face_dim
    return name


def extremal_cubes(K: PrecubicalSet, vertex: str, side: str = MINUS) -> frozenset[str]:
    """All cubes of dimension >= 1 whose extremal vertex on `side` is `vertex`."""
    if K.dim_of(vertex) != 0:
        raise PcsError(f"{vertex!r} is not a vertex")
    return extremal_partition(K, side)[vertex]


def extremal_partition(K: PrecubicalSet, side: str = MINUS) -> dict[str, frozenset[str]]:
    """Group the positive-dimensional cubes by extremal vertex, in one pass.

    Every vertex appears as a key, possibly with an empty group; the groups
    agree with extremal_cubes(K, v, side) for each v.
    """
    side_end(side)  # a bad side is refused even without cubes
    groups: dict[str, list[str]] = {v: [] for v in K.vertices()}
    for d in sorted(K._grades):
        for c in K._grades[d] if d else ():
            groups[extremal_vertex(K, c, side)].append(c)
    return {v: frozenset(members) for v, members in groups.items()}


def _states(K: PrecubicalSet, side: str) -> frozenset[str]:
    return frozenset(v for v, group in extremal_partition(K, side).items() if not group)


def final_states(K: PrecubicalSet) -> frozenset[str]:
    """Vertices that no positive-dimensional cube starts at."""
    return _states(K, MINUS)


def initial_states(K: PrecubicalSet) -> frozenset[str]:
    """Vertices that no positive-dimensional cube ends at."""
    return _states(K, PLUS)


# -- constructions -----------------------------------------------------------


def time_reverse(K: PrecubicalSet) -> PrecubicalSet:
    """Swap the two ends of every face map.  An involution."""
    rev = {c: tuple(F[k ^ 1] for k in range(len(F))) for c, F in K._facets.items()}
    return PrecubicalSet._adopt(K._dims, rev, _valid=K._valid)


def attach_cube(
    K: PrecubicalSet,
    n: int,
    boundary: Mapping[tuple[int, int], str],
    name: str | None = None,
) -> tuple[PrecubicalSet, str]:
    """Glue a fresh n-cube onto K along a boundary assignment.

    `boundary` sends each facet slot (i, alpha), 1 <= i <= n, to an existing
    (n-1)-cube of K.  The assignment must extend to a morphism from the
    boundary of the standard n-cube, which holds exactly when the facets
    have dimension n - 1 and satisfy the precubical identities
    face(t(j, beta), i, alpha) == face(t(i, alpha), j - 1, beta) for i < j.
    The new cube is checked as `validate` checks a cube, and a failure
    raises MorphismError with the text of its first `Violation`; as there,
    an identity that meets a hole of a leniently loaded K is skipped.  For
    n = 0 the boundary is empty and the result is K plus a disjoint vertex.

    Alternatively `boundary` may name every cube of the boundary of the
    standard n-cube (keys are the proper face words); it is then checked as
    a morphism from `boundary_cube(n)`, and its facets are glued.

    Returns the enlarged complex and the new cube's name (the given `name`,
    or a deterministic fresh one).
    """
    n = whole(n, "dimension")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    words = None
    if boundary and all(isinstance(key, str) for key in boundary):
        words, (shell, centre) = dict(boundary), _cube(n, True)
        if set(words) != set(shell._dims):
            raise PcsError(
                f"word assignment must cover exactly the {len(shell)} "
                f"proper face words of the standard {n}-cube"
            )
        boundary = {(k // 2 + 1, k % 2): words[word] for k, word in enumerate(centre)}
    if len(boundary) != 2 * n or set(boundary) != set(itertools.product(range(1, n + 1), (0, 1))):
        raise PcsError(
            f"boundary assignment must cover exactly the {shown(2 * n)} facet slots"
        )
    if name is None:
        k = len(K)  # free after any run of fresh attaches, so the scan is short
        while f"cube{k}" in K:
            k += 1
        name = f"cube{k}"
    elif not isinstance(name, str) or not NAME_RE.match(name):
        raise PcsError(f"bad cube name {shown(name)}")
    elif name in K:
        raise PcsError(f"cube name {name!r} already in use")
    # a key equal to an int slot (1.0, True) finds it, and F holds the targets
    F = tuple(boundary[(i, a)] for i in range(1, n + 1) for a in (0, 1))
    for t in F:
        K.dim_of(t)  # an unknown name raises UnknownCubeError
    out: list[Violation] = []
    _cube_violations(K, name, F, n, out)
    if out:
        raise MorphismError(str(out[0]))
    if words is not None:
        PcsMorphism(shell, K, words)
    dims, facets = dict(K._dims), dict(K._facets)
    dims[name] = n
    if n:
        facets[name] = F
    return PrecubicalSet._adopt(dims, facets, _valid=K._valid), name


@dataclass(frozen=True, eq=False)
class PcsMorphism:
    """A dimension- and face-preserving map between precubical sets.

    Validated on construction, on its own dict copy of `mapping`: the map
    must cover every source cube, preserve dimension, and commute with every
    face recorded in the source (the corresponding target face must match).
    """

    source: PrecubicalSet
    target: PrecubicalSet
    mapping: Mapping[str, str] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        for cube in self.source.cubes():
            c = cube.name
            if c not in self.mapping:
                raise MorphismError(f"mapping undefined on {c!r}")
            fc = self.mapping[c]
            if fc not in self.target:
                raise MorphismError(f"{c!r} maps to unknown cube {fc!r}")
            if self.target.dim_of(fc) != cube.dim:
                raise MorphismError(
                    f"{c!r} (dim {cube.dim}) maps to {fc!r} "
                    f"(dim {self.target.dim_of(fc)})"
                )
        for (c, i, alpha), t in self.source.face_items():
            ft = self.target.face_or_none(self.mapping[c], i, alpha)
            if ft is None:
                raise MorphismError(
                    f"target cube {self.mapping[c]!r} lacks face "
                    f"({i}, {SIDES[alpha]}) needed by {c!r}"
                )
            if ft != self.mapping[t]:
                raise MorphismError(
                    f"face ({i}, {SIDES[alpha]}) of {c!r} maps to "
                    f"{self.mapping[t]!r} but face of image is {ft!r}"
                )
