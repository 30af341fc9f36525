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
from typing import Iterator, Mapping

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
    tuple holding, an int that long: Python may refuse to print it."""
    for i in x if isinstance(x, tuple) else (x,):
        if isinstance(i, int) and not -(10**100) < i < 10**100:
            return "<100+ digits>"
    return repr(x)


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
                raise PcsError(f"bad {self._cell} name {name!r}")
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
        recorded: dict[str, dict[int, str]] = {}
        for (c, i, alpha), target in faces.items():
            if c not in self._dims:
                raise UnknownCubeError(f"face on unknown cube {c!r}")
            if target not in self._dims:
                raise UnknownCubeError(f"face of {c!r} targets unknown cube {target!r}")
            alpha, n = check_end(alpha), self._dims[c]
            if not 1 <= i <= n or i != int(i):
                raise PcsError(f"face axis {shown(i)} out of range 1..{n} on cube {c!r}")
            recorded.setdefault(c, {})[2 * int(i) - 2 + alpha] = target
        self._facets = seal_facets(self._dims, recorded)
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
        if not 1 <= i <= d:
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
    the holes involved are already reported; so only pairs of recorded faces
    of the right dimension are visited, and a declared cube with few
    recorded faces costs little whatever its dimension.
    """
    out: list[Violation] = []
    dims, facets = K._dims, K._facets
    for n in sorted(K._grades):
        for c in K._grades[n] if n else ():
            F = facets.get(c, (None,) * (2 * n))
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
    if not out:
        K._valid = True
    return out


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


def seal_facets(dims: Mapping[str, int], recorded: Mapping[str, dict], error=PcsError) -> dict:
    """Each cube's facet tuple, None for a hole, from its recorded faces
    {2(i - 1) + alpha: target}.  Constructors call this after checking every
    face; it raises error(SLOTS_ERROR), before building any tuple, if the
    tuples would hold more than MAX_CELLS holes."""
    if sum(2 * dims[c] - len(F) for c, F in recorded.items()) > MAX_CELLS:
        raise error(SLOTS_ERROR)
    # a list first: tuple() of a map would keep its spare slots
    return {c: tuple(list(map(F.get, range(2 * dims[c])))) for c, F in recorded.items()}


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
# j-th odd code; `cell_faces` is that rule, and every grid the package builds
# uses it.  The standard n-cube is the grid of codes in {0, 1, 2}^n, each
# cell named by the word of its codes' letters in "0x1" (an x marks a free
# axis; the empty word, the cube of the standard 0-cube, is named "e").
# Subdivision cuts each cube into a finer grid of the same kind.

STAR = "x"

Codes = tuple[int, ...]


def cell_faces(codes: Codes) -> Iterator[tuple[int, int, Codes]]:
    """Every face (j, alpha, face codes) of a cell."""
    j = 0
    for pos, c in enumerate(codes):
        if c % 2:
            j += 1
            for alpha in (0, 1):
                yield j, alpha, codes[:pos] + (c - 1 + 2 * alpha,) + codes[pos + 1 :]


def _grid(cells: Mapping[Codes, str]) -> PrecubicalSet:
    """The precubical set on named cells; each cell's faces must be named too."""
    dims, facets = {}, {}
    for codes, name in cells.items():
        F = tuple(cells[face] for _, _, face in cell_faces(codes))
        dims[name] = len(F) // 2
        if F:  # a vertex has no facet tuple
            facets[name] = F
    return PrecubicalSet._adopt(dims, facets, _valid=True)


def _word(codes: Codes) -> str:
    """The name of a cell of the standard cube."""
    return "".join("0x1"[c] for c in codes) or "e"


def _cube_cells(n: int, what: str) -> dict[Codes, str]:
    """The cells of the standard n-cube by name; `what` names the complex
    refused when 3**n > MAX_CELLS."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    check_cells(f"{what} {shown(n)}-cube", 3, {n: 1})
    return {codes: _word(codes) for codes in itertools.product(range(3), repeat=n)}


def standard_cube(n: int) -> PrecubicalSet:
    """The standard n-cube: one top cell, all faces, 3**n <= MAX_CELLS cubes."""
    return _grid(_cube_cells(n, "the standard"))


def boundary_cube(n: int) -> PrecubicalSet:
    """The boundary of the standard n-cube; empty for n = 0."""
    cells = _cube_cells(n, "the boundary of the standard")
    del cells[(1,) * n]
    return _grid(cells)


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


def relabel(K: PrecubicalSet, mapping: Mapping[str, str]) -> PrecubicalSet:
    """Rename cubes.  Names absent from `mapping` are kept; the result must
    not collide."""

    def m(name: str) -> str:
        return mapping.get(name, name)

    new_dims = {}
    for name, d in K._dims.items():
        new = m(name)
        if new in new_dims:
            raise PcsError(f"relabel collides on {new!r}")
        new_dims[new] = d
    new_faces = {(m(c), i, alpha): m(t) for (c, i, alpha), t in K.face_items()}
    return PrecubicalSet(new_dims, new_faces)


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
    satisfy the precubical identities
    face(t(j, beta), i, alpha) == face(t(i, alpha), j - 1, beta) for i < j;
    otherwise MorphismError is raised with the first failure.  For n = 0 the
    boundary is empty and the result is K plus a disjoint vertex.

    Alternatively `boundary` may name every cube of the boundary of the
    standard n-cube (keys are the proper face words); it is then checked as
    a morphism from `boundary_cube(n)`, and its facets are glued.

    Returns the enlarged complex and the new cube's name (the given `name`,
    or a deterministic fresh one).
    """
    if n < 0:
        raise ValueError("dimension must be >= 0")
    words = None
    if boundary and all(isinstance(key, str) for key in boundary):
        words, shell = dict(boundary), boundary_cube(n)
        if set(words) != set(shell._dims):
            raise PcsError(
                f"word assignment must cover exactly the {len(shell)} "
                f"proper face words of the standard {n}-cube"
            )
        boundary = {(i, alpha): words[_word(f)] for i, alpha, f in cell_faces((1,) * n)}
    if len(boundary) != 2 * n or set(boundary) != set(itertools.product(range(1, n + 1), (0, 1))):
        raise PcsError(
            f"boundary assignment must cover exactly the {shown(2 * n)} facet slots"
        )
    boundary = {(int(i), check_end(alpha)): t for (i, alpha), t in boundary.items()}
    for (i, alpha), t in boundary.items():
        if K.dim_of(t) != n - 1:
            raise PcsError(
                f"facet ({i}, {SIDES[alpha]}) image {t!r} has dimension "
                f"{K.dim_of(t)}, expected {n - 1}"
            )
    if words is not None:
        PcsMorphism(shell, K, words)
    for j in range(2, n + 1):
        for i in range(1, j):
            for alpha in (0, 1):
                for beta in (0, 1):
                    lhs = K.face(boundary[(j, beta)], i, alpha)
                    rhs = K.face(boundary[(i, alpha)], j - 1, beta)
                    if lhs != rhs:
                        a, b = SIDES[alpha], SIDES[beta]
                        raise MorphismError(
                            f"incompatible attachment: face ({i}, {a}) of facet ({j}, {b}) "
                            f"is {lhs!r}, face ({j - 1}, {b}) of facet ({i}, {a}) is {rhs!r}"
                        )
    if name is None:
        k = 0
        while f"cube{k}" in K:
            k += 1
        name = f"cube{k}"
    elif name in K:
        raise PcsError(f"cube name {name!r} already in use")
    elif not NAME_RE.match(name):
        raise PcsError(f"bad cube name {name!r}")
    dims, facets = dict(K._dims), dict(K._facets)
    dims[name] = n
    if n:
        facets[name] = tuple(boundary[(i, a)] for i in range(1, n + 1) for a in (0, 1))
    return PrecubicalSet._adopt(dims, facets, _valid=K._valid), name


@dataclass(frozen=True, eq=False)
class PcsMorphism:
    """A dimension- and face-preserving map between precubical sets.

    Validated on construction: `mapping` must cover every source cube,
    preserve dimension, and commute with every face recorded in the source
    (the corresponding target face must exist and match).
    """

    source: PrecubicalSet
    target: PrecubicalSet
    mapping: Mapping[str, str] = field(repr=False)

    def __post_init__(self) -> None:
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

    def __call__(self, name: str) -> str:
        if name not in self.mapping:
            raise UnknownCubeError(f"unknown cube {name!r}")
        return self.mapping[name]

    @property
    def is_isomorphism(self) -> bool:
        """True when the mapping is bijective and its inverse is a morphism."""
        if len(self.source) != len(self.target):
            return False
        inv: dict[str, str] = {}
        for c, fc in self.mapping.items():
            if fc in inv:
                return False
            inv[fc] = c
        try:
            PcsMorphism(self.target, self.source, inv)
        except MorphismError:
            return False
        return True
