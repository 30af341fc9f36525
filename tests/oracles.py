"""Independent oracle routes used by the tests.

Everything here recomputes library results along a different path: the
Smith diagonal from determinantal divisors instead of elimination, ranks by
fraction elimination, boundary composites by a dense product instead of
sparse columns, merging homology from finish faces through the checking
constructors and a union-find instead of the library's assembly and total
group, the low degrees from an explicit augmentation matrix on the
time-reversed complex, PCS text through a regex tokenizer that records
every token's column, the axioms on (cube, axis, end)-keyed face tables
instead of facet tuples, faces of the standard cube on words over {0, 1, x}
instead of integer codes, cube attachment by a walk down the face lattice
instead of the facet identities, isomorphism of a morphism by checking its
inverse as a morphism, path distances and combinations by
`PLNaturalPath.at` at the sorted union of breakpoint times, with canonical
form by a straight-line test, instead of the merged walk and velocities on
integers, sampled paths by Fraction sums instead of integer numerators,
the subdivided standard cube as a grid of unit boxes instead of pairs over
the base cube, grids with every face of every cell found by `cell_faces`
and looked up by its codes instead of read by position from one template,
the vertices with a nonempty branching complex in closed form, total
groups summed degree by degree, the total group with every vertex's
homology computed afresh instead of once per shape of per-vertex complex,
subdivision with every face of every cell found by `cell_faces` and looked
up by its (base, codes) pair instead of read from the template of its base
dimension, and PCS text from `cubes` and `face_items` instead of the grades
and facet tuples.  Tests compare these against the library's own answers,
so nothing in this file may call the function it is checking.
"""
import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from precubical.complexes import SemiSimplicialSet, UnionFind, assemble_all, pi0_components
from precubical.core import (
    MAX_CELLS,
    MorphismError,
    PcsError,
    PcsMorphism,
    PrecubicalSet,
    Violation,
    extremal_cubes,
    initial_states,
    time_reverse,
)
from precubical.homology import (
    ChainComplex,
    GradedAbelianGroup,
    Matrix,
    chain_complex,
    homology_of,
    invariant_factors,
)
from precubical.subdivision import grid_complex


def betti_numbers(C: ChainComplex) -> list[int]:
    """Free ranks of homology over Q, via rational elimination only."""
    if not C.bases:
        return []
    ranks = {k: rational_rank(C.boundary(k)) for k in range(C.top_degree + 2)}
    return [
        len(C.bases[k]) - ranks[k] - ranks[k + 1] for k in range(C.top_degree + 1)
    ]


def merging_group_direct(K) -> GradedAbelianGroup:
    """Merging homology built from finish faces, with no time reversal."""
    degree0 = len(initial_states(K))
    degree1 = 0
    higher: list[tuple[int, tuple[int, ...]]] = []
    for v in K.vertices():
        members = extremal_cubes(K, v, "+")
        uf = UnionFind(members)
        for c in members:
            if K.dim_of(c) >= 2:
                for i in range(1, K.dim_of(c) + 1):
                    uf.union(c, K.face(c, i, 1))
        if members:
            degree1 += uf.num_components - 1
        dims = {c: K.dim_of(c) - 1 for c in members}
        faces = {}
        for c in members:
            if K.dim_of(c) >= 2:
                for i in range(K.dim_of(c)):
                    faces[(c, i)] = K.face(c, i + 1, 1)
        B = SemiSimplicialSet(dims, faces)
        H = homology_of(chain_complex(B))
        for n in range(1, H.top_degree + 1):
            while len(higher) <= n - 1:
                higher.append((0, ()))
            rank, torsion = higher[n - 1]
            higher[n - 1] = (
                rank + H.rank(n),
                invariant_factors(torsion + H.torsion(n)),
            )
    return GradedAbelianGroup([(degree0, ()), (degree1, ())] + higher)


def direct_sum(a: GradedAbelianGroup, b: GradedAbelianGroup) -> GradedAbelianGroup:
    """The direct sum of two graded groups, degree by degree."""
    return GradedAbelianGroup(
        (a.rank(k) + b.rank(k), invariant_factors(a.torsion(k) + b.torsion(k)))
        for k in range(max(len(a.groups), len(b.groups)))
    )


def branching_homology_per_vertex(K, side: str = "-") -> GradedAbelianGroup:
    """Branching (merging) homology with every vertex's complex taken through
    `chain_complex` and `homology_of` afresh, its reduced group shifted up a
    degree and added by `direct_sum`; a final state adds a Z in degree 0."""
    total = GradedAbelianGroup([])
    for B in assemble_all(K, side).values():
        if len(B) == 0:
            total = direct_sum(total, GradedAbelianGroup.free(1))
            continue
        H = homology_of(chain_complex(B))
        reduced = ((H.rank(0) - 1, H.torsion(0)),) + H.groups[1:]
        total = direct_sum(total, GradedAbelianGroup(((0, ()),) + reduced))
    return total


def low_degrees_via_matrix(K, side: str = "-") -> tuple[int, int]:
    """Degrees 0 and 1 from the augmentation matrix sending each component
    class at a vertex to that vertex; ranks over Q."""
    R = time_reverse(K) if side == "+" else K
    verts = sorted(R.vertices())
    vertex_of_class = []
    for v in verts:
        vertex_of_class.extend(v for _ in pi0_components(R, v))
    M = Matrix(
        len(verts),
        len(vertex_of_class),
        [[1 if w == v else 0 for w in vertex_of_class] for v in verts],
    )
    r = rational_rank(M)
    return len(verts) - r, len(vertex_of_class) - r


def fraction_solve_is_consistent(M: Matrix, rhs: list[int]) -> bool:
    """Whether M x = rhs has a rational solution; used to sanity-check kernel
    claims in a couple of tests."""
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(M.data)]
    rank = 0
    for col in range(M.cols):
        piv = next((i for i in range(rank, M.rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(M.rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return all(row[-1] == 0 for row in a[rank:])


def rational_rank(M: Matrix) -> int:
    """Rank over the rationals by fraction Gaussian elimination, forward
    only: each pivot clears the rows below it, and the rank is the number
    of pivots.

    Kept free of any code shared with smith_normal_form on purpose: it is
    the cross-check route for every rank the package computes.
    """
    a = [[Fraction(x) for x in row] for row in M.data]
    rank = 0
    for col in range(M.cols):
        pivot_row = next((i for i in range(rank, M.rows) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank]
        for i in range(rank + 1, M.rows):
            if a[i][col]:
                f = a[i][col] / pivot[col]
                a[i] = [x - f * y for x, y in zip(a[i], pivot)]
        rank += 1
        if rank == M.rows:
            break
    return rank


def smith_diagonal_by_minors(rows) -> tuple[int, ...]:
    """The nonzero Smith diagonal of the integer matrix with the given rows,
    from determinantal divisors: d_1 * ... * d_k is the gcd of all k x k
    minors.  Minors come from Laplace expansion along their first row, each
    built from the (k-1) x (k-1) minors, so no division is ever made."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    minors = {((), ()): 1}
    diagonal: list[int] = []
    product = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for R in combinations(range(m), k):
            top = rows[R[0]]
            for C in combinations(range(n), k):
                det = sum(
                    (-1) ** t * top[c] * minors[R[1:], C[:t] + C[t + 1 :]]
                    for t, c in enumerate(C)
                )
                minors[R, C] = det
                g = gcd(g, det)
        if g == 0:  # every larger minor expands into these
            break
        diagonal.append(g // product)
        product = g
    return tuple(diagonal)


def composite_is_zero(A: Matrix, B: Matrix) -> bool:
    """Whether the dense product A B of two matrices vanishes."""
    if A.cols != B.rows:
        raise ValueError("shape mismatch in product")
    left, right = A.data, B.data
    return all(
        sum(row[k] * right[k][j] for k in range(A.cols)) == 0
        for row in left
        for j in range(B.cols)
    )


_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z0-9_.\-]+\Z")


class _Reject(Exception):
    pass


def validate_reference(dims, faces):
    """The violations `core.validate` reports, in its order, computed on
    (dims, faces) tables with faces keyed (cube, axis, end)."""
    out = []
    for c in sorted(dims, key=lambda c: (dims[c], c)):
        n = dims[c]
        facets = {}
        for i in range(1, n + 1):
            for alpha in (0, 1):
                t = faces.get((c, i, alpha))
                if t is None:
                    out.append(Violation("missing-face", c, (i, alpha)))
                elif dims[t] != n - 1:
                    out.append(Violation("dimension-mismatch", c, (i, alpha, t, n - 1, dims[t])))
                else:
                    facets[(i, alpha)] = t
        axes = sorted({i for i, _ in facets})
        for a, i in enumerate(axes):
            for j in axes[a + 1 :]:
                for alpha in (0, 1):
                    for beta in (0, 1):
                        t, u = facets.get((j, beta)), facets.get((i, alpha))
                        if t is None or u is None:
                            continue
                        lhs, rhs = faces.get((t, i, alpha)), faces.get((u, j - 1, beta))
                        if lhs is not None and rhs is not None and lhs != rhs:
                            out.append(Violation("identity", c, (i, j, alpha, beta, lhs, rhs)))
    return out


def parse_reference(text: str):
    """PCS text to `(dims, faces)` tables, or the first error as
    `(message, line, col)`; no axiom check.  Every significant line becomes
    a list of (column, token) pairs, the declarations are scanned into
    records in file order, then duplicates and references are resolved."""
    try:
        return _resolve(*_scan(text))
    except _Reject as reject:
        return reject.args


def _scan(text):
    lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(raw.split("#")[0])]
        if tokens:
            lines.append((line_no, tokens))
    if not lines:
        raise _Reject("missing header line 'pcs 1'", 0, 0)
    line_no, tokens = lines[0]
    words = [t for _, t in tokens]
    if words != ["pcs", "1"]:
        if words[0] != "pcs":
            raise _Reject("first line must be the header 'pcs 1'", line_no, tokens[0][0])
        version = " ".join(words[1:])
        raise _Reject(f"unsupported format version {version!r}", line_no, tokens[0][0])

    def name(col, tok, line_no):
        if not _NAME.match(tok):
            raise _Reject(f"bad name {tok!r}", line_no, col)
        return tok

    def number(col, tok, line_no, what, most=None):
        try:  # int() refuses a token with more digits than its limit
            if tok.isascii() and tok.isdigit() and (most is None or int(tok) <= most):
                return int(tok)
        except ValueError:
            pass
        raise _Reject(f"bad {what} {tok!r}", line_no, col)

    cubes, faces = [], []
    for line_no, tokens in lines[1:]:
        col0, directive = tokens[0]
        if directive == "cube":
            if len(tokens) != 3:
                raise _Reject("cube takes 2 arguments: name dim", line_no, col0)
            (ncol, n), (dcol, d) = tokens[1:]
            name(ncol, n, line_no)
            cubes.append((n, number(dcol, d, line_no, "dimension", MAX_CELLS), line_no, ncol))
        elif directive == "face":
            if len(tokens) != 5:
                raise _Reject("face takes 4 arguments: name i -|+ target", line_no, col0)
            (ccol, c), (icol, i), (scol, sign), (tcol, t) = tokens[1:]
            name(ccol, c, line_no)
            name(tcol, t, line_no)
            axis = number(icol, i, line_no, "face axis")
            if sign not in ("-", "+"):
                raise _Reject(f"face end must be '-' or '+', got {sign!r}", line_no, scol)
            faces.append((c, axis, "-+".index(sign), t, line_no, ccol, tcol))
        else:
            raise _Reject(f"unknown directive {directive!r}", line_no, col0)
    return cubes, faces


def _resolve(cubes, faces):
    dims = {}
    for n, d, line_no, col in cubes:
        if n in dims:
            raise _Reject(f"duplicate cube {n!r}", line_no, col)
        dims[n] = d
    table = {}
    for c, axis, end, t, line_no, ccol, tcol in faces:
        if c not in dims:
            raise _Reject(f"face on unknown cube {c!r}", line_no, ccol)
        if t not in dims:
            raise _Reject(f"face targets unknown cube {t!r}", line_no, tcol)
        if not 1 <= axis <= dims[c]:
            raise _Reject(
                f"face axis {axis} out of range 1..{dims[c]} on cube {c!r}", line_no, ccol
            )
        if (c, axis, end) in table:
            raise _Reject(
                f"duplicate face ({axis}, {'-+'[end]}) on cube {c!r}", line_no, ccol
            )
        table[(c, axis, end)] = t
    return dims, table


# Cubes of the standard n-cube as words of length n over {0, 1, x}: an x
# marks a free axis, so the word's dimension is its number of x's.  The
# (i, alpha) face replaces the i-th x (counting from 1) by alpha.  The empty
# word (the unique cube of the standard 0-cube) is named "e".

EMPTY_WORD_NAME = "e"


def word_face(word: str, i: int, alpha: int) -> str:
    """Replace the i-th free axis marker of a cube word by the end alpha."""
    seen = 0
    for pos, ch in enumerate(word):
        if ch == "x":
            seen += 1
            if seen == i:
                return word[:pos] + str(alpha) + word[pos + 1 :]
    raise ValueError(f"word {word!r} has no axis {i}")


def cube_words(n: int) -> list[str]:
    """Every cube word of the standard n-cube."""
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "01x"]
    return words


def nonempty_index(n: int, side: str = "-") -> frozenset[str]:
    """Vertices of the standard n-cube with a nonempty branching (side '-')
    or merging (side '+') complex: every vertex but the top one (the bottom
    one for merging), and none for n = 0."""
    omit = ("1" if side == "-" else "0") * n
    return frozenset(w for w in cube_words(n) if n and "x" not in w and w != omit)


def boundary_words_of(K, c):
    """The boundary of cube c as a word assignment: each proper face word
    of the standard cube to the face of c it picks out.  Fixing axes from
    the rightmost end keeps the remaining indices stable, so each step is a
    single face lookup."""
    n = K.dim_of(c)
    out = {}
    for word in cube_words(n):
        if word != "x" * n:
            cur = c
            for i in range(n, 0, -1):
                if word[i - 1] != "x":
                    cur = K.face(cur, i, int(word[i - 1]))
            out[word] = cur
    return out


def attach_reference(K, n, boundary, name=None):
    """`attach_cube` by propagating the assignment down the face lattice of
    the standard n-cube, failing on any disagreement between routes."""
    full = "x" * n
    word_assignment = None
    if boundary and all(isinstance(key, str) for key in boundary):
        word_assignment = dict(boundary)
        if set(word_assignment) != set(cube_words(n)) - {full}:
            raise PcsError("word assignment must cover the proper face words")
        boundary = {
            (i, alpha): word_assignment[word_face(full, i, alpha)]
            for i in range(1, n + 1)
            for alpha in (0, 1)
        }
    if set(boundary) != {(i, alpha) for i in range(1, n + 1) for alpha in (0, 1)}:
        raise PcsError("boundary assignment must cover the facet slots")
    for t in boundary.values():
        if K.dim_of(t) != n - 1:
            raise PcsError(f"facet image {t!r} has the wrong dimension")
    img = {}
    frontier = []
    for (i, alpha), t in boundary.items():
        w = word_face(full, i, alpha)
        img[w] = t
        frontier.append(w)
    while frontier:
        w = frontier.pop()
        for i in range(1, w.count("x") + 1):
            for alpha in (0, 1):
                w2 = word_face(w, i, alpha)
                t2 = K.face(img[w], i, alpha)
                if w2 in img:
                    if img[w2] != t2:
                        raise MorphismError(f"face word {w2} receives two cubes")
                else:
                    img[w2] = t2
                    frontier.append(w2)
    if word_assignment is not None:
        for w, t in word_assignment.items():
            if img[w] != t:
                raise MorphismError(f"word {w} disagrees with its facets")
    if name is None:
        k = 0
        while f"cube{k}" in K:
            k += 1
        name = f"cube{k}"
    elif name in K:
        raise PcsError(f"cube name {name!r} already in use")
    dims, faces = K.as_tables()
    dims[name] = n
    for (i, alpha), t in boundary.items():
        faces[(name, i, alpha)] = t
    return PrecubicalSet(dims, faces), name


def is_isomorphism(f: PcsMorphism) -> bool:
    """Whether f is bijective and its inverse is a morphism."""
    if len(f.source) != len(f.target):
        return False
    inv: dict[str, str] = {}
    for c, fc in f.mapping.items():
        if fc in inv:
            return False
        inv[fc] = c
    try:
        PcsMorphism(f.target, f.source, inv)
    except MorphismError:
        return False
    return True


def cell_faces(codes):
    """Every face (j, alpha, face codes) of a grid cell: face (j, alpha)
    adds -1 (alpha = 0) or +1 (alpha = 1) to the j-th odd code."""
    j = 0
    for pos, c in enumerate(codes):
        if c % 2:
            j += 1
            for alpha in (0, 1):
                yield j, alpha, codes[:pos] + (c - 1 + 2 * alpha,) + codes[pos + 1 :]


def grid_reference(cells):
    """The (dims, facets) tables of the precubical set on named grid cells
    {codes: name}, in that order, each face looked up by its codes."""
    dims, facets = {}, {}
    for codes, name in cells.items():
        F = tuple(cells[face] for _, _, face in cell_faces(codes))
        dims[name] = len(F) // 2
        if F:  # a vertex has no facet tuple
            facets[name] = F
    return dims, facets


def sub_standard(p: int, n: int) -> PrecubicalSet:
    """The order-p subdivided standard n-cube as the grid of its p**n unit
    boxes, cells named by their codes."""
    return grid_complex(product(range(p), repeat=n))


def subdivide_reference(K, p: int):
    """The (pairs, names, dims, facets) tables of `subdivide(K, p)` for a
    valid K, each cell's faces by `cell_faces` on its codes: a face whose
    moved code reaches 0 or 2p lies on the base's facet on that side."""
    if p == 1:
        pairs = {c.name: (c.name, (1,) * c.dim) for c in K.cubes()}
        return pairs, {pair: name for name, pair in pairs.items()}, K._dims, K._facets
    top = 2 * p if K.dim > 0 else 0
    interior = [*range(1, top, 2), *range(2, top, 2)]
    suffix = [f".{c // 2}-{c // 2 + 1}" if c % 2 else f".{c // 2}" for c in range(top + 1)]
    pairs, names = {}, {}
    for cube in K.cubes():
        for codes in product(interior, repeat=cube.dim):
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
            B, F = K._facets[base], []
            for _, alpha, raw in cell_faces(codes):
                if top * alpha in raw:
                    k = raw.index(top * alpha)
                    F.append(names[(B[2 * k + alpha], raw[:k] + raw[k + 1 :])])
                else:
                    F.append(names[(base, raw)])
            facets[name] = tuple(F)
    return pairs, names, dims, facets


def emit_reference(K) -> str:
    """PCS text of K: cubes by (dim, name), then each face entry."""
    out = ["pcs 1"]
    for cube in K.cubes():
        out.append(f"cube {cube.name} {cube.dim}")
    for (c, i, alpha), t in K.face_items():
        out.append(f"face {c} {i} {'-+'[alpha]} {t}")
    return "\n".join(out) + "\n"


# -- natural paths ---------------------------------------------------------


def canonical_reference(times, values):
    """Drop every breakpoint that lies on the straight segment from the
    last kept breakpoint to the next one."""
    keep = [0]
    for k in range(1, len(times) - 1):
        j = keep[-1]
        u = (times[k] - times[j]) / (times[k + 1] - times[j])
        if values[k] != tuple(a + (b - a) * u for a, b in zip(values[j], values[k + 1])):
            keep.append(k)
    keep.append(len(times) - 1)
    return tuple(times[k] for k in keep), tuple(values[k] for k in keep)


def _merged_times(a, b):
    return sorted(set(a.times) | set(b.times))


def sup_distance_reference(a, b):
    """The largest coordinate gap at the breakpoints of either path, each
    point read through `at`."""
    return max(abs(x - y) for t in _merged_times(a, b) for x, y in zip(a.at(t), b.at(t)))


def convex_comb_reference(u, a, b):
    """The canonical (times, values) of (1-u) a + u b, each point of a and
    b read through `at` at the breakpoints of either path."""
    times = _merged_times(a, b)
    values = [tuple(x + (y - x) * u for x, y in zip(a.at(t), b.at(t))) for t in times]
    return canonical_reference(times, values)


def sample_reference(n, eps, m, seed):
    """The canonical (times, values) of `sample(n, eps, m, seed)`, drawn
    from the same random stream with every time and coordinate a Fraction."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in range(m + 1)]
    times = [Fraction(0)]
    for w in weights:
        times.append(times[-1] + eps * Fraction(w, sum(weights)))
    values = [(Fraction(0),) * n]
    prev_dir = None
    for t0, t1 in zip(times, times[1:]):
        while True:
            split = [rng.randint(0, 9) for _ in range(n)]
            if sum(split) == 0:
                continue
            direction = tuple(Fraction(s, sum(split)) for s in split)
            if n == 1 or direction != prev_dir:
                break
        prev_dir = direction
        values.append(tuple(x + (t1 - t0) * d for x, d in zip(values[-1], direction)))
    return canonical_reference(times, values)
