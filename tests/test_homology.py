"""Exact integer homology: Smith normal form, chain complexes, graded groups."""
import itertools
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import (
    corpus20,
    glued_torsion,
    hollow_cube,
    hollow_square,
    l_shape,
    one_vertex,
    two_squares,
)
from oracles import (
    betti_numbers,
    branching_homology_per_vertex,
    composite_is_zero,
    direct_sum,
    invariant_factors_reference,
    low_degrees_via_matrix,
    merging_group_direct,
    pi0_components,
    rational_rank,
    smith_diagonal_by_minors,
)
from precubical.complexes import (
    SemiSimplicialSet,
    assemble_all,
    branching_complex,
)
from precubical.core import (
    PLUS,
    PrecubicalSet,
    boundary_cube,
    standard_cube,
    time_reverse,
    truncate,
)
from precubical.homology import (
    ChainComplex,
    GradedAbelianGroup,
    Matrix,
    branching_homology,
    chain_complex,
    group_str,
    homology_of,
    invariant_factors,
    smith_normal_form,
)
from precubical.pcsfile import parse_pcs
from precubical.subdivision import grid_complex, subdivide
import precubical
from precubical import complexes, dipath, homology, subdivision


def snf_is_sound(M):
    diag = smith_normal_form(M)
    assert diag == smith_diagonal_by_minors(M.data)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert len(diag) == rational_rank(M)
    return diag


def test_snf_frozen_examples():
    assert snf_is_sound(Matrix(2, 2, [[2, 0], [0, 3]])) == (1, 6)
    assert snf_is_sound(Matrix(2, 2, [[2, 4], [6, 8]])) == (2, 4)
    assert snf_is_sound(Matrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (1, 1, 1)
    assert snf_is_sound(Matrix(2, 3, [[0, 0, 0], [0, 0, 0]])) == ()
    assert snf_is_sound(Matrix(1, 1, [[-7]])) == (7,)
    # a classic: diag(2, 6, 12)-class matrix
    M = Matrix(3, 3, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert snf_is_sound(M) == (2, 6, 12)


def test_snf_degenerate_shapes():
    assert snf_is_sound(Matrix(0, 0)) == ()
    assert snf_is_sound(Matrix(0, 5)) == ()
    assert snf_is_sound(Matrix(5, 0)) == ()
    assert snf_is_sound(Matrix(1, 4, [[6, 10, 15, 0]])) == (1,)


def test_snf_random_matrices():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = Matrix(
            m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        snf_is_sound(M)
    # a few with big entries to exercise unbounded ints
    for _ in range(5):
        M = Matrix(3, 3, [[rng.randint(-10**12, 10**12) for _ in range(3)] for _ in range(3)])
        snf_is_sound(M)


def test_smith_normal_form_matches_determinantal_divisors():
    # the diagonal must be the one the determinantal divisors give; only a
    # non-unit pivot can split off an entry above 1, so many must be taken
    with_torsion = []
    rng = random.Random(2001)
    pools = [
        (0, 0, 0, 1, -1),
        (0, 0, 1, -1, 2, -2, 3),
        (0, 2, -2, 4, 6, -3, 1),
        (0, 0, 0, 2, 3, -4, 5, -6, 9),
    ]
    for trial in range(600):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        pool = pools[trial % len(pools)]
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        M = Matrix(m, n, rows)
        diag = smith_normal_form(M)
        assert diag == smith_diagonal_by_minors(rows)
        assert len(diag) == rational_rank(M)
        if diag and diag[-1] > 1:
            with_torsion.append(sum(d > 1 for d in diag))
    assert len(with_torsion) > 100
    assert any(k > 1 for k in with_torsion)


def test_smith_normal_form_without_transforms_matches_dense():
    # the kernel returns the diagonal alone, the same from a dense-built and
    # a column-built matrix, and the same as the determinantal divisors give
    rng = random.Random(2002)
    for trial in range(300):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        pool = (0, 0, 1, -1, 2, -3) if trial % 2 else (0, 0, 0, 1, -1)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        M = Matrix(m, n, rows)
        diag = smith_normal_form(M)
        assert isinstance(diag, tuple)
        assert diag == smith_normal_form(Matrix.from_columns(m, M.columns))
        assert diag == smith_diagonal_by_minors(rows)


def timed_smith(M):
    start = time.perf_counter()
    diag = smith_normal_form(M)
    assert time.perf_counter() - start < 1.0
    return diag


def test_diagonal_of_twos_is_fast():
    n = 400
    assert timed_smith(Matrix.from_columns(n, [{j: 2} for j in range(n)])) == (2,) * n


def test_cyclic_bidiagonal_is_fast():
    # its determinant is 2^n - (-3)^n, and the n - 1 minors leaving out the
    # last row and column are coprime products of 2s and 3s
    n = 400
    M = Matrix.from_columns(n, [{j: 2, (j + 1) % n: 3} for j in range(n)])
    assert timed_smith(M) == (1,) * (n - 1) + (abs(2**n - (-3) ** n),)


def test_random_even_sparse_is_fast():
    rng = random.Random(13)
    n = 100
    columns = [
        {rng.randrange(n): 2 * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)}
        for _ in range(n)
    ]
    M = Matrix.from_columns(n, columns)
    diag = timed_smith(M)
    assert all(d % 2 == 0 for d in diag)
    assert len(diag) == rational_rank(M)


def test_smith_normal_form_sparse_frozen():
    assert smith_normal_form(Matrix.from_columns(3, [])) == ()
    assert smith_normal_form(Matrix.from_columns(2, [{}, {}])) == ()
    assert smith_normal_form(Matrix.from_columns(1, [{0: -1}])) == (1,)
    assert smith_normal_form(Matrix.from_columns(2, [{0: 2}, {1: 3}])) == (1, 6)
    # the matrix is left as it was
    M = Matrix.from_columns(2, [{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert smith_normal_form(M) == (1, 2)
    assert M.columns == ({0: 1, 1: 1}, {0: 1, 1: -1})


def test_matrix_from_columns():
    M = Matrix.from_columns(3, [{0: -1, 2: 1}, {}, {1: 2, 2: 0}])
    assert (M.rows, M.cols) == (3, 3)
    assert M == Matrix(3, 3, [[-1, 0, 0], [0, 0, 2], [1, 0, 0]])
    assert M.data == ((-1, 0, 0), (0, 0, 2), (1, 0, 0))
    assert M.columns == ({0: -1, 2: 1}, {}, {1: 2})
    assert Matrix(2, 1, [[0], [5]]).columns == ({1: 5},)
    assert Matrix.from_columns(2, [{}, {}]) == Matrix(2, 2)
    with pytest.raises(ValueError):
        Matrix.from_columns(2, [{2: 1}])


def test_matrix_refuses_non_integers():
    # an entry equal to an int is stored as that int; any other is refused,
    # since the arithmetic is exact
    M = Matrix(1, 4, [[2.0, True, Fraction(4, 2), 0.0]])
    assert M.columns == ({0: 2}, {0: 1}, {0: 2}, {})
    assert all(type(x) is int for col in M.columns for x in col.values())
    assert Matrix.from_columns(1, [{0: 2.0}]) == Matrix(1, 1, [[2]])
    with pytest.raises(ValueError, match="matrix entry must be an integer, got 0.5"):
        Matrix(1, 2, [[0.5, Fraction(3, 2)]])
    # None, "" and [] are no zeros, falsy or not
    for x in (Fraction(3, 2), 2.7, float("inf"), float("-inf"), float("nan"),
              None, "", [], "0", "2", [1]):
        with pytest.raises(ValueError, match="must be an integer"):
            Matrix(1, 1, [[x]])
        with pytest.raises(ValueError, match="must be an integer"):
            Matrix.from_columns(1, [{0: x}])


def test_ranks_and_torsion_are_whole_numbers():
    G = GradedAbelianGroup([(2.0, (2.0, 4))])
    assert G.groups == ((2, (2, 4)),) and str(G) == "H0=Z^2 + Z/2 + Z/4"
    assert all(type(x) is int for x in (G.rank(0), *G.torsion(0)))
    for groups, message in (([(1.5, ())], "rank must be an integer, got 1.5"),
                            ([("2", ())], "rank must be an integer, got '2'"),
                            ([(None, ())], "rank must be an integer, got None"),
                            ([(0, (2.5,))], "torsion must be an integer, got 2.5"),
                            ([(0, ("2",))], "torsion must be an integer, got '2'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            GradedAbelianGroup(groups)
    assert invariant_factors([2.0, True, 3]) == (6,)
    assert all(type(x) is int for x in invariant_factors([2.0, 4.0]))
    for values in ([2.5], ["2"], [None]):
        with pytest.raises(ValueError, match="torsion must be an integer"):
            invariant_factors(values)


def test_rational_rank_frozen():
    assert rational_rank(Matrix(2, 2, [[1, 2], [2, 4]])) == 1
    assert rational_rank(Matrix(3, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert rational_rank(Matrix(2, 2)) == 0
    assert rational_rank(Matrix(0, 3)) == 0


def test_matrix_basics():
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(-1, 2)


def test_public_names_resolve():
    for name in precubical.__all__:
        assert hasattr(precubical, name), name
    gone = {
        homology: ("smith_diagonal", "rational_det_is_unit", "rational_rank", "graded_iso"),
        subdivision: ("Interval", "Point", "SubCube", "SubPair", "vertex_coordinates"),
        complexes: ("UnionFind", "pi0_components", "BranchingComplex"),
        dipath: ("_canonical",),
        precubical: ("UnionFind", "normalize_pair", "sub_standard", "vertex_coordinates",
                     "nonempty_index", "direct_sum", "pi0_components", "graded_iso",
                     "BranchingComplex"),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name) and name not in precubical.__all__


def test_readme_tour_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(tour, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["H0=Z, H1=0, H2=Z", "H0=Z, H1=0, H2=Z", "1/16"]
    comments = [line.split("# ")[1] for line in tour.splitlines() if line.startswith("print(")]
    assert [c[: len(p)] for c, p in zip(comments, printed)] == printed


def test_invariant_factors():
    assert invariant_factors([]) == ()
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4, 3]) == (2, 12)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([6, 4]) == (2, 12)
    assert invariant_factors([2, 3, 4, 5]) == (2, 60)
    assert invariant_factors([-2, 3]) == (6,)


def test_invariant_factors_match_reference():
    # runs of equal entries, values sharing some primes, units, zeros and signs
    rng = random.Random(17)
    pool = [0, 1, -1, 2, -2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 27, 30, 36, 49, 60]
    for _ in range(20000):
        values = rng.choices(pool, k=rng.randrange(12))
        assert invariant_factors(values) == invariant_factors_reference(values)


def disjoint_copies(K, k):
    """k disjoint copies of K, the j-th with "_j" after every name."""
    dims, faces = K.as_tables()
    D, F = {}, {}
    for j in range(k):
        D.update({f"{c}_{j}": d for c, d in dims.items()})
        F.update({(f"{c}_{j}", i, a): f"{t}_{j}" for (c, i, a), t in faces.items()})
    return PrecubicalSet(D, F)


def test_torsion_normalization_is_bounded():
    # on a shared 2-core host, walking the whole chain per value took 3.7 s
    # for [2] * 8000 (quadratic, so minutes here) and about 5 s for the
    # merging homology of 4,000 copies of the glued fixture; runs of equal
    # entries take about 0.1 s and 0.4 s
    for values, want in (([2] * 100000, (2,) * 100000), ([2, 3] * 50000, (6,) * 50000)):
        start = time.perf_counter()
        assert invariant_factors(values) == want
        assert time.perf_counter() - start < 1.0
    K = disjoint_copies(glued_torsion(), 4000)
    start = time.perf_counter()
    H = branching_homology(K, PLUS)
    assert time.perf_counter() - start < 2.0
    assert H == GradedAbelianGroup([(0, ()), (0, ()), (0, (2,) * 8000)])


def test_graded_group_normalization():
    G = GradedAbelianGroup([(1, ()), (0, ()), (0, ())])
    assert G.top_degree == 0
    assert G.rank(0) == 1 and G.rank(5) == 0
    assert G.torsion(1) == ()
    assert GradedAbelianGroup([]).is_trivial() and str(GradedAbelianGroup([])) == "0"
    assert GradedAbelianGroup.free(2, 1) == GradedAbelianGroup([(2, ()), (1, ())])
    with pytest.raises(ValueError):
        GradedAbelianGroup([(-1, ())])
    with pytest.raises(ValueError):
        GradedAbelianGroup([(0, (3, 2))])  # not a divisibility chain
    for torsion in ((1, 2), (-2,), (0,), (2, 0), (2, 4, 6)):
        message = f"torsion {torsion} is not an invariant-factor chain"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedAbelianGroup([(0, torsion)])
    assert GradedAbelianGroup([(0, (2, 2, 6, 12))]).torsion(0) == (2, 2, 6, 12)
    assert str(GradedAbelianGroup([(1, ()), (0, (2,))])) == "H0=Z, H1=Z/2"
    assert group_str(0, ()) == "0"
    assert group_str(2, (2, 4)) == "Z^2 + Z/2 + Z/4"


def test_direct_sum_and_iso():
    a = GradedAbelianGroup([(1, ()), (0, (2,))])
    b = GradedAbelianGroup([(2, ()), (1, (3,))])
    s = direct_sum(a, b)
    assert s == GradedAbelianGroup([(3, ()), (1, (6,))])
    assert s == direct_sum(b, a)
    assert a != b
    assert direct_sum(a, GradedAbelianGroup([])) == a


def sset_from_facets(facets):
    """Ordered simplicial complex: simplices are sorted vertex tuples and
    the i-th face drops the i-th smallest vertex."""
    simplices = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            simplices.update(itertools.combinations(f, r))
    name = lambda s: "s" + ".".join(str(v) for v in s)
    dims = {name(s): len(s) - 1 for s in simplices}
    faces = {}
    for s in simplices:
        if len(s) >= 2:
            for i in range(len(s)):
                faces[(name(s), i)] = name(s[:i] + s[i + 1 :])
    return SemiSimplicialSet(dims, faces)


def test_chain_complex_boundary_squares_to_zero():
    S = sset_from_facets([(1, 2, 3, 4)])  # solid tetrahedron
    C = chain_complex(S)
    assert composite_is_zero(C.boundary(1), C.boundary(2))
    assert composite_is_zero(C.boundary(2), C.boundary(3))
    assert C.boundary(0).cols == 4
    assert C.boundary(4).rows == 1 and C.boundary(4).cols == 0
    with pytest.raises(ValueError):
        ChainComplex([["a"], ["b", "c"]], [Matrix(2, 2)])
    with pytest.raises(ValueError):
        # d1 then d2 with nonzero composite
        ChainComplex(
            [["a"], ["b"], ["c"]],
            [Matrix(1, 1, [[1]]), Matrix(1, 1, [[1]])],
        )


def test_chain_complex_from_sparse_columns():
    # the boundary of an edge and of a triangle, given as columns
    C = ChainComplex(
        [["a", "b", "c"], ["ab", "ac", "bc"], ["abc"]],
        [
            Matrix.from_columns(3, [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]),
            Matrix.from_columns(3, [{0: 1, 1: -1, 2: 1}]),
        ],
    )
    assert C.boundary(1) == Matrix(3, 3, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    assert homology_of(C) == GradedAbelianGroup.free(1)
    for bases, boundaries in (([["a"], ["b"]], []), ([], [Matrix(0, 0)])):
        with pytest.raises(ValueError, match="^need exactly one boundary matrix per positive degree$"):
            ChainComplex(bases, boundaries)
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplex([["a"], ["b"]], [Matrix.from_columns(2, [{1: 1}])])
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplex([["a"], ["b"]], [Matrix.from_columns(1, [{0: 1}, {0: 1}])])
    with pytest.raises(ValueError, match="boundary of boundary is nonzero"):
        ChainComplex(
            [["a"], ["b"], ["c"]],
            [Matrix.from_columns(1, [{0: 1}]), Matrix.from_columns(1, [{0: 1}])],
        )


def test_chain_complex_drops_faces_that_cancel():
    # a loop e at v, and a dunce cap f whose faces are e, e, e
    loop = SemiSimplicialSet({"v": 0, "e": 1}, {("e", 0): "v", ("e", 1): "v"})
    assert chain_complex(loop).boundary(1).columns == ({},)
    assert homology_of(chain_complex(loop)) == GradedAbelianGroup.free(1, 1)
    faces = {("e", 0): "v", ("e", 1): "v", ("f", 0): "e", ("f", 1): "e", ("f", 2): "e"}
    cap = chain_complex(SemiSimplicialSet({"v": 0, "e": 1, "f": 2}, faces))
    assert cap.boundary(2).columns == ({0: 1},)
    for M in cap.matrices:
        assert M == Matrix.from_columns(M.rows, M.columns)
    assert homology_of(cap) == GradedAbelianGroup.free(1)


def test_homology_of_spheres_and_disks():
    disk = homology_of(chain_complex(sset_from_facets([(1, 2, 3)])))
    assert disk == GradedAbelianGroup.free(1)
    circle = homology_of(chain_complex(sset_from_facets([(1, 2), (2, 3), (1, 3)])))
    assert circle == GradedAbelianGroup.free(1, 1)
    two_points = homology_of(chain_complex(sset_from_facets([(1,), (2,)])))
    assert two_points == GradedAbelianGroup.free(2)
    sphere = homology_of(
        chain_complex(sset_from_facets(itertools.combinations((1, 2, 3, 4), 3)))
    )
    assert sphere == GradedAbelianGroup([(1, ()), (0, ()), (1, ())])
    assert homology_of(ChainComplex([], [])) == GradedAbelianGroup([])


RP2_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


def test_homology_torsion_projective_plane():
    # six-vertex projective plane: 6 - 15 + 10 = 1, nonorientable
    S = sset_from_facets(RP2_FACETS)
    assert S.counts() == {0: 6, 1: 15, 2: 10}
    H = homology_of(chain_complex(S))
    assert H == GradedAbelianGroup([(1, ()), (0, (2,))])
    assert betti_numbers(chain_complex(S)) == [1, 0, 0]


def test_homology_torsion_from_plain_matrix():
    C = ChainComplex([["a"], ["b"]], [Matrix(1, 1, [[2]])])
    assert homology_of(C) == GradedAbelianGroup([(0, (2,))])


def test_homology_ranks_match_rational_route():
    rng = random.Random(4)
    ssets = [
        sset_from_facets(RP2_FACETS),
        sset_from_facets([(1, 2, 3, 4), (4, 5, 6, 7), (1, 7)]),
        branching_complex(boundary_cube(3), "000"),
    ]
    for K in corpus20()[:6]:
        for v in K.vertices():
            if rng.random() < 0.4:
                ssets.append(branching_complex(K, v))
    for S in ssets:
        C = chain_complex(S)
        H = homology_of(C)
        assert [H.rank(k) for k in range(C.top_degree + 1)] == betti_numbers(C)


def test_one_vertex_ranks_match_rational_route():
    # ROADMAP item 14's input: at v, N edges and N triangles over one vertex
    for N, seed in ((1, 1), (2, 3), (10, 2), (40, 5), (100, 1), (100, 4)):
        K = one_vertex(N, seed)
        for side in ("-", PLUS):
            b = betti_numbers(chain_complex(branching_complex(K, "v", side)))
            H = branching_homology(K, side)
            # the reduced H_n at the one vertex lands in degree n + 1
            assert [H.rank(k) for k in range(4)] == [0, b[0] - 1, *b[1:]]


def test_one_vertex_elimination_is_bounded():
    # item 14's reproducer at N = 800; entry growth takes N = 1,600 to seconds
    K = one_vertex(800, 1)
    start = time.perf_counter()
    H = branching_homology(K)
    assert time.perf_counter() - start < 2.0
    assert str(H) == "H0=0, H1=0, H2=Z^56, H3=Z^56"


def test_branching_homology_standard_cubes():
    for n in range(5):
        assert branching_homology(standard_cube(n)) == GradedAbelianGroup.free(1)
        assert branching_homology(standard_cube(n), PLUS) == GradedAbelianGroup.free(1)


def test_branching_homology_hollow_square():
    assert branching_homology(boundary_cube(2)) == GradedAbelianGroup.free(1, 1)
    assert branching_homology(boundary_cube(2), PLUS) == GradedAbelianGroup.free(1, 1)


def test_branching_homology_hollow_cube():
    want = GradedAbelianGroup([(1, ()), (0, ()), (1, ())])
    assert branching_homology(boundary_cube(3)) == want
    assert branching_homology(boundary_cube(3), PLUS) == want
    # one dimension up: the branching sphere moves up a degree
    want4 = GradedAbelianGroup([(1, ()), (0, ()), (0, ()), (1, ())])
    assert branching_homology(boundary_cube(4)) == want4


def test_branching_homology_l_shape():
    K = l_shape()
    assert branching_homology(K) == GradedAbelianGroup([(2, ()), (1, ())])
    assert branching_homology(K, PLUS) == GradedAbelianGroup.free(1)


def test_branching_homology_two_squares():
    K = two_squares()
    assert branching_homology(K) == GradedAbelianGroup.free(1)
    assert branching_homology(K, PLUS) == GradedAbelianGroup.free(1)


def test_branching_homology_disjoint_hollow_squares():
    K = truncate(grid_complex([(0, 0), (5, 5)]), 1)
    assert branching_homology(K) == GradedAbelianGroup([(2, ()), (2, ())])


def test_merging_equals_direct_construction():
    fixtures = [
        standard_cube(2),
        boundary_cube(2),
        boundary_cube(3),
        l_shape(),
        two_squares(),
    ] + corpus20()
    for K in fixtures:
        assert branching_homology(K, PLUS) == merging_group_direct(K)


def test_low_degrees_match_matrix_route():
    for K in [boundary_cube(2), boundary_cube(3), l_shape()] + corpus20():
        for side in "-+":
            H = branching_homology(K, side)
            h0, h1 = low_degrees_via_matrix(K, side)
            assert (H.rank(0), H.rank(1)) == (h0, h1)
            assert H.torsion(0) == () and H.torsion(1) == ()


def test_time_reversal_duality():
    for K in [boundary_cube(3), l_shape()] + corpus20()[:10]:
        R = time_reverse(K)
        assert branching_homology(R) == branching_homology(K, PLUS)
        assert branching_homology(R, PLUS) == branching_homology(K)


def test_euler_characteristic_is_the_alternating_cube_count():
    # a third route to the ranks: H0 counts the final states, a non-final
    # vertex v puts its reduced homology one degree up, and each positive
    # cube is a simplex at exactly one vertex, so on either side
    # sum_k (-1)^k rank H_k = #V - sum_v chi(B_v) = sum_d (-1)^d #(d-cubes).
    # It sees a cube counted at no vertex or at two, or a wrong degree
    # shift; not torsion, nor which vertex a cube lands at.
    data = Path(__file__).resolve().parent.parent / "data"
    fixtures = corpus20() + [parse_pcs(p.read_text()) for p in sorted(data.glob("*.pcs"))]
    fixtures += [glued_torsion(), one_vertex(60, 3)]
    fixtures += [cube(n) for n in range(6) for cube in (standard_cube, boundary_cube)]
    fixtures += [subdivide(K, 2).complex for K in corpus20()[:9]]
    cases = 0
    for K in fixtures:
        chi = sum((-1) ** d * count for d, count in K.counts().items())
        for side in "-+":
            G = branching_homology(K, side)
            assert sum((-1) ** k * rank for k, (rank, _) in enumerate(G.groups)) == chi
            cases += 1
    assert cases == 96


def test_merging_side_never_reverses_time(monkeypatch):
    # the merging side reads finish faces; with time_reverse disabled
    # everywhere, it must still give what the time-reversal route gives
    data = Path(__file__).resolve().parent.parent / "data"
    fixtures = [hollow_square(), hollow_cube(), two_squares(), l_shape(),
                standard_cube(3)] + corpus20()
    fixtures += [parse_pcs(p.read_text()) for p in sorted(data.glob("*.pcs"))]
    expected = []
    for K in fixtures:
        R = time_reverse(K)
        expected.append((
            branching_homology(R),
            assemble_all(R, "-"),
            {v: pi0_components(R, v, "-") for v in K.vertices()},
        ))

    def reversed_time(K):
        raise AssertionError("the merging side reversed time")

    original = time_reverse
    for name, module in list(sys.modules.items()):
        if name == "precubical" or name.startswith("precubical."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, reversed_time)
    for K, (H, complexes, components) in zip(fixtures, expected):
        assert branching_homology(K, PLUS) == H
        assert assemble_all(K, "+") == complexes
        for v in K.vertices():
            B = branching_complex(K, v, "+")
            assert B == complexes[v]
            assert pi0_components(K, v, "+") == components[v]


def same_sizes_other_shapes():
    """Per-vertex complexes of equal sizes but different faces: at v two
    edges joined by two squares (a circle), at w two squares each with one
    edge as both start faces (two loops)."""
    dims = {name: 0 for name in ("v", "x", "y", "z", "w", "u1", "u2", "q1", "q2")}
    faces = {}
    edges = {"e1": ("v", "x"), "e2": ("v", "y"), "a": ("y", "z"), "b": ("x", "z"),
             "f1": ("w", "u1"), "f2": ("w", "u2"), "g1": ("u1", "q1"), "g2": ("u2", "q2")}
    for e, ends in edges.items():
        dims[e] = 1
        faces[(e, 1, 0)], faces[(e, 1, 1)] = ends
    squares = {"s1": ("e1", "a", "e2", "b"), "s2": ("e1", "a", "e2", "b"),
               "t1": ("f1", "g1", "f1", "g1"), "t2": ("f2", "g2", "f2", "g2")}
    for s, F in squares.items():
        dims[s] = 2
        faces.update({(s, k // 2 + 1, k % 2): t for k, t in enumerate(F)})
    return PrecubicalSet(dims, faces)


def test_shapes_computed_once_match_every_vertex_computed():
    # the total group, with one homology per shape of per-vertex complex,
    # against every vertex's homology computed and summed on its own
    K = same_sizes_other_shapes()
    assert branching_homology(K) == GradedAbelianGroup.free(3, 1, 3)
    data = Path(__file__).resolve().parent.parent / "data"
    sources = [parse_pcs(p.read_text()) for p in sorted(data.glob("*.pcs"))]
    fixtures = [K] + corpus20() + sources
    fixtures += [standard_cube(n) for n in range(1, 6)]
    fixtures += [boundary_cube(n) for n in range(2, 6)]
    fixtures += [subdivide(K, p).complex for K in sources for p in (2, 3)]
    for K in fixtures:
        for side in "-+":
            assert branching_homology(K, side) == branching_homology_per_vertex(K, side)


def test_homology_runs_once_per_shape(monkeypatch):
    # the 63 nonempty per-vertex complexes of the standard 6-cube have 6
    # shapes, one per number of axes leaving the vertex
    calls = []

    def counted(C):
        calls.append(C)
        return homology_of(C)

    monkeypatch.setattr(homology, "homology_of", counted)
    assert branching_homology(standard_cube(6)) == GradedAbelianGroup.free(1)
    assert len(calls) == 6


def test_torsion_summed_across_vertices(monkeypatch):
    # chosen groups with torsion, one per shape of per-vertex complex (told
    # apart here by the sizes of its chain groups), folded into the total
    # group as direct sums of each vertex's shifted reduced group: a shape's
    # group is computed once and counted once per vertex of that shape
    K = boundary_cube(3)
    chosen = {
        (3, 3): GradedAbelianGroup([(1, ()), (0, (2,))]),  # vertex 000
        (2, 1): GradedAbelianGroup([(2, ()), (1, (3,)), (0, (4,))]),  # 100, 010, 001
        (1,): GradedAbelianGroup([(1, ()), (0, ()), (0, (2,))]),  # 110, 101, 011
    }
    calls = []

    def chosen_group(C):
        calls.append(C)
        return chosen[tuple(map(len, C.bases))]

    per_vertex = {}
    for v, B in assemble_all(K).items():
        if len(B):
            per_vertex[v] = chosen[tuple(map(len, chain_complex(B).bases))]
    monkeypatch.setattr(homology, "homology_of", chosen_group)

    total = GradedAbelianGroup.free(1)  # the final state 111
    for H in per_vertex.values():
        reduced = ((H.rank(0) - 1, H.torsion(0)),) + H.groups[1:]
        total = direct_sum(total, GradedAbelianGroup(((0, ()),) + reduced))
    assert branching_homology(K) == total
    assert len(calls) == 3
    assert total == GradedAbelianGroup([(1, ()), (3, ()), (3, (3, 3, 6)), (0, (2, 2, 2, 4, 4, 4))])
