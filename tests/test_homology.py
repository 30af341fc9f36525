"""Exact integer homology: Smith normal form, chain complexes, graded groups."""
import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import corpus20, hollow_cube, hollow_square, l_shape, two_squares
from oracles import (
    betti_numbers,
    composite_is_zero,
    low_degrees_via_matrix,
    merging_group_direct,
    rational_rank,
    smith_diagonal_by_minors,
)
from precubical.complexes import (
    SemiSimplicialSet,
    assemble_all,
    branching_complex,
    pi0_components,
)
from precubical.core import boundary_cube, standard_cube, time_reverse, truncate
from precubical.homology import (
    ChainComplex,
    GradedAbelianGroup,
    Matrix,
    branching_homology,
    chain_complex,
    direct_sum,
    graded_iso,
    group_str,
    homology_of,
    invariant_factors,
    merging_homology,
    smith_normal_form,
)
from precubical.pcsfile import parse_pcs
from precubical.subdivision import grid_complex
import precubical
from precubical import homology, subdivision


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
    with pytest.raises(ValueError, match="matrix entry 0.5 is not an integer"):
        Matrix(1, 2, [[0.5, Fraction(3, 2)]])
    for x in (Fraction(3, 2), 2.7, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="is not an integer"):
            Matrix(1, 1, [[x]])
        with pytest.raises(ValueError, match="is not an integer"):
            Matrix.from_columns(1, [{0: x}])


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
        homology: ("smith_diagonal", "rational_det_is_unit", "rational_rank"),
        subdivision: ("Interval", "Point", "SubCube", "SubPair"),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name) and name not in precubical.__all__


def test_invariant_factors():
    assert invariant_factors([]) == ()
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4, 3]) == (2, 12)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([6, 4]) == (2, 12)
    assert invariant_factors([2, 3, 4, 5]) == (2, 60)
    assert invariant_factors([-2, 3]) == (6,)


def test_graded_group_normalization():
    G = GradedAbelianGroup([(1, ()), (0, ()), (0, ())])
    assert G.top_degree == 0
    assert G.rank(0) == 1 and G.rank(5) == 0
    assert G.torsion(1) == ()
    assert GradedAbelianGroup([]).is_trivial()
    assert GradedAbelianGroup.free(2, 1) == GradedAbelianGroup([(2, ()), (1, ())])
    with pytest.raises(ValueError):
        GradedAbelianGroup([(-1, ())])
    with pytest.raises(ValueError):
        GradedAbelianGroup([(0, (3, 2))])  # not a divisibility chain
    assert str(GradedAbelianGroup([(1, ()), (0, (2,))])) == "H0=Z, H1=Z/2"
    assert group_str(0, ()) == "0"
    assert group_str(2, (2, 4)) == "Z^2 + Z/2 + Z/4"


def test_direct_sum_and_iso():
    a = GradedAbelianGroup([(1, ()), (0, (2,))])
    b = GradedAbelianGroup([(2, ()), (1, (3,))])
    s = direct_sum(a, b)
    assert s == GradedAbelianGroup([(3, ()), (1, (6,))])
    assert graded_iso(s, direct_sum(b, a))
    assert not graded_iso(a, b)
    assert graded_iso(direct_sum(a, GradedAbelianGroup([])), a)


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
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplex([["a"], ["b"]], [Matrix.from_columns(2, [{1: 1}])])
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplex([["a"], ["b"]], [Matrix.from_columns(1, [{0: 1}, {0: 1}])])
    with pytest.raises(ValueError, match="boundary of boundary is nonzero"):
        ChainComplex(
            [["a"], ["b"], ["c"]],
            [Matrix.from_columns(1, [{0: 1}]), Matrix.from_columns(1, [{0: 1}])],
        )


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


def test_branching_homology_standard_cubes():
    for n in range(5):
        assert branching_homology(standard_cube(n)) == GradedAbelianGroup.free(1)
        assert merging_homology(standard_cube(n)) == GradedAbelianGroup.free(1)


def test_branching_homology_hollow_square():
    assert branching_homology(boundary_cube(2)) == GradedAbelianGroup.free(1, 1)
    assert merging_homology(boundary_cube(2)) == GradedAbelianGroup.free(1, 1)


def test_branching_homology_hollow_cube():
    want = GradedAbelianGroup([(1, ()), (0, ()), (1, ())])
    assert branching_homology(boundary_cube(3)) == want
    assert merging_homology(boundary_cube(3)) == want
    # one dimension up: the branching sphere moves up a degree
    want4 = GradedAbelianGroup([(1, ()), (0, ()), (0, ()), (1, ())])
    assert branching_homology(boundary_cube(4)) == want4


def test_branching_homology_l_shape():
    K = l_shape()
    assert branching_homology(K) == GradedAbelianGroup([(2, ()), (1, ())])
    assert merging_homology(K) == GradedAbelianGroup.free(1)


def test_branching_homology_two_squares():
    K = two_squares()
    assert branching_homology(K) == GradedAbelianGroup.free(1)
    assert merging_homology(K) == GradedAbelianGroup.free(1)


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
        assert merging_homology(K) == merging_group_direct(K)


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
        assert branching_homology(R) == merging_homology(K)
        assert merging_homology(R) == branching_homology(K)


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
        assert merging_homology(K) == H
        assert assemble_all(K, "+") == complexes
        for v in K.vertices():
            B = branching_complex(K, v, "+")
            assert B == complexes[v] and (B.side, B.vertex) == ("+", v)
            assert pi0_components(K, v, "+") == components[v]


def test_torsion_summed_across_vertices(monkeypatch):
    # chosen per-vertex groups with torsion, folded into the total group
    # as direct sums of each vertex's shifted reduced group
    K = boundary_cube(3)
    chosen = {
        "000": GradedAbelianGroup([(1, ()), (0, (2,))]),
        "100": GradedAbelianGroup([(2, ()), (1, (3,)), (0, (4,))]),
        "010": GradedAbelianGroup([(1, ()), (0, ()), (0, (2,))]),
    }
    by_basis, per_vertex = {}, {}
    for v, B in assemble_all(K).items():
        if len(B):
            C = chain_complex(B)
            by_basis[C.bases[0]] = v
            per_vertex[v] = chosen.get(v) or homology_of(C)
    monkeypatch.setattr(homology, "homology_of", lambda C: per_vertex[by_basis[C.bases[0]]])

    total = GradedAbelianGroup.free(1)  # the final state 111
    for H in per_vertex.values():
        reduced = ((H.rank(0) - 1, H.torsion(0)),) + H.groups[1:]
        total = direct_sum(total, GradedAbelianGroup(((0, ()),) + reduced))
    assert branching_homology(K) == total
    assert total == GradedAbelianGroup([(1, ()), (1, ()), (1, (6,)), (0, (2, 4))])
