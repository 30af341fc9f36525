"""Exact integer homology: Smith normal form, chain complexes, graded groups."""
import itertools
import random

import pytest

from corpus import corpus20, grid_complex, l_shape, two_squares
from oracles import betti_numbers, low_degrees_via_matrix, merging_group_direct
from precubical.complexes import SemiSimplicialSet, branching_complex
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
    rational_det_is_unit,
    rational_rank,
    smith_diagonal,
    smith_normal_form,
)
from precubical import homology


def snf_is_sound(M):
    D, U, V = smith_normal_form(M)
    assert U @ M @ V == D
    assert rational_det_is_unit(U) and rational_det_is_unit(V)
    diag = D.diagonal()
    for i, row in enumerate(D.data):
        for j, x in enumerate(row):
            assert x == 0 or i == j
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    assert sum(1 for d in diag if d) == rational_rank(M)
    return diag


def test_snf_frozen_examples():
    assert snf_is_sound(Matrix(2, 2, [[2, 0], [0, 3]])) == (1, 6)
    assert snf_is_sound(Matrix(2, 2, [[2, 4], [6, 8]])) == (2, 4)
    assert snf_is_sound(Matrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (1, 1, 1)
    assert snf_is_sound(Matrix(2, 3, [[0, 0, 0], [0, 0, 0]])) == (0, 0)
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


def columns(M):
    return [{i: M.data[i][j] for i in range(M.rows) if M.data[i][j]} for j in range(M.cols)]


def test_smith_diagonal_matches_dense_smith_form(monkeypatch):
    # sparse columns, unit pivots first, leftover through the dense form:
    # the rank and invariant factors must be the dense normal form's
    leftovers = []
    dense = homology.smith_normal_form

    def counted(M):
        leftovers.append(M)
        return dense(M)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
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
        M = Matrix(m, n, [[rng.choice(pool) for _ in range(n)] for _ in range(m)])
        diag = smith_diagonal(columns(M), m)
        D, _, _ = smith_normal_form(M)
        want = [d for d in D.diagonal() if d]
        assert len(diag) == len(want) == rational_rank(M)
        assert invariant_factors(diag) == invariant_factors(want)
        assert all(d > 0 for d in diag)
    assert len(leftovers) > 100
    assert any(M.rows > 1 and M.cols > 1 for M in leftovers)


def test_smith_diagonal_frozen():
    assert smith_diagonal([], 3) == []
    assert smith_diagonal([{}, {}], 2) == []
    assert smith_diagonal([{0: -1}], 1) == [1]
    assert sorted(smith_diagonal([{0: 2}, {1: 3}], 2)) == [1, 6]
    # input columns are left as they were
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert sorted(smith_diagonal(cols, 2)) == [1, 2]
    assert cols == [{0: 1, 1: 1}, {0: 1, 1: -1}]


def test_smith_normal_form_without_transforms_matches_dense():
    # the sparse route returns the same D, with no U or V
    rng = random.Random(2002)
    for trial in range(300):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        pool = (0, 0, 1, -1, 2, -3) if trial % 2 else (0, 0, 0, 1, -1)
        M = Matrix(m, n, [[rng.choice(pool) for _ in range(n)] for _ in range(m)])
        D, U, V = smith_normal_form(M, transforms=False)
        assert U is None and V is None
        assert D == smith_normal_form(M)[0]
        assert D.diagonal() == smith_normal_form(M)[0].diagonal()


def test_matrix_from_columns():
    M = Matrix.from_columns(3, [{0: -1, 2: 1}, {}, {1: 2, 2: 0}])
    assert (M.rows, M.cols) == (3, 3)
    assert M == Matrix(3, 3, [[-1, 0, 0], [0, 0, 2], [1, 0, 0]])
    assert M.diagonal() == (-1, 0, 0)
    assert M.columns == ({0: -1, 2: 1}, {}, {1: 2})
    assert Matrix(2, 1, [[0], [5]]).columns == ({1: 5},)
    assert Matrix.from_columns(2, [{}, {}]).is_zero()
    with pytest.raises(ValueError):
        Matrix.from_columns(2, [{2: 1}])


def test_rational_rank_frozen():
    assert rational_rank(Matrix(2, 2, [[1, 2], [2, 4]])) == 1
    assert rational_rank(Matrix(3, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert rational_rank(Matrix(2, 2)) == 0
    assert rational_rank(Matrix(0, 3)) == 0


def test_matrix_basics():
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(2, 2) @ Matrix(3, 2)
    assert Matrix.identity(3) @ Matrix(3, 1, [[1], [2], [3]]) == Matrix(3, 1, [[1], [2], [3]])


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
    assert (C.boundary(1) @ C.boundary(2)).is_zero()
    assert (C.boundary(2) @ C.boundary(3)).is_zero()
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
        [[{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}], [{0: 1, 1: -1, 2: 1}]],
    )
    assert C.boundary(1) == Matrix(3, 3, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    assert homology_of(C) == GradedAbelianGroup.free(1)
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplex([["a"], ["b"]], [[{1: 1}]])
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplex([["a"], ["b"]], [[{0: 1}, {0: 1}]])
    with pytest.raises(ValueError, match="boundary of boundary is nonzero"):
        ChainComplex([["a"], ["b"], ["c"]], [[{0: 1}], [{0: 1}]])


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
