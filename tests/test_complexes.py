"""Branching/merging complexes and their components."""
import itertools
import re

import pytest

from corpus import corpus20, glued_torsion, l_shape, one_vertex, two_squares
from oracles import UnionFind, nonempty_index, pi0_components
from precubical.complexes import (
    SemiSimplicialSet,
    SimplexId,
    assemble_all,
    branching_complex,
)
from precubical.core import (
    EMPTY,
    PcsError,
    PrecubicalSet,
    boundary_cube,
    extremal_cubes,
    extremal_partition,
    extremal_vertex,
    standard_cube,
    time_reverse,
    validate,
)


def binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_union_find():
    uf = UnionFind("abcde")
    assert uf.num_components == 5
    assert uf.union("a", "b")
    assert uf.union("b", "c")
    assert not uf.union("a", "c")
    assert uf.num_components == 3
    assert uf.components() == [frozenset("abc"), frozenset("d"), frozenset("e")]
    uf.add("a")
    assert uf.num_components == 3


def test_semi_simplicial_rejects_holes_and_broken_identities():
    with pytest.raises(PcsError):
        SemiSimplicialSet({"s": 1, "a": 0}, {("s", 0): "a"})
    # an index that is no whole number is out of range, not a missing face
    for index, shown in (("1", "'1'"), (None, "None"), (0.5, "0.5")):
        with pytest.raises(PcsError, match=f"^face index {re.escape(shown)} out of range on 's'$"):
            SemiSimplicialSet({"s": 1, "a": 0}, {("s", 0): "a", ("s", index): "a"})
    # every face joins two known simplices, one dimension apart
    for faces, message in (
        ({("s", 0): "a", ("s", 1): "zz"}, "face ('s', 1) involves unknown simplices"),
        ({("zz", 0): "a", ("s", 0): "a", ("s", 1): "a"}, "face ('zz', 0) involves unknown simplices"),
        ({("s", 0): "a", ("s", 1): "s"}, "face ('s', 1) drops to wrong dimension"),
    ):
        with pytest.raises(PcsError, match=f"^{re.escape(message)}$"):
            SemiSimplicialSet({"s": 1, "a": 0}, faces)
    # a triangle on vertices v0 < v1 < v2: d_i drops the i-th vertex
    dims = {"t": 2, "e0": 1, "e1": 1, "e2": 1, "v0": 0, "v1": 0, "v2": 0}
    faces = {
        ("t", 0): "e0",
        ("t", 1): "e1",
        ("t", 2): "e2",
        ("e0", 0): "v2",
        ("e0", 1): "v1",
        ("e1", 0): "v2",
        ("e1", 1): "v0",
        ("e2", 0): "v2",  # should be v1 to close the triangle
        ("e2", 1): "v0",
    }
    with pytest.raises(PcsError):
        SemiSimplicialSet(dims, faces)
    faces[("e2", 0)] = "v1"
    S = SemiSimplicialSet(dims, faces)
    assert S.counts() == {0: 3, 1: 3, 2: 1}
    assert S.face("t", 2) == "e2"
    assert S.simplices(2) == (SimplexId("t", 2),)


def test_branching_complex_of_square_corner():
    B = branching_complex(standard_cube(2), "00")
    assert isinstance(B, SemiSimplicialSet)
    assert B.counts() == {0: 2, 1: 1}
    assert B.face("xx", 0) == "0x"
    assert B.face("xx", 1) == "x0"


def test_merging_complex_of_square_corner():
    B = branching_complex(standard_cube(2), "11", side="+")
    assert B.counts() == {0: 2, 1: 1}
    assert B.face("xx", 0) == "1x"
    assert B.face("xx", 1) == "x1"
    assert branching_complex(standard_cube(2), "00", side="+").counts() == {}


def test_corner_complexes_are_full_simplices():
    # at a vertex with z zero coordinates, the branching complex of the full
    # cube is the (z-1)-simplex: C(z, k+1) simplices in dimension k
    for n in range(5):
        K = standard_cube(n)
        for v in K.vertices():
            z = v.count("0") if n > 0 else 0
            B = branching_complex(K, v)
            want = {k: binom(z, k + 1) for k in range(z) if binom(z, k + 1)}
            assert B.counts() == want


def test_boundary_corner_complex_drops_top_simplex():
    B = branching_complex(boundary_cube(3), "000")
    assert B.counts() == {0: 3, 1: 3}
    assert B.face("xx0", 0) == "0x0"
    assert B.face("xx0", 1) == "x00"
    assert B.face("x0x", 0) == "0x0" or B.face("x0x", 0) == "00x"
    # other vertices still carry full simplices
    assert branching_complex(boundary_cube(3), "110").counts() == {0: 1}
    assert branching_complex(boundary_cube(3), "100").counts() == {0: 2, 1: 1}


def test_branching_complex_requires_vertex():
    with pytest.raises(PcsError):
        branching_complex(standard_cube(2), "xx")
    with pytest.raises(PcsError):
        branching_complex(standard_cube(2), "nope")


def test_assemble_all_square():
    table = assemble_all(standard_cube(2))
    assert set(table) == {"00", "01", "10", "11"}
    assert len(table["11"]) == 0
    assert {v for v, B in table.items() if len(B)} == {"00", "01", "10"}


def test_nonempty_index():
    assert nonempty_index(0) == frozenset()
    assert nonempty_index(2) == {"00", "01", "10"}
    assert nonempty_index(2, side="+") == {"01", "10", "11"}
    for n in range(5):
        K = standard_cube(n)
        for side in "-+":
            brute = frozenset(
                v for v in K.vertices() if len(branching_complex(K, v, side)) > 0
            )
            assert brute == nonempty_index(n, side)


def test_bad_side_is_refused_first():
    # one ValueError for a side that is neither '-' nor '+', raised before
    # an invalid complex is noticed
    K = standard_cube(2)
    holes = PrecubicalSet({"v": 0, "e": 1}, {})
    calls = [
        lambda side: extremal_vertex(K, "xx", side),
        lambda side: extremal_partition(EMPTY, side),
        lambda side: extremal_cubes(K, "00", side),
        lambda side: assemble_all(holes, side),
        lambda side: branching_complex(holes, "v", side),
        lambda side: pi0_components(holes, "v", side),
    ]
    for call in calls:
        for side in ("x", 0, None):
            message = f"side must be '-' or '+', got {side!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(side)


def test_pi0_square_and_hollow_square():
    assert pi0_components(standard_cube(2), "00") == (frozenset({"0x", "x0", "xx"}),)
    assert pi0_components(boundary_cube(2), "00") == (
        frozenset({"0x"}),
        frozenset({"x0"}),
    )
    assert pi0_components(boundary_cube(2), "11") == ()
    assert pi0_components(boundary_cube(2), "11", side="+") == (
        frozenset({"1x"}),
        frozenset({"x1"}),
    )


def test_pi0_hollow_cube_connected():
    parts = pi0_components(boundary_cube(3), "000")
    assert len(parts) == 1
    assert parts[0] == {"x00", "0x0", "00x", "xx0", "x0x", "0xx"}


def test_pi0_l_shape_inner_corner():
    K = l_shape()
    by_count = {}
    for v in K.vertices():
        by_count[v] = len(pi0_components(K, v))
    # the inner corner (1,1) sees two separate escapes; everything else is
    # connected or empty
    assert by_count["1.1"] == 2
    assert sorted(by_count.values(), reverse=True) == [2, 1, 1, 1, 1, 1, 0, 0]


def test_pi0_two_squares_trivial():
    K = two_squares()
    assert all(len(pi0_components(K, v)) <= 1 for v in K.vertices())
    assert all(len(pi0_components(K, v, "+")) <= 1 for v in K.vertices())


def test_pi0_matches_complex_membership_on_corpus():
    # the partition must cover exactly the simplices of the complex, and
    # match on the time-reversed complex with the opposite side
    for K in corpus20()[:8]:
        assert validate(K) == []
        R = time_reverse(K)
        for v in K.vertices():
            parts = pi0_components(K, v)
            B = branching_complex(K, v)
            assert sorted(itertools.chain.from_iterable(parts)) == sorted(
                s.name for s in B.simplices()
            )
            assert parts == pi0_components(R, v, side="+")


def test_one_pass_grouping_matches_per_vertex_scans():
    # assemble_all groups the cubes in a single sweep; it must agree with
    # the one-vertex functions everywhere, on both sides, and the
    # union-find components of each assembled complex must agree with the
    # direct cube-data partition
    # glued_torsion and one_vertex have loops, and simplices whose faces are
    # all one simplex
    inputs = [standard_cube(3), boundary_cube(3), l_shape(), glued_torsion(), one_vertex(40, 1)]
    for K in inputs + corpus20()[:4]:
        for side in ("-", "+"):
            groups = extremal_partition(
                time_reverse(K) if side == "+" else K
            )
            assert set(groups) == set(K.vertices())
            every = assemble_all(K, side)
            assert set(every) == set(K.vertices())
            for v in K.vertices():
                assert groups[v] == extremal_cubes(
                    time_reverse(K) if side == "+" else K, v
                )
                B = every[v]
                assert B == branching_complex(K, v, side)
                want = sorted(map(sorted, pi0_components(K, v, side)))
                assert sorted(map(sorted, B.components())) == want
