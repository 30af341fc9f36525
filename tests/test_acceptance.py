"""Acceptance checklist: twelve exact end-to-end guarantees, one test each.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
item.  Every check is exact integer or rational arithmetic; there are no
tolerances anywhere.  The shared corpus mixes the standard cubes and their
boundaries with the named fixtures and a frozen batch of twenty random
complexes (dimension <= 3, at most 40 cubes each).
"""
import random
from fractions import Fraction

from corpus import corpus20, glued_torsion, hollow_cube, hollow_square, l_shape, two_squares
from oracles import (
    EMPTY_WORD_NAME,
    boundary_words_of,
    composite_is_zero,
    is_isomorphism,
    nonempty_index,
    pi0_components,
    rational_rank,
    smith_diagonal_by_minors,
    word_face,
)
from precubical.complexes import (
    assemble_all,
    branching_complex,
)
from precubical.core import (
    PLUS,
    STAR,
    CubeId,
    attach_cube,
    boundary_cube,
    final_states,
    standard_cube,
    time_reverse,
    truncate,
    validate,
)
from precubical.dipath import (
    convex_comb,
    diagonal_path,
    embed_face,
    extend_full,
    gamma_h,
    germ_equal,
    make_path,
    restrict,
    sample,
    sup_distance,
    zero_set,
)
from precubical.homology import (
    GradedAbelianGroup,
    Matrix,
    branching_homology,
    chain_complex,
    homology_of,
    smith_normal_form,
)
from precubical.subdivision import sub_compose_iso, subdivide

free = GradedAbelianGroup.free


def corpus():
    out = [standard_cube(n) for n in range(4)]
    out += [boundary_cube(n) for n in range(1, 4)]
    out += [hollow_square(), hollow_cube(), two_squares(), l_shape()]
    out += corpus20()
    return out


CORPUS = corpus()


def vertex_homology(K, vertex):
    return homology_of(chain_complex(branching_complex(K, vertex)))


def assert_simplicial_iso(A, B, mapping):
    """mapping must be a dimension-preserving bijection commuting with faces."""
    assert sorted(mapping) == sorted(s.name for s in A.simplices())
    assert sorted(mapping.values()) == sorted(s.name for s in B.simplices())
    for s in A.simplices():
        assert B.dim_of(mapping[s.name]) == s.dim
        for i in range(s.dim + 1) if s.dim >= 1 else ():
            assert B.face(mapping[s.name], i) == mapping[A.face(s.name, i)]


def test_01_corner_complex_of_the_full_cube_is_contractible():
    # the cubes out of the start corner of the solid n-cube form a full
    # simplex, so their homology is that of a point
    for n in range(1, 6):
        H = vertex_homology(standard_cube(n), "0" * n)
        assert H == free(1), f"n={n}: {H}"


def test_02_corner_complexes_of_cube_boundaries_are_spheres():
    # dropping the top cube punctures the simplex: the start corner of the
    # hollow n-cube sees a sphere of dimension n-2
    want = {
        2: free(2),
        3: free(1, 1),
        4: free(1, 0, 1),
        5: free(1, 0, 0, 1),
    }
    for n, H_sphere in want.items():
        H = vertex_homology(boundary_cube(n), "0" * n)
        assert H == H_sphere, f"n={n}: {H}"


def test_03_every_vertex_complex_reduces_to_a_corner_complex():
    # at a vertex with d zero coordinates, only the d free axes can branch,
    # so the complex is the corner complex of the solid d-cube; the vertices
    # with anything to see are exactly the nonempty index
    for n in range(5):
        K = standard_cube(n)
        every = assemble_all(K)
        assert {v for v, B in every.items() if len(B)} == nonempty_index(n)
        for alpha, B in every.items():
            zeros = [i for i, ch in enumerate(alpha) if ch == "0"]
            d = len(zeros)
            corner = branching_complex(standard_cube(d), "0" * d or EMPTY_WORD_NAME)
            mapping = {
                s.name: "".join(s.name[i] for i in zeros) for s in B.simplices()
            }
            assert_simplicial_iso(B, corner, mapping)


def test_04_attaching_a_cube_changes_exactly_one_complex():
    # gluing a fresh cube adds one simplex at its start vertex, with the
    # faces the boundary assignment prescribes, and changes nothing anywhere
    # else; 100 randomized trials over the corpus
    rng = random.Random(4)
    for trial in range(100):
        K = CORPUS[rng.randrange(len(CORPUS))]
        positive = [c for c in K.cubes() if c.dim >= 1]
        if positive and rng.random() < 0.7:
            # a parallel copy of an existing cube, same boundary
            c = positive[rng.randrange(len(positive))]
            n = c.dim
            words = boundary_words_of(K, c.name)
        else:
            # a fresh edge between two (not necessarily distinct) vertices
            n = 1
            verts = K.vertices()
            words = {
                "0": verts[rng.randrange(len(verts))],
                "1": verts[rng.randrange(len(verts))],
            }
        before = assemble_all(K)
        L, new = attach_cube(K, n, words)
        after = assemble_all(L)
        v0 = words["0" * n]
        for v in K.vertices():
            if v != v0:
                assert after[v] == before[v], f"trial {trial}: {v} changed"
        gained = {s.name for s in after[v0].simplices()} - {
            s.name for s in before[v0].simplices()
        }
        assert gained == {new}
        assert after[v0].dim_of(new) == n - 1
        for i in range(n - 1 + 1) if n >= 2 else ():
            assert after[v0].face(new, i) == words[word_face(STAR * n, i + 1, 0)]
        for s in before[v0].simplices():
            assert after[v0].dim_of(s.name) == s.dim
            for i in range(s.dim + 1) if s.dim >= 1 else ():
                assert after[v0].face(s.name, i) == before[v0].face(s.name, i)


def test_05_attachment_order_does_not_matter():
    # rebuilding each corpus complex cube by cube, in five random orders
    # that only respect dimension, lands on the same complex and the same
    # branching complexes at every vertex
    rng = random.Random(5)
    for K in CORPUS:
        reference = assemble_all(K)
        by_dim = {}
        for c in K.cubes():
            if c.dim >= 1:
                by_dim.setdefault(c.dim, []).append(c.name)
        for _ in range(5):
            order = []
            for d in sorted(by_dim):
                batch = by_dim[d][:]
                rng.shuffle(batch)
                order.extend((name, d) for name in batch)
            L = truncate(K, 0)
            for name, d in order:
                L, _ = attach_cube(L, d, boundary_words_of(K, name), name=name)
            assert L == K
            rebuilt = assemble_all(L)
            for v in K.vertices():
                # equal on the nose (names are kept), hence isomorphic
                assert rebuilt[v] == reference[v]


def test_06_branching_homology_reference_values():
    for n in range(5):
        assert branching_homology(standard_cube(n)) == free(1)
    assert branching_homology(boundary_cube(2)) == free(1, 1)
    assert branching_homology(boundary_cube(3)) == free(1, 0, 1)
    # torsion from a precubical set glued to itself: Z/2 branching, and
    # Z/2 + Z/2 merging
    glued = GradedAbelianGroup([(0, ()), (0, ()), (0, (2,))])
    assert branching_homology(glued_torsion()) == glued
    glued = GradedAbelianGroup([(0, ()), (0, ()), (0, (2, 2))])
    assert branching_homology(glued_torsion(), PLUS) == glued
    for K in CORPUS:
        assert branching_homology(K).rank(0) == len(final_states(K))


def test_07_subdivision_preserves_homology():
    # subdividing by p = 2, 3 changes neither the branching nor the merging
    # homology, and at every original vertex the local complex keeps its
    # homology too
    for K in CORPUS:
        assert validate(K) == []
        assert K.dim <= 3 and len(K.cubes()) <= 40
        Hb = branching_homology(K)
        Hm = branching_homology(K, PLUS)
        local = {
            v: homology_of(chain_complex(B)) for v, B in assemble_all(K).items()
        }
        for p in (2, 3):
            S = subdivide(K, p).complex
            assert branching_homology(S) == Hb
            assert branching_homology(S, PLUS) == Hm
            sub_local = assemble_all(S)
            for v, H in local.items():
                assert homology_of(chain_complex(sub_local[v])) == H


def test_08_subdivision_functoriality_and_counts():
    for K in CORPUS:
        assert subdivide(K, 1).complex == K
        assert is_isomorphism(sub_compose_iso(K, 2, 3))
    binom = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1]]
    for n in range(5):
        for p in (1, 2, 3):
            S = subdivide(standard_cube(n), p).complex
            for k in range(n + 1):
                want = binom[n][k] * p**k * (p + 1) ** (n - k)
                assert len(S.cubes(k)) == want, (n, p, k)
    assert len(subdivide(standard_cube(2), 3).complex.cubes(2)) == 9


def test_09_short_path_family_and_germ_failure():
    # the bent paths converge to the diagonal yet every one of them agrees
    # with the boundary edge path near zero, and the diagonal never touches
    # the boundary on any initial stretch: germs cannot tell them apart
    eps = Fraction(1, 2)
    diagonal = diagonal_path(2, eps)
    on_face = make_path(CubeId("0x", 1), eps, (0, eps), ((0,), (eps,)))
    edge = embed_face(on_face, standard_cube(2), "xx", 1)
    for m in range(3, 65):
        h = Fraction(1, m)
        bent = gamma_h(h, eps)
        assert sup_distance(bent, diagonal) == Fraction(1, 2 * m)
        assert germ_equal(bent, edge, h)
    for eps2 in (Fraction(1, 64), Fraction(1, 8), Fraction(1, 4)):
        assert zero_set(restrict(diagonal, eps2)) == frozenset()


def test_10_component_counts_match_matrix_ranks():
    # the union-find route and the Smith-normal-form route must agree on
    # degree zero at every vertex of every corpus member
    for K in CORPUS:
        for v in K.vertices():
            assert vertex_homology(K, v).rank(0) == len(pi0_components(K, v))
    # the normal form vs determinantal divisors, and its integer rank vs
    # rank by rational elimination
    rng = random.Random(10)
    for _ in range(100):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        M = Matrix(rows, cols, data)
        diag = smith_normal_form(M)
        assert diag == smith_diagonal_by_minors(data)
        assert len(diag) == rational_rank(M)
    # the square of the boundary map vanishes in every chain complex
    for K in CORPUS:
        for B in assemble_all(K).values():
            C = chain_complex(B)
            for k in range(1, C.top_degree + 1):
                assert composite_is_zero(C.boundary(k), C.boundary(k + 1))


def test_11_time_reversal_duality():
    for K in CORPUS:
        R = time_reverse(K)
        assert time_reverse(R) == K
        assert branching_homology(K, PLUS) == branching_homology(R)


def test_12_sampled_path_invariants():
    # a thousand sampled paths, each re-checked against the raw invariants,
    # and the standard operations keep every one of them valid
    lengths = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(9, 10))

    def assert_natural(path):
        ts, vs = path.times, path.values
        n = path.carrier.dim
        assert n >= 1
        assert len(ts) == len(vs) >= 2
        assert ts[0] == 0
        assert all(isinstance(t, Fraction) for t in ts)
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert 0 < ts[-1] <= n
        assert vs[0] == (Fraction(0),) * n
        for t, v in zip(ts, vs):
            assert len(v) == n
            assert all(isinstance(x, Fraction) and 0 <= x <= 1 for x in v)
            assert sum(v) == t
        for a, b in zip(vs, vs[1:]):
            assert all(x <= y for x, y in zip(a, b))
        for i in range(1, len(ts) - 1):
            dl = ts[i] - ts[i - 1]
            dr = ts[i + 1] - ts[i]
            left = tuple((vs[i][k] - vs[i - 1][k]) * dr for k in range(n))
            right = tuple((vs[i + 1][k] - vs[i][k]) * dl for k in range(n))
            assert left != right, "collinear interior breakpoint survived"

    for seed in range(1000):
        n = 1 + seed % 3
        m = 1 + seed % 5
        eps = lengths[seed % 4]
        g = sample(n, eps, m, seed)
        assert_natural(g)
        assert_natural(restrict(g, eps / 2))
        full = extend_full(g)
        assert_natural(full)
        assert restrict(full, g.eps) == g
        mixed = convex_comb(Fraction(seed % 4, 3), g, diagonal_path(n, eps))
        assert_natural(mixed)
