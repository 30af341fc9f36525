import itertools
import math
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from corpus import corpus20, glued_torsion, grid_boxes, hollow_cube, hollow_square, l_shape
from oracles import (
    boundary_words_of,
    branching_homology_per_vertex,
    cell_faces,
    emit_reference,
    grid_reference,
    is_isomorphism,
    sub_standard,
    subdivide_reference,
)
from precubical.complexes import branching_complex
from precubical.core import (
    PcsError,
    PcsMorphism,
    PrecubicalSet,
    attach_cube,
    boundary_cube,
    standard_cube,
    time_reverse,
    validate,
)
from precubical.homology import branching_homology, graded_iso, merging_homology
from precubical import core
from precubical.pcsfile import emit_pcs, parse_pcs
from precubical.subdivision import grid_complex, normalize_pair, sub_compose_iso, subdivide


def cell_name(codes):
    """The grid cell name of a code tuple: 2a is the point a, 2a+1 the
    interval [a, a+1]."""
    return ".".join(
        f"{c // 2}-{c // 2 + 1}" if c % 2 else f"{c // 2}" for c in codes
    ) or "e"


def test_cell_codes_basics():
    # codes (1, 2, 5) in the order-3 grid: [0, 1] x {1} x [2, 3]
    S = sub_standard(3, 3)
    assert cell_name((1, 2, 5)) == "0-1.1.2-3"
    assert S.dim_of("0-1.1.2-3") == 2
    assert S.face("0-1.1.2-3", 1, 1) == "1.1.2-3"
    assert S.face("0-1.1.2-3", 2, 0) == "0-1.1.2"
    assert sub_standard(2, 0).vertices() == ("e",)
    with pytest.raises(PcsError):
        S.face("0-1.1.2-3", 3, 0)
    K = standard_cube(3)
    assert normalize_pair(K, "xxx", (1, 2, 5), 3) == ("xxx", (1, 2, 5))
    # interval [3, 4], point 4 and a negative code lie outside the grid
    for bad in ((7, 1, 1), (1, 8, 1), (1, 1, -1)):
        with pytest.raises(PcsError):
            normalize_pair(K, "xxx", bad, 3)
    with pytest.raises(PcsError):
        normalize_pair(K, "xxx", (1, 1), 3)


def test_grid_complex_frozen():
    L = grid_complex([(0, 0), (1, 0), (0, 1)])
    assert L.counts() == {0: 8, 1: 10, 2: 3}
    assert L.face("0-1.1-2", 2, 0) == "0-1.1"
    assert not validate(L)


def test_sub_standard_counts():
    for n in range(5):
        for p in range(1, 4):
            S = sub_standard(p, n)
            got = S.counts()
            for k in range(n + 1):
                assert got.get(k, 0) == comb(n, k) * p**k * (p + 1) ** (n - k)
            assert not validate(S)


def test_sub_standard_small():
    S = sub_standard(2, 1)
    assert S.counts() == {0: 3, 1: 2}
    assert S.face("0-1", 1, 1) == "1"
    assert S.face("1-2", 1, 0) == "1"


def test_subdivide_matches_sub_standard():
    # Once boundary cells are rewritten onto the cube's faces, the direct
    # grid construction and the pair construction agree cell by cell.
    for n in range(4):
        for p in (2, 3):
            K = standard_cube(n)
            sub = subdivide(K, p)
            S = sub_standard(p, n)
            full = "x" * n if n else "e"
            mapping = {}
            for codes in itertools.product(range(2 * p + 1), repeat=n):
                pair = normalize_pair(K, full, codes, p)
                mapping[cell_name(codes)] = sub.names[pair]
            iso = PcsMorphism(S, sub.complex, mapping)
            assert is_isomorphism(iso)


def test_subdivide_order_one_is_identity():
    for K in (standard_cube(2), hollow_square(), l_shape()):
        sub = subdivide(K, 1)
        assert sub.complex is K
        assert set(sub.pairs) == {c.name for c in K.cubes()}


def test_subdivide_total_counts():
    for K in (hollow_square(), l_shape(), hollow_cube()):
        for p in (2, 3):
            sub = subdivide(K, p)
            expected = sum((2 * p - 1) ** c.dim for c in K.cubes())
            assert len(sub.complex) == expected
            assert not validate(sub.complex)


def test_subdivide_keeps_original_vertices():
    K = l_shape()
    for p in (2, 3, 4):
        L = subdivide(K, p).complex
        for v in K.vertices():
            assert v in L and L.dim_of(v) == 0


def test_subdivided_edge_frozen():
    L = subdivide(standard_cube(1), 2).complex
    assert L.counts() == {0: 3, 1: 2}
    assert L.face("x.0-1", 1, 0) == "0"
    assert L.face("x.0-1", 1, 1) == "x.1"
    assert L.face("x.1-2", 1, 0) == "x.1"
    assert L.face("x.1-2", 1, 1) == "1"


def test_normalize_pair_frozen():
    K = standard_cube(2)
    assert normalize_pair(K, "xx", (0, 4), 2) == ("01", ())
    assert normalize_pair(K, "xx", (3, 4), 2) == ("x1", (3,))
    assert normalize_pair(K, "xx", (2, 1), 2) == ("xx", (2, 1))


def _all_reductions(K, base, codes, grid):
    hits = [pos for pos, c in enumerate(codes) if c in (0, 2 * grid)]
    if not hits:
        return {(base, tuple(codes))}
    out = set()
    for pos in hits:
        alpha = 0 if codes[pos] == 0 else 1
        out |= _all_reductions(
            K,
            K.face(base, pos + 1, alpha),
            codes[:pos] + codes[pos + 1 :],
            grid,
        )
    return out


def test_normalize_pair_confluent():
    # Boundary entries may be rewritten in any order; every order must end
    # on the same pair.
    for n, p in ((2, 2), (2, 3), (3, 2)):
        K = standard_cube(n)
        full = "x" * n
        for codes in itertools.product(range(2 * p + 1), repeat=n):
            results = _all_reductions(K, full, codes, p)
            assert len(results) == 1
            assert normalize_pair(K, full, codes, p) == results.pop()


def sources():
    """data/*.pcs, the random corpus, the cubes and their boundaries of
    dimension 0-4 and the glued fixture."""
    data = Path(__file__).resolve().parent.parent / "data"
    out = [parse_pcs(path.read_text()) for path in sorted(data.glob("*.pcs"))]
    out += corpus20() + [f(n) for n in range(5) for f in (standard_cube, boundary_cube)]
    return out + [glued_torsion()]


def test_subdivided_faces_are_normal_forms_of_their_raw_codes():
    # subdivide reads a face that reaches the outer boundary as one facet of
    # the base cube; normalize_pair rewrites the raw codes one by one
    for K in sources():
        for p in (2, 3):
            sub = subdivide(K, p)
            for name, (base, codes) in sub.pairs.items():
                for j, alpha, raw in cell_faces(codes):
                    pair = normalize_pair(K, base, raw, p)
                    assert sub.complex.face(name, j, alpha) == sub.names[pair]


def test_subdivide_matches_reference():
    # the template route and the per-cell route build the same tables in
    # the same order and emit the same text; past p = 1, which returns K
    # itself, every facet entry is the very str that keys its dims
    for K in sources():
        for p in (1, 2, 3, 4):
            sub = subdivide(K, p)
            pairs, names, dims, facets = subdivide_reference(K, p)
            L = sub.complex
            assert list(sub.pairs.items()) == list(pairs.items())
            assert list(sub.names.items()) == list(names.items())
            assert list(L._dims.items()) == list(dims.items())
            assert list(L._facets.items()) == list(facets.items())
            key = {c: c for c in L._dims}
            for c, F in L._facets.items() if p > 1 else ():
                assert c is key[c] and all(t is key[t] for t in F)
            assert emit_pcs(L) == emit_reference(L)


def assert_same_tables(L, dims, facets):
    """L has these tables in this order, and every facet entry is the very
    str that keys its dims."""
    assert list(L._dims.items()) == list(dims.items())
    assert list(L._facets.items()) == list(facets.items())
    key = {c: c for c in L._dims}
    for c, F in L._facets.items():
        assert c is key[c] and all(t is key[t] for t in F)


def test_grid_template_builders_match_reference():
    # the positional template against faces found by `cell_faces` and
    # looked up by their codes: the template itself on subdivide's axes,
    # where a face may reach an outer code; the cubes, their boundaries and
    # grid complexes; and attach_cube's word form against its slot form
    for p in (2, 3, 4):
        axis = [*range(1, 2 * p, 2), *range(2, 2 * p, 2)]
        for d in range(4):
            grid, faces = core._grid_template(axis, d)
            assert grid == list(itertools.product(axis, repeat=d))
            at = {codes: x for x, codes in enumerate(grid)}
            lower = itertools.product(axis, repeat=max(d - 1, 0))
            lower = {codes: y for y, codes in enumerate(lower)}
            for codes, F in zip(grid, faces):
                want = []
                for _, alpha, raw in cell_faces(codes):
                    k = next(k for k, (c, e) in enumerate(zip(codes, raw)) if c != e)
                    outer = len(at) + (2 * k + alpha) * len(lower)  # facet 2k + alpha
                    want.append(at[raw] if raw in at else outer + lower[raw[:k] + raw[k + 1:]])
                assert F == want
    for n in range(7):
        cells = {codes: "".join("0x1"[c] for c in codes) or "e"
                 for codes in itertools.product(range(3), repeat=n)}
        assert_same_tables(standard_cube(n), *grid_reference(cells))
        del cells[(1,) * n]
        assert_same_tables(boundary_cube(n), *grid_reference(cells))
    for boxes in grid_boxes():
        cells = {}
        for box in boxes:
            for codes in itertools.product(*[(2 * b, 2 * b + 1, 2 * b + 2) for b in box]):
                cells.setdefault(codes, cell_name(codes))
        assert_same_tables(grid_complex(boxes), *grid_reference(cells))
    for K in sources():
        for c in K.cubes():
            slots = {(i, a): K.face(c.name, i, a) for i in range(1, c.dim + 1) for a in (0, 1)}
            L, _ = attach_cube(K, c.dim, boundary_words_of(K, c.name), "new")
            M, _ = attach_cube(K, c.dim, slots, "new")
            assert list(L._dims.items()) == list(M._dims.items())
            assert list(L._facets.items()) == list(M._facets.items())


def test_subdivide_name_collision():
    # a base vertex named like a cell of another base, and two bases of
    # dimension 1 and 2 with a cell name in common ("a.0-1.0-1" is the
    # edge's first cell and the square's): both routes name the same cell
    dims = {"E.1": 0, "v": 0, "E": 1}
    faces = {("E", 1, 0): "E.1", ("E", 1, 1): "v"}
    square_dims, square_faces = standard_cube(2).as_tables()
    dims2 = {"a" if c == "xx" else c: d for c, d in square_dims.items()} | {"a.0-1": 1}
    faces2 = {("a" if k[0] == "xx" else k[0], *k[1:]): t for k, t in square_faces.items()}
    faces2 |= {("a.0-1", 1, 0): "00", ("a.0-1", 1, 1): "11"}
    for K, name in ((PrecubicalSet(dims, faces), "E.1"),
                    (PrecubicalSet(dims2, faces2), "a.0-1.0-1")):
        message = f"subdivision name collision on {name!r}; rename the source cubes"
        with pytest.raises(PcsError) as e:
            subdivide(K, 2)
        assert str(e.value) == message
        with pytest.raises(PcsError) as e:
            subdivide_reference(K, 2)
        assert str(e.value) == message


def test_subdivide_order_must_be_an_integer():
    # as for a face axis, a value equal to an int is read as that int and
    # any other is refused before the complex is looked at, also on a
    # complex of vertices only, where no grid is built
    vertices = PrecubicalSet({"a": 0, "b": 0}, {})
    unchecked = parse_pcs("pcs 1\ncube a 1\n", validate=False)
    for K in (standard_cube(1), vertices):
        sub = subdivide(K, 2.0)
        assert type(sub.order) is int and sub.order == 2
        assert sub.complex == subdivide(K, 2).complex
        assert subdivide(K, True).order == 1 and subdivide(K, True).complex is K
        iso = sub_compose_iso(K, 2.0, 3.0)
        assert iso.mapping == sub_compose_iso(K, 2, 3).mapping and is_isomorphism(iso)
        for p in (1.5, 2.5, Fraction(5, 2), "2", None, math.inf, math.nan):
            for call in (lambda: subdivide(K, p), lambda: subdivide(unchecked, p),
                         lambda: sub_compose_iso(K, p, 2), lambda: sub_compose_iso(K, 2, p)):
                with pytest.raises(PcsError, match="subdivision order must be an integer"):
                    call()


def test_glued_torsion_survives_subdivision():
    # one vertex, a loop, squares and 3-cubes glued to themselves: torsion
    # from a precubical set through both homologies, the per-vertex route
    # and subdivision at p = 2, 3, 4
    K = glued_torsion()
    assert validate(K) == []
    branching = ((0, ()), (0, ()), (0, (2,)))
    merging = ((0, ()), (0, ()), (0, (2, 2)))
    assert branching_homology(K).groups == branching
    assert merging_homology(K).groups == merging
    assert branching_homology_per_vertex(K).groups == branching
    assert branching_homology_per_vertex(K, "+").groups == merging
    for p, cells in ((2, 112), (3, 456), (4, 1184)):
        L = subdivide(K, p).complex
        assert len(L) == cells and validate(L) == []
        assert branching_homology(L).groups == branching
        assert merging_homology(L).groups == merging
    assert is_isomorphism(sub_compose_iso(K, 2, 3))


def test_subdivide_vertices_at_a_huge_order_is_fast():
    # vertices alone come through any order unchanged, with no grid built
    K = PrecubicalSet({"a": 0, "b": 0}, {})
    start = time.perf_counter()
    for p in (10**6, 10**12):
        S = subdivide(K, p)
        assert S.complex == K and S.pairs == {"a": ("a", ()), "b": ("b", ())}
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PcsError, match="more than 1000000 cells"):
        subdivide(standard_cube(1), 10**6)


def test_grid_complex_of_a_huge_box_is_refused_fast():
    # a box's 3**d cells are counted before any of them is built
    start = time.perf_counter()
    with pytest.raises(PcsError, match="the grid complex would have more than 1000000 cells"):
        grid_complex([(0,) * 13])
    assert time.perf_counter() - start < 1.0


def test_grid_complex_refuses_bad_coordinates_fast():
    # each coordinate is checked before its box is built: an int of fewer
    # than 100 digits
    start = time.perf_counter()
    for coordinate in (0.5, "a", 10**5000, -(10**99), 10**99):
        with pytest.raises(PcsError, match="not an int of fewer than 100 digits"):
            grid_complex([(0, 0), (1, coordinate)])
    # and each box is a sequence of coordinates
    for box, shown in ((5, "5"), (None, "None"), (iter([0, 1]), "<list_iterator")):
        message = f"^grid box {shown}.* is not a sequence of coordinates$"
        with pytest.raises(PcsError, match=message):
            grid_complex([(0, 0), box])
    assert time.perf_counter() - start < 1.0
    assert len(grid_complex([(10**99 - 1, -(10**99) + 1)])) == 9


def test_sub_compose_iso():
    iso = sub_compose_iso(standard_cube(1), 2, 3)
    assert len(iso.source) == 13 and len(iso.target) == 13
    assert is_isomorphism(iso)
    for K in (standard_cube(2), hollow_square(), l_shape()):
        for p, q in ((2, 3), (3, 2), (1, 3), (3, 1), (2, 2)):
            iso = sub_compose_iso(K, p, q)
            assert is_isomorphism(iso)
            assert len(iso.source) == len(subdivide(K, p * q).complex)


def test_subdivide_commutes_with_time_reverse():
    for K in (standard_cube(2), hollow_square(), l_shape()):
        for p in (2, 3):
            sub = subdivide(K, p)
            flipped = subdivide(time_reverse(K), p)
            mapping = {}
            for name, (base, codes) in sub.pairs.items():
                mapping[name] = flipped.names[(base, tuple(2 * p - c for c in codes))]
            iso = PcsMorphism(time_reverse(sub.complex), flipped.complex, mapping)
            assert is_isomorphism(iso)


def test_branching_complex_survives_subdivision():
    # Cells starting at an original vertex are exactly the all-low-interval
    # refinements of the cubes starting there, so the two complexes match
    # simplex for simplex.
    for K in (hollow_square(), l_shape(), boundary_cube(3)):
        for p in (2, 3):
            sub = subdivide(K, p)
            for v in K.vertices():
                B = branching_complex(K, v, "-")
                BL = branching_complex(sub.complex, v, "-")
                rename = {}
                for s in B.simplices():
                    rename[s.name] = sub.names[(s.name, (1,) * (s.dim + 1))]
                assert {rename[s.name] for s in B.simplices()} == {
                    s.name for s in BL.simplices()
                }
                for s in B.simplices():
                    if s.dim == 0:
                        continue
                    for i in range(s.dim + 1):
                        assert rename[B.face(s.name, i)] == BL.face(rename[s.name], i)


def test_subdivision_homology_smoke():
    K = hollow_square()
    for p in (2, 3):
        L = subdivide(K, p).complex
        assert graded_iso(branching_homology(K), branching_homology(L))


def test_random_complexes_subdivide_cleanly():
    rng = random.Random(7)
    from corpus import random_complex

    for _ in range(4):
        K = random_complex(rng)
        sub = subdivide(K, 2)
        assert not validate(sub.complex)
        assert len(sub.complex) == sum((2 * 2 - 1) ** c.dim for c in K.cubes())


def test_size_guard_counts_subdivisions_exactly(monkeypatch):
    with pytest.raises(PcsError, match="more than 1000000 cells"):
        subdivide(hollow_cube(), 1000)
    with pytest.raises(PcsError, match="the grid complex would have more than 1000000 cells"):
        grid_complex(itertools.product(range(1000), repeat=2))
    # the hollow square at p = 2 has 4 + 4 * 3 cells; the 2 x 2 grid 5 * 5
    # from 4 boxes of 9, which share faces
    monkeypatch.setattr(core, "MAX_CELLS", 16)
    assert len(subdivide(hollow_square(), 2).complex) == 16
    with pytest.raises(PcsError):
        subdivide(hollow_square(), 3)
    monkeypatch.setattr(core, "MAX_CELLS", 24)
    with pytest.raises(PcsError):
        grid_complex(itertools.product(range(2), repeat=2))
    monkeypatch.setattr(core, "MAX_CELLS", 25)
    assert len(grid_complex(itertools.product(range(2), repeat=2))) == 25
