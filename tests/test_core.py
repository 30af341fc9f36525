"""Core precubical-set machinery: construction, faces, validation."""
import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from corpus import corpus20
from oracles import (
    EMPTY_WORD_NAME,
    attach_reference,
    boundary_words_of,
    cube_words,
    is_isomorphism,
    validate_reference,
    word_face,
)
from precubical.complexes import SemiSimplicialSet
from precubical.core import (
    EMPTY,
    CubeId,
    MissingFaceError,
    MorphismError,
    PcsError,
    PcsMorphism,
    PrecubicalSet,
    UnknownCubeError,
    Violation,
    attach_cube,
    boundary_cube,
    check_cells,
    check_valid,
    extremal_cubes,
    extremal_vertex,
    final_states,
    initial_states,
    standard_cube,
    time_reverse,
    truncate,
    validate,
)
from precubical import core
from precubical.pcsfile import emit_pcs, parse_pcs
from precubical.subdivision import normalize_pair, subdivide


def binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_standard_cube_counts():
    # grade k of the n-cube has C(n, k) * 2**(n-k) cubes, 3**n in total
    for n in range(5):
        K = standard_cube(n)
        assert K.counts() == {k: binom(n, k) * 2 ** (n - k) for k in range(n + 1)}
        assert len(K) == 3**n
        assert K.dim == n


def test_standard_cube_faces_frozen():
    K = standard_cube(2)
    assert K.face("xx", 1, 0) == "0x"
    assert K.face("xx", 1, 1) == "1x"
    assert K.face("xx", 2, 0) == "x0"
    assert K.face("xx", 2, 1) == "x1"
    assert K.face("0x", 1, 0) == "00"
    assert K.face("0x", 1, 1) == "01"
    assert K.face("x1", 1, 1) == "11"
    assert standard_cube(0).vertices() == ("e",)


def test_standard_cubes_validate_clean():
    for n in range(5):
        assert validate(standard_cube(n)) == []
        assert validate(boundary_cube(n)) == []


def test_standard_cube_faces_follow_the_word_model():
    # second route for the cell model: names and faces of the standard cube
    # are those of words over {0, 1, x}, and the boundary is the truncation
    for n in range(6):
        K = standard_cube(n)
        assert sorted(c.name for c in K.cubes()) == sorted(
            w or EMPTY_WORD_NAME for w in cube_words(n)
        )
        for w in cube_words(n):
            for i in range(1, w.count("x") + 1):
                for alpha in (0, 1):
                    assert K.face(w, i, alpha) == word_face(w, i, alpha)
    for n in range(7):
        assert boundary_cube(n) == truncate(standard_cube(n), n - 1)


def test_word_face_identity_oracle():
    # the word model satisfies the precubical identity by construction
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = "".join(rng.choice("01x") for _ in range(n))
        d = w.count("x")
        if d < 2:
            continue
        for i, j in itertools.combinations(range(1, d + 1), 2):
            for a, b in itertools.product((0, 1), repeat=2):
                assert word_face(word_face(w, j, b), i, a) == word_face(
                    word_face(w, i, a), j - 1, b
                )


def test_boundary_cube_counts():
    assert boundary_cube(0) == EMPTY
    assert len(boundary_cube(0)) == 0
    assert boundary_cube(1).counts() == {0: 2}
    assert boundary_cube(2).counts() == {0: 4, 1: 4}
    assert boundary_cube(3).counts() == {0: 8, 1: 12, 2: 6}


def test_truncate():
    K = standard_cube(3)
    assert truncate(K, 1).counts() == {0: 8, 1: 12}
    assert truncate(K, 3) == K
    assert truncate(K, 99) == K
    assert truncate(K, -1) == EMPTY


def test_cubes_listing_sorted():
    K = boundary_cube(2)
    listing = K.cubes()
    assert listing[:4] == (
        CubeId("00", 0),
        CubeId("01", 0),
        CubeId("10", 0),
        CubeId("11", 0),
    )
    assert [c.name for c in K.cubes(1)] == ["0x", "1x", "x0", "x1"]
    dims = [c.dim for c in listing]
    assert dims == sorted(dims)


def test_lookup_errors():
    K = standard_cube(1)
    with pytest.raises(UnknownCubeError):
        K.dim_of("nope")
    with pytest.raises(PcsError):
        K.face("x", 2, 0)
    with pytest.raises(ValueError):
        K.face("x", 1, 2)
    with pytest.raises(UnknownCubeError):
        PrecubicalSet({"a": 1}, {("a", 1, 0): "missing"})
    with pytest.raises(PcsError):
        PrecubicalSet({"a": 0}, {("a", 1, 0): "a"})
    with pytest.raises(PcsError):
        PrecubicalSet({"bad name": 0}, {})
    with pytest.raises(PcsError, match="^bad cube name <100[+] digits>$"):
        PrecubicalSet({10**5000: 0}, {})
    assert _failure(lambda: PrecubicalSet({"a": 0}, {("b", 1, 0): "a"})) == (
        UnknownCubeError, "face on unknown cube 'b'")


def _failure(lookup):
    try:
        lookup()
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("lookup succeeded")


def test_face_lookup_errors_in_order():
    # a face lookup checks its arguments only on a miss, in this order
    K = PrecubicalSet({"a": 1, "v": 0, "s": 2}, {("a", 1, 0): "v"})
    assert _failure(lambda: K.face("zz", 0, 2)) == (UnknownCubeError, "unknown cube 'zz'")
    assert _failure(lambda: K.face("a", 0, 2)) == (
        ValueError, "face end must be 0 or 1, got 2")
    assert _failure(lambda: K.face("a", 0, 1)) == (
        PcsError, "face axis 0 out of range 1..1 on cube 'a'")
    assert _failure(lambda: K.face("s", 3, 0)) == (
        PcsError, "face axis 3 out of range 1..2 on cube 's'")
    assert _failure(lambda: K.face("a", 1, 1)) == (
        MissingFaceError, "cube 'a' has no face (1, +)")
    assert _failure(lambda: K.face("a", 1, 1.0)) == (
        MissingFaceError, "cube 'a' has no face (1, +)")
    S = SemiSimplicialSet({"e": 1, "u": 0, "w": 0}, {("e", 0): "w", ("e", 1): "u"})
    assert _failure(lambda: S.face("zz", 5)) == (UnknownCubeError, "unknown simplex 'zz'")
    assert _failure(lambda: S.face("e", 2)) == (PcsError, "face index 2 out of range on 'e'")
    assert _failure(lambda: S.face("e", -1)) == (PcsError, "face index -1 out of range on 'e'")
    assert _failure(lambda: S.face("u", 0)) == (PcsError, "face index 0 out of range on 'u'")
    assert _failure(lambda: S.face("e", "1")) == (PcsError, "face index '1' out of range on 'e'")


def test_extremal_vertex_route_independent():
    # every descent through faces of one end reaches the same vertex
    K = standard_cube(3)
    for cube in K.cubes():
        if cube.dim == 0:
            continue
        for side, alpha in (("-", 0), ("+", 1)):
            want = extremal_vertex(K, cube.name, side)
            choices = [range(1, d + 1) for d in range(cube.dim, 0, -1)]
            for route in itertools.product(*choices):
                c = cube.name
                for i in route:
                    c = K.face(c, i, alpha)
                assert c == want


def test_extremal_vertex_frozen():
    K = standard_cube(2)
    assert extremal_vertex(K, "xx", "-") == "00"
    assert extremal_vertex(K, "xx", "+") == "11"
    assert extremal_vertex(K, "x1", "-") == "01"
    assert extremal_vertex(K, "x1", "+") == "11"
    assert extremal_vertex(K, "00", "-") == "00"


def test_extremal_vertex_raises_when_a_face_keeps_the_dimension():
    # loaded without validation, the edge is its own start face; the
    # descent used to loop forever
    K = parse_pcs("pcs 1\ncube a 1\nface a 1 - a\n", validate=False)
    with pytest.raises(PcsError, match="not below 1"):
        extremal_vertex(K, "a")
    with pytest.raises(PcsError):
        extremal_cubes(PrecubicalSet({"a": 1, "v": 0}, {("a", 1, 0): "a"}), "v")


def test_extremal_cubes_frozen():
    K = standard_cube(2)
    assert extremal_cubes(K, "00", "-") == {"0x", "x0", "xx"}
    assert extremal_cubes(K, "11", "-") == frozenset()
    assert extremal_cubes(K, "11", "+") == {"1x", "x1", "xx"}
    assert extremal_cubes(K, "01", "-") == {"x1"}
    with pytest.raises(PcsError):
        extremal_cubes(K, "xx", "-")


def test_states():
    K = standard_cube(2)
    assert final_states(K) == {"11"}
    assert initial_states(K) == {"00"}
    B = boundary_cube(3)
    assert final_states(B) == {"111"}
    assert initial_states(B) == {"000"}
    two_points = PrecubicalSet({"a": 0, "b": 0}, {})
    assert final_states(two_points) == {"a", "b"}
    assert initial_states(two_points) == {"a", "b"}
    assert final_states(EMPTY) == frozenset()


def test_time_reverse_involution_and_states():
    for K in (standard_cube(3), boundary_cube(2), boundary_cube(3)):
        R = time_reverse(K)
        assert time_reverse(R) == K
        assert final_states(R) == initial_states(K)
        assert initial_states(R) == final_states(K)
        assert validate(R) == []


def test_time_reverse_of_boundary_square_is_isomorphic():
    B = boundary_cube(2)
    flip = {"0": "1", "1": "0", "x": "x"}
    mapping = {c.name: "".join(flip[ch] for ch in c.name) for c in B.cubes()}
    iso = PcsMorphism(time_reverse(B), B, mapping)
    assert is_isomorphism(iso)


def test_attach_cube_builds_square():
    K = PrecubicalSet({"00": 0}, {})
    for v in ("01", "10", "11"):
        K, got = attach_cube(K, 0, {}, name=v)
        assert got == v
    K, _ = attach_cube(K, 1, {(1, 0): "00", (1, 1): "01"}, name="0x")
    K, _ = attach_cube(K, 1, {(1, 0): "10", (1, 1): "11"}, name="1x")
    K, _ = attach_cube(K, 1, {(1, 0): "00", (1, 1): "10"}, name="x0")
    K, _ = attach_cube(K, 1, {(1, 0): "01", (1, 1): "11"}, name="x1")
    assert K == boundary_cube(2)
    K, _ = attach_cube(
        K, 2, {(1, 0): "0x", (1, 1): "1x", (2, 0): "x0", (2, 1): "x1"}, name="xx"
    )
    assert K == standard_cube(2)
    assert validate(K) == []


def test_attach_cube_rejects_incompatible_boundary():
    K = boundary_cube(2)
    # swapping the two vertical edges breaks corner compatibility
    with pytest.raises(MorphismError):
        attach_cube(K, 2, {(1, 0): "1x", (1, 1): "0x", (2, 0): "x0", (2, 1): "x1"})


def test_attach_cube_raises_the_first_violation_validate_reports():
    # a refused facet assignment raises the first violation that validate
    # finds on the cube once glued: a failed identity, or a facet of the
    # wrong dimension (a MorphismError too)
    K = boundary_cube(2)
    swapped = {(1, 0): "1x", (1, 1): "0x", (2, 0): "x0", (2, 1): "x1"}
    low = {(1, 0): "00", (1, 1): "1x", (2, 0): "x0", (2, 1): "x1"}
    for boundary, kind in ((swapped, "identity"), (low, "dimension-mismatch")):
        dims, faces = K.as_tables()
        dims["sq"] = 2
        faces.update({("sq", i, a): t for (i, a), t in boundary.items()})
        first = validate(PrecubicalSet(dims, faces))[0]
        assert first.kind == kind
        with pytest.raises(MorphismError) as refused:
            attach_cube(K, 2, boundary, "sq")
        assert str(refused.value) == str(first)
    assert str(first) == "sq: face (1, -) -> 00 has dimension 0, expected 1"
    with pytest.raises(UnknownCubeError, match="unknown cube 'zz'"):
        attach_cube(K, 2, {**low, (1, 0): "zz"})


def test_attach_cube_skips_identities_that_meet_a_hole():
    # on a lenient load the identities through a hole are skipped, as in
    # validate; the result is not valid, and the hole is reported at its cube
    dims, faces = boundary_cube(2).as_tables()
    del faces[("0x", 1, 0)]
    K = PrecubicalSet(dims, faces)
    square = {(1, 0): "0x", (1, 1): "1x", (2, 0): "x0", (2, 1): "x1"}
    L, _ = attach_cube(K, 2, square, "xx")
    assert validate(L) == validate(K) == [Violation("missing-face", "0x", (1, 0))]
    with pytest.raises(PcsError, match="0x: missing face"):
        check_valid(L)
    with pytest.raises(MorphismError, match="identity fails"):
        attach_cube(K, 2, {**square, (1, 0): "1x", (1, 1): "0x"})


def test_attach_cube_agrees_with_the_face_lattice_walk():
    # second route for attach_cube: the walk down the face lattice of the
    # standard cube, on seeded facet-slot and word assignments over the
    # corpus, most copied from an existing cube, half with one entry replaced
    rng = random.Random(8)
    complexes = [standard_cube(n) for n in range(4)]
    complexes += [boundary_cube(n) for n in range(1, 4)] + corpus20()
    accepted = rejected = 0
    for trial in range(2400):
        K = rng.choice(complexes)
        n = rng.randint(1, K.dim + 1)
        slots = [(i, a) for i in range(1, n + 1) for a in (0, 1)]
        copies = [c.name for c in K.cubes(n)]
        if copies and rng.random() < 0.8:
            words = boundary_words_of(K, rng.choice(copies))
            facets = {(i, a): words[word_face("x" * n, i, a)] for i, a in slots}
            boundary = words if trial % 2 else facets
        else:
            boundary = {slot: rng.choice(K.cubes(n - 1)).name for slot in slots}
        if rng.random() < 0.5:
            key = rng.choice(sorted(boundary))
            dim = key.count("x") if isinstance(key, str) else n - 1
            boundary[key] = rng.choice(K.cubes(dim)).name
        got = _outcome(attach_cube, K, n, boundary)
        assert got == _outcome(attach_reference, K, n, boundary), (trial, boundary)
        if got == MorphismError:
            rejected += 1
        else:
            accepted += 1
    assert accepted > 500 and rejected > 500, (accepted, rejected)


def _outcome(attach, K, n, boundary):
    try:
        return attach(K, n, dict(boundary))
    except MorphismError:
        return MorphismError


def test_attach_cube_fresh_names_deterministic():
    K = PrecubicalSet({"a": 0, "b": 0}, {})
    K, n1 = attach_cube(K, 1, {(1, 0): "a", (1, 1): "b"})
    K, n2 = attach_cube(K, 1, {(1, 0): "a", (1, 1): "b"})
    # the scan starts at len(K): two cells give "cube2", and a taken name is passed over
    assert (n1, n2) == ("cube2", "cube3")
    assert attach_cube(PrecubicalSet({"a": 0, "cube2": 0}, {}), 0, {})[1] == "cube3"
    with pytest.raises(PcsError):
        attach_cube(K, 0, {}, name="a")
    with pytest.raises(PcsError):
        attach_cube(K, 1, {(1, 0): "a"})
    # the word form needs every proper face word, here "0" and "1"
    assert _failure(lambda: attach_cube(K, 1, {"0": "a"})) == (
        PcsError, "word assignment must cover exactly the 2 proper face words of the standard 1-cube")
    # a name that is no str is refused before it is looked up
    for name, text in ((5, "5"), (b"x", "b'x'"), (("a",), "('a',)"), (["a"], "['a']"),
                       (10**5000, "<100+ digits>")):
        with pytest.raises(PcsError, match=f"^bad cube name {re.escape(text)}$"):
            attach_cube(K, 1, {(1, 0): "a", (1, 1): "b"}, name=name)


def test_morphism_keeps_its_own_copy_of_the_mapping():
    K = standard_cube(1)
    m = {c.name: c.name for c in K.cubes()}
    f = PcsMorphism(K, K, m)
    m["x"] = "0"
    m.pop("1")
    assert f.mapping == {"0": "0", "1": "1", "x": "x"} and f.mapping is not m


def test_attach_cube_fresh_names_bounded():
    # a fresh name costs no more than a given one: the scan does not walk
    # every earlier "cube<k>" again on each call
    def grow(named):
        best = float("inf")
        for _ in range(3):
            K, start = PrecubicalSet({"a": 0}, {}), time.perf_counter()
            for k in range(1000):
                K = attach_cube(K, 0, {}, name=f"v{k}" if named else None)[0]
            best = min(best, time.perf_counter() - start)
        return best, len(K)

    (fresh, n_fresh), (named, n_named) = grow(False), grow(True)
    assert n_fresh == n_named == 1001
    assert fresh / named <= 1.5, (fresh, named)


def test_morphism_inclusion_not_iso():
    inc = {c.name: c.name for c in boundary_cube(2).cubes()}
    f = PcsMorphism(boundary_cube(2), standard_cube(2), inc)
    assert not is_isomorphism(f)
    ident = PcsMorphism(
        standard_cube(2), standard_cube(2), {c.name: c.name for c in standard_cube(2).cubes()}
    )
    assert is_isomorphism(ident)


def test_morphism_must_commute_with_faces():
    K = standard_cube(1)
    # swap the endpoints of the target edge: dims fine, faces broken
    with pytest.raises(MorphismError):
        PcsMorphism(K, K, {"x": "x", "0": "1", "1": "0"})


# a lenient load of the unit edge without its face (1, +)
OPEN_EDGE = parse_pcs("pcs 1\ncube 0 0\ncube 1 0\ncube x 1\nface x 1 - 0\n", validate=False)


@pytest.mark.parametrize("target, mapping, refusal", [
    (standard_cube(1), {"0": "0", "1": "1"}, "mapping undefined on 'x'"),
    (standard_cube(1), {"0": "0", "1": "1", "x": "y"}, "'x' maps to unknown cube 'y'"),
    (standard_cube(1), {"0": "0", "1": "1", "x": "0"}, "'x' (dim 1) maps to '0' (dim 0)"),
    (OPEN_EDGE, {"0": "0", "1": "1", "x": "x"}, "target cube 'x' lacks face (1, +) needed by 'x'"),
    (standard_cube(1), {"x": "x", "0": "1", "1": "0"},
     "face (1, -) of 'x' maps to '1' but face of image is '0'"),
], ids=["undefined", "unknown-target", "dimension", "lacks-face", "faces-disagree"])
def test_morphism_refusals(target, mapping, refusal):
    # the source is the unit edge; each refusal names the first cube it meets
    assert _failure(lambda: PcsMorphism(standard_cube(1), target, mapping)) == (
        MorphismError, refusal)


def test_validate_reports_missing_face():
    dims, faces = standard_cube(2).as_tables()
    del faces[("xx", 2, 1)]
    bad = PrecubicalSet(dims, faces)
    found = validate(bad)
    assert len(found) == 1
    assert found[0] == Violation("missing-face", "xx", (2, 1))
    assert "xx" in str(found[0]) and "missing face" in str(found[0])


def test_validate_reports_dimension_mismatch():
    dims, faces = standard_cube(1).as_tables()
    faces[("x", 1, 1)] = "x"
    bad = PrecubicalSet(dims, faces)
    kinds = [v.kind for v in validate(bad)]
    assert kinds == ["dimension-mismatch"]
    v = validate(bad)[0]
    assert v.cube == "x" and v.where == (1, 1, "x", 0, 1)


def test_validate_reports_identity_violation_with_witness():
    dims, faces = standard_cube(2).as_tables()
    # point the bottom-left corner of the square's left edge at the wrong vertex
    faces[("0x", 1, 0)] = "01"
    faces[("0x", 1, 1)] = "00"
    bad = PrecubicalSet(dims, faces)
    found = [v for v in validate(bad) if v.kind == "identity"]
    assert found
    for v in found:
        assert v.cube == "xx"
        i, j, a, b, lhs, rhs = v.where
        assert (i, j) == (1, 2) and lhs != rhs
    assert "identity fails" in str(found[0])


def test_validate_clean_empty_and_vertex():
    assert validate(EMPTY) == []
    assert validate(standard_cube(0)) == []
    with pytest.raises(MissingFaceError):
        dims, faces = standard_cube(1).as_tables()
        del faces[("x", 1, 0)]
        PrecubicalSet(dims, faces).face("x", 1, 0)


def test_validate_declared_cube_without_faces_is_fast():
    # the identity check used to visit all i < j pairs of a cube even with
    # no face recorded, quadratic in its dimension
    K = parse_pcs("pcs 1\ncube a 3000\n", validate=False)
    start = time.perf_counter()
    found = validate(K)
    assert time.perf_counter() - start < 1.0
    assert len(found) == 6000
    assert found[:2] == [
        Violation("missing-face", "a", (1, 0)),
        Violation("missing-face", "a", (1, 1)),
    ]
    assert found[-1] == Violation("missing-face", "a", (3000, 1))


def _defects_in_a_large_layer():
    """standard_cube(7) with one defect in a layer of hundreds of cubes: in
    the 3-cube 0x1x0x1 a hole, a vertex as a face, or two faces swapped; or
    the face (1, +) of the 2-cube xx00000 moved to a parallel edge, which
    breaks only identities with alpha = + in the five 3-cubes above it."""
    dims, faces = standard_cube(7).as_tables()
    c = "0x1x0x1"
    hole, wrong, swapped, parallel = dict(faces), dict(faces), dict(faces), dict(faces)
    del hole[(c, 2, 0)]
    wrong[(c, 2, 1)] = "0000000"
    swapped[(c, 1, 0)], swapped[(c, 2, 0)] = faces[(c, 2, 0)], faces[(c, 1, 0)]
    parallel.update({("e2", 1, 0): "1000000", ("e2", 1, 1): "1100000", ("xx00000", 1, 1): "e2"})
    return [PrecubicalSet(dims, f) for f in (hole, wrong, swapped)] + [
        PrecubicalSet({**dims, "e2": 1}, parallel)
    ]


def test_validate_finds_one_defect_in_a_large_layer():
    # a layer is checked as a whole first; the one bad cube must still be
    # reported exactly as the per-cube walk reports it, strict parsing too
    messages = [
        "not a precubical set: 0x1x0x1: missing face (2, -)",
        "not a precubical set: 0x1x0x1: face (2, +) -> 0000000 has dimension 0, "
        "expected 2; 0x1x0xx: identity fails for i=2, j=4, alpha=+, beta=+: "
        "face(4,+) then face(2,+) gives 0000000, face(2,+) then face(3,+) gives "
        "0x110x1; 0x1xxx1: identity fails for i=2, j=3, alpha=+, beta=-: "
        "face(3,-) then face(2,+) gives 0000000, face(2,+) then face(2,-) gives "
        "0x110x1; 0xxx0x1: identity fails for i=2, j=3, alpha=+, beta=+: "
        "face(3,+) then face(2,+) gives 0x110x1, face(2,+) then face(2,+) gives "
        "0000000; xx1x0x1: identity fails for i=1, j=3, alpha=-, beta=+: "
        "face(3,+) then face(1,-) gives 0x110x1, face(1,-) then face(2,+) gives "
        "0000000",
        "not a precubical set: 0x1x0x1: identity fails for i=1, j=2, alpha=-, "
        "beta=+: face(2,+) then face(1,-) gives 00110x1, face(1,-) then "
        "face(1,+) gives 01100x1; 0x1x0x1: identity fails for i=1, j=2, "
        "alpha=+, beta=-: face(2,-) then face(1,+) gives 00110x1, face(1,+) "
        "then face(1,-) gives 01100x1; 0x1x0x1: identity fails for i=1, j=3, "
        "alpha=-, beta=-: face(3,-) then face(1,-) gives 001x001, face(1,-) "
        "then face(2,-) gives 0x10001; 0x1x0x1: identity fails for i=1, j=3, "
        "alpha=-, beta=+: face(3,+) then face(1,-) gives 001x011, face(1,-) "
        "then face(2,+) gives 0x10011; 0x1x0x1: identity fails for i=2, j=3, "
        "alpha=-, beta=-: face(3,-) then face(2,-) gives 0x10001, face(2,-) "
        "then face(2,-) gives 001x001; and 9 more",
        "not a precubical set: "
        + "; ".join(
            f"{c}: identity fails for i=1, j=3, alpha=+, beta=-: face(3,-) then "
            "face(1,+) gives e2, face(1,+) then face(2,-) gives 1x00000"
            for c in ("xx0000x", "xx000x0", "xx00x00", "xx0x000", "xxx0000")
        ),
    ]
    for K, message, count in zip(_defects_in_a_large_layer(), messages, (1, 5, 14, 5)):
        found = validate(K)
        assert len(found) == count
        assert found == validate_reference(*K.as_tables())
        with pytest.raises(PcsError) as e:
            parse_pcs(emit_pcs(K))
        assert str(e.value) == message


def test_valid_layers_are_checked_whole(monkeypatch):
    # a layer without violations passes its bulk check, so no cube of a
    # valid complex is walked one by one
    def walked(*args):
        raise AssertionError("a valid layer was walked cube by cube")

    monkeypatch.setattr(core, "_cube_violations", walked)
    for n in range(6):
        assert validate(standard_cube(n)) == validate(boundary_cube(n)) == []
    assert validate(subdivide(boundary_cube(3), 3).complex) == []


def test_validate_hostile_nested_cubes_is_bounded():
    # an n-cube whose faces are all one (n-1)-cube whose faces are all one
    # face-less (n-2)-cube: only the holes of the last are violations, and
    # the 2n(n - 1) identity instances of the n-cube, all of which hold,
    # are checked in 2n - 2 flat list comparisons
    n = 700
    dims = {"a": n, "b": n - 1, "c": n - 2}
    faces = {("a", i, e): "b" for i in range(1, n + 1) for e in (0, 1)}
    faces.update({("b", i, e): "c" for i in range(1, n) for e in (0, 1)})
    K = PrecubicalSet(dims, faces)
    start = time.perf_counter()
    found = validate(K)
    assert time.perf_counter() - start < 1.0
    assert found == [Violation("missing-face", "c", (i, e)) for i in range(1, n - 1) for e in (0, 1)]


def test_size_guard_counts_exactly(monkeypatch):
    check_cells("10**6 cells", 10, {6: 1})  # exactly the limit
    with pytest.raises(PcsError, match="more than 1000000 cells"):
        check_cells("10**6 + 1 cells", 10, {6: 1, 0: 1})
    check_cells("ten huge cubes at order 1", 1, {10**9: 10})
    for n in (13, 20, 10**9):
        with pytest.raises(PcsError):
            standard_cube(n)
        with pytest.raises(PcsError):
            boundary_cube(n)
    monkeypatch.setattr(core, "MAX_CELLS", 9)
    assert len(standard_cube(2)) == 9
    with pytest.raises(PcsError):
        standard_cube(3)


def test_face_axes_given_as_other_numbers_read_as_ints():
    # an axis equal to an int in range (1.0, True) is stored as that int, so
    # the text form parses back; 1.5 and 0 stay out of range
    dims = {"a": 0, "b": 0, "e": 1}
    K = PrecubicalSet(dims, {("e", 1.0, 0): "a", ("e", 1, 1): "b"})
    assert parse_pcs(emit_pcs(K)) == K == PrecubicalSet(
        dims, {("e", 1, 0): "a", ("e", True, 1): "b"})
    assert list(K.face_items()) == [(("e", 1, 0), "a"), (("e", 1, 1), "b")]
    for axis in (1.5, 0):
        with pytest.raises(PcsError, match=f"face axis {axis} out of range 1..1"):
            PrecubicalSet(dims, {("e", axis, 0): "a"})
    M, _ = attach_cube(boundary_cube(1), 1, {(1.0, 0): "0", (1, 1): "1"}, "x")
    assert M == standard_cube(1) and emit_pcs(M) == emit_pcs(standard_cube(1))


def test_face_lookup_refuses_a_non_integral_axis():
    # an axis strictly between two axes, or no number at all, is out of
    # range, not a hole: the lookup words it as the constructor does
    K = standard_cube(2)
    for axis, shown in ((Fraction(3, 2), "3/2"), (1.5, "1.5"), ("1", "'1'"), (None, "None")):
        message = f"face axis {shown} out of range 1..2 on cube 'xx'"
        assert _failure(lambda: K.face("xx", axis, 0)) == (PcsError, message)
        assert _failure(lambda: K.face("xx", axis, 1)) == (PcsError, message)
        assert _failure(
            lambda: PrecubicalSet({"xx": 2, "v": 0}, {("xx", axis, 0): "v"})
        ) == (PcsError, message)


def test_holes_of_facet_tuples_are_bounded():
    # a cube's facet tuple is allocated with its first face; the holes of all
    # tuples may exceed the faces by at most MAX_CELLS
    assert PrecubicalSet({"a": 10**6, "b": 0}, {}).face_or_none("a", 1, 0) is None
    with pytest.raises(PcsError, match="more than 1000000 face slots empty"):
        PrecubicalSet({"a": 10**6, "b": 0}, {("a", 1, 0): "b"})
    # errors about a face come before the bound
    with pytest.raises(UnknownCubeError, match="targets unknown cube 'zz'"):
        PrecubicalSet({"a": 10**6, "b": 0}, {("a", 1, 0): "b", ("a", 2, 0): "zz"})
    with pytest.raises(PcsError, match="face axis 1000001 out of range 1..1000000"):
        PrecubicalSet({"a": 10**6, "b": 0}, {("a", 1, 0): "b", ("a", 10**6 + 1, 0): "b"})
    dims = {"a": 500_000, "b": 0}
    faces = {("a", 1, 0): "b", ("a", 1, 1): "b"}  # 10**6 slots, 2 filled
    assert PrecubicalSet(dims, faces).face("a", 1, 1) == "b"


def test_slot_bound_is_exact(monkeypatch):
    # a 6-cube has 12 slots: two faces leave 10 holes, one face 11
    monkeypatch.setattr(core, "MAX_CELLS", 10)
    dims = {"a": 6, "b": 5}
    two = {("a", 1, 0): "b", ("a", 1, 1): "b"}
    text = "pcs 1\ncube a 6\ncube b 5\nface a 1 - b\nface a 1 + b\n"
    assert PrecubicalSet(dims, two) == parse_pcs(text, validate=False)
    assert parse_pcs(text, validate=False).face_or_none("a", 2, 0) is None
    with pytest.raises(PcsError, match=core.SLOTS_ERROR):
        PrecubicalSet(dims, {("a", 1, 0): "b"})
    with pytest.raises(PcsError, match=core.SLOTS_ERROR):
        parse_pcs(text.replace("face a 1 + b\n", ""), validate=False)


def test_dimensions_past_the_bound_are_refused_fast():
    # a dimension above MAX_CELLS is refused before any slot is counted
    start = time.perf_counter()
    for d in (10**6 + 1, 10**20, 10**5000, -10**5000):
        with pytest.raises(PcsError, match="bad dimension .* for cube 'a'"):
            PrecubicalSet({"a": d, "b": 0}, {("a", 1, 0): "b"})
        with pytest.raises(PcsError, match="bad dimension .* for simplex 'a'"):
            SemiSimplicialSet({"a": d}, {})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PcsError, match="^bad dimension 1000001 for cube 'a'$"):
        PrecubicalSet({"a": 10**6 + 1}, {})
    assert len(PrecubicalSet({"a": 10**6}, {})) == 1


def test_cube_dimension_must_be_an_integer():
    # as for a subdivision order: a value equal to an int is read as that
    # int, any other is a PcsError naming it; a negative int stays a ValueError
    assert standard_cube(2.0) == standard_cube(2) and boundary_cube(3.0) == boundary_cube(3)
    assert standard_cube(True) == standard_cube(1)
    square = {(1, 0): "0x", (1, 1): "1x", (2, 0): "x0", (2, 1): "x1"}
    assert attach_cube(boundary_cube(2), 2.0, square, "xx") == (standard_cube(2), "xx")
    words = {word: word for word in boundary_cube(2)._dims}
    assert attach_cube(boundary_cube(2), 2.0, words, "xx") == (standard_cube(2), "xx")

    def attach(n):
        return attach_cube(EMPTY, n, {})

    builders = (standard_cube, boundary_cube, attach)
    for n, shown in ((2.5, "2.5"), ("2", "'2'"), (None, "None"), (Fraction(5, 2), "5/2"),
                     (float("inf"), "inf"), (float("nan"), "nan"), (1.5, "1.5"), ("1", "'1'")):
        for build in builders:
            with pytest.raises(PcsError) as caught:
                build(n)
            assert type(caught.value) is PcsError
            assert str(caught.value) == f"dimension must be an integer, got {shown}"
    for build in builders:
        with pytest.raises(ValueError, match="^dimension must be >= 0$"):
            build(-1)


def test_attach_cube_refuses_a_huge_boundary_fast():
    # the slot count is compared before the slots are built
    K, n = boundary_cube(1), 3 * 10**6
    for boundary in ({}, {(1, 0): "0"}):
        start = time.perf_counter()
        with pytest.raises(PcsError, match="must cover exactly the 6000000 facet slots"):
            attach_cube(K, n, boundary)
        assert time.perf_counter() - start < 1.0
    # axes equal to an int still name their slot
    for boundary in ({(1.0, 0): "0", (True, 1): "1"}, {(Fraction(1), 0): "0", (1, 1): "1"}):
        assert attach_cube(K, 1, boundary, "x")[0] == standard_cube(1)


BIG = 10**5000  # past the digits Python prints, on versions that limit them
SIMPLEX = SemiSimplicialSet({"s": 1, "t": 0}, {("s", 0): "t", ("s", 1): "t"})


@pytest.mark.parametrize("call", [
    lambda: PrecubicalSet({"a": 1, "b": 0}, {("a", BIG, 0): "b"}),
    lambda: standard_cube(1).face("x", BIG, 0),
    lambda: SemiSimplicialSet({"s": 1, "t": 0}, {("s", BIG): "t"}),
    lambda: SIMPLEX.face("s", BIG),
    lambda: attach_cube(EMPTY, BIG, {}),
    lambda: standard_cube(BIG),
    lambda: subdivide(standard_cube(1), BIG),
    lambda: subdivide(standard_cube(1), -BIG),
    lambda: normalize_pair(standard_cube(1), "x", (BIG,), 2),
], ids=["axis", "face-axis", "simplex-index", "simplex-face", "attach-cube", "standard-cube",
        "subdivide", "subdivide-negative", "normalize-pair"])
def test_huge_numbers_in_messages_are_shown_fast(call):
    # the message stands in for the number instead of failing to print it
    start = time.perf_counter()
    with pytest.raises(PcsError, match="<100[+] digits>"):
        call()
    assert time.perf_counter() - start < 1.0


def test_face_ends_given_as_other_numbers_read_as_0_and_1():
    # an end equal to 0 or 1 but not an int (1.0, True) is accepted, and
    # the complex is the one with int ends, in its text form too
    dims = {"a": 0, "b": 0, "e": 1}
    K = PrecubicalSet(dims, {("e", 1, 0): "a", ("e", 1, 1): "b"})
    for end in (1.0, True):
        L = PrecubicalSet(dims, {("e", 1, 0.0): "a", ("e", 1, end): "b"})
        assert L == K and emit_pcs(L) == emit_pcs(K)
        M, name = attach_cube(boundary_cube(1), 1, {(1, 0): "0", (1, end): "1"}, "x")
        assert M == standard_cube(1) and emit_pcs(M) == emit_pcs(standard_cube(1))
