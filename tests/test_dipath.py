import itertools
import random
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from corpus import face_paths
from oracles import (
    canonical_reference,
    convex_comb_reference,
    sample_reference,
    sup_distance_reference,
)
from precubical import dipath
from precubical.core import (
    MAX_CELLS,
    CubeId,
    PcsError,
    UnknownCubeError,
    boundary_cube,
    standard_cube,
)
from precubical.dipath import (
    PathError,
    PLNaturalPath,
    _point,
    convex_comb,
    diagonal_path,
    embed_face,
    extend_full,
    gamma_h,
    germ_equal,
    make_path,
    restrict,
    sample,
    standard_carrier,
    sup_distance,
    zero_set,
)
from precubical.pcsfile import parse_pcs

DATA = Path(__file__).resolve().parent.parent / "data"

SQ = standard_carrier(2)


def assert_natural(p):
    """Re-check every path invariant from scratch."""
    n = p.carrier.dim
    assert n >= 1
    assert p.times[0] == 0
    assert all(b > a for a, b in zip(p.times, p.times[1:]))
    assert len(p.times) == len(p.values)
    assert p.values[0] == (F(0),) * n
    for t, v in zip(p.times, p.values):
        assert len(v) == n
        assert all(0 <= x <= 1 for x in v)
        assert sum(v) == t
    for a, b in zip(p.values, p.values[1:]):
        assert all(y >= x for x, y in zip(a, b))


def test_make_path_diagonal():
    p = make_path(SQ, F(1, 2), (0, F(1, 2)), ((0, 0), (F(1, 4), F(1, 4))))
    assert_natural(p)
    assert p.eps == F(1, 2) and p.dim == 2
    assert p.at(F(1, 4)) == (F(1, 8), F(1, 8))
    assert p.at(0) == (0, 0)
    assert p == diagonal_path(2, F(1, 2))


def test_make_path_errors():
    with pytest.raises(PathError, match="breakpoint 1"):
        make_path(SQ, F(1, 2), (0, F(1, 2)), ((0, 0), (F(1, 2), F(1, 4))))
    with pytest.raises(PathError, match=r"\(0, 1\)"):
        make_path(SQ, 1, (0, 1), ((0, 0), (F(1, 2), F(1, 2))))
    with pytest.raises(PathError, match=r"\(0, 1\)"):
        make_path(SQ, 0, (0, 0), ((0, 0), (0, 0)))
    with pytest.raises(PathError, match="does not increase"):
        make_path(
            SQ,
            F(1, 2),
            (0, F(1, 2), F(1, 2)),
            ((0, 0), (F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))),
        )
    with pytest.raises(PathError, match="coordinate 1"):
        make_path(SQ, F(1, 2), (0, F(1, 2)), ((0, 0), (F(5, 4), F(-3, 4))))
    with pytest.raises(PathError, match="decreases"):
        make_path(
            SQ,
            F(3, 8),
            (0, F(1, 4), F(3, 8)),
            ((0, 0), (0, F(1, 4)), (F(1, 4), F(1, 8))),
        )
    with pytest.raises(PathError, match="floating point"):
        make_path(SQ, 0.5, (0, 0.5), ((0, 0), (0.25, 0.25)))
    with pytest.raises(PathError, match="must equal eps"):
        make_path(SQ, F(1, 2), (0, F(1, 4)), ((0, 0), (F(1, 8), F(1, 8))))
    with pytest.raises(PathError, match="coordinates"):
        make_path(SQ, F(1, 2), (0, F(1, 2)), ((0, 0), (F(1, 2),)))
    with pytest.raises(PathError, match="dimension >= 1"):
        make_path(CubeId("v", 0), F(1, 2), (0, F(1, 2)), ((), ()))


@pytest.mark.parametrize("call, refusal", [
    (lambda: PLNaturalPath("xx", (0, F(1, 2)), ((0, 0), (F(1, 4), F(1, 4)))),
     "carrier must be a CubeId, got 'xx'"),
    (lambda: PLNaturalPath(SQ, (0, F(1, 2)), ((0, 0),)), "2 breakpoints but 1 value points"),
    (lambda: PLNaturalPath(SQ, (0,), ((0, 0),)), "a path needs at least the breakpoints 0 and eps"),
    (lambda: PLNaturalPath(SQ, (F(1, 4), F(1, 2)), ((0, 0), (F(1, 4), F(1, 4)))),
     "breakpoint 0 must be at time 0, got 1/4"),
    (lambda: PLNaturalPath(CubeId("x", 1), (0, 2), ((0,), (1,))),
     "natural length 2 exceeds the carrier dimension 1"),
    (lambda: sample(0, F(1, 2), 1, 0), "dimension must be >= 1, got 0"),
    (lambda: sample(2, F(1, 2), -1, 0), "interior breakpoint count must be >= 0, got -1"),
    (lambda: sample(2, 0, 1, 0), "natural length must be in (0, 1), got 0"),
    (lambda: sample(2, 1, 1, 0), "natural length must be in (0, 1), got 1"),
], ids=["carrier", "counts", "one-breakpoint", "first-time", "too-long",
        "sample-dimension", "sample-count", "sample-eps-0", "sample-eps-1"])
def test_path_arguments_out_of_range(call, refusal):
    # the constructor checks a path built directly, and sample its sizes first
    with pytest.raises(PathError) as caught:
        call()
    assert str(caught.value) == refusal


def test_str_of_paths_with_huge_breakpoints():
    p = make_path(SQ, F(1, 2), (0, F(1, 4), F(1, 2)), ((0, 0), (F(1, 4), 0), (F(1, 4), F(1, 4))))
    assert str(p) == "path in xx [0 -> (0, 0); 1/4 -> (1/4, 0); 1/2 -> (1/4, 1/4)]"
    # a denominator past Python's integer string-conversion limit is elided
    start = time.perf_counter()
    t = F(1, 10**5000)
    q = make_path(SQ, F(1, 2), (0, t, F(1, 2)), ((0, 0), (t, 0), (t, F(1, 2) - t)))
    assert str(q) == (
        "path in xx [0 -> (0, 0); 1/<100+ digits> -> (1/<100+ digits>, 0); "
        "1/2 -> (1/<100+ digits>, <100+ digits>/<100+ digits>)]"
    )
    assert time.perf_counter() - start < 1


def test_canonical_form():
    padded = make_path(
        SQ,
        F(1, 2),
        (0, F(1, 4), F(1, 2)),
        ((0, 0), (F(1, 8), F(1, 8)), (F(1, 4), F(1, 4))),
    )
    assert padded.times == (0, F(1, 2))
    assert padded == diagonal_path(2, F(1, 2))
    bent = gamma_h(F(1, 3), F(1, 2))
    assert len(bent.times) == 3


def test_restrict():
    d = diagonal_path(2, F(1, 2))
    assert restrict(d, F(1, 2)) == d
    assert restrict(d, F(1, 4)) == diagonal_path(2, F(1, 4))
    g = gamma_h(F(1, 3), F(1, 2))
    seg = make_path(SQ, F(1, 3), (0, F(1, 3)), ((0, 0), (0, F(1, 3))))
    assert restrict(g, F(1, 3)) == seg
    assert_natural(restrict(g, F(2, 5)))
    with pytest.raises(PathError):
        restrict(d, 0)
    with pytest.raises(PathError):
        restrict(d, F(3, 4))


def test_extend_full():
    d = diagonal_path(2, F(1, 2))
    full = extend_full(d)
    assert full.eps == 2
    assert full.values[-1] == (1, 1)
    assert_natural(full)
    assert restrict(full, F(1, 2)) == d
    g = gamma_h(F(1, 5), F(1, 2))
    assert restrict(extend_full(g), F(1, 2)) == g
    # a path pinned to the boundary leaves it right after its own length
    edge = make_path(SQ, F(1, 2), (0, F(1, 2)), ((0, 0), (0, F(1, 2))))
    lifted = extend_full(edge)
    assert lifted.at(F(3, 4))[0] > 0


def test_retraction_on_samples():
    for seed in range(100):
        n = 2 + seed % 3
        p = sample(n, F(1, 2), 1 + seed % 4, seed)
        assert restrict(extend_full(p), p.eps) == p


def test_sup_distance():
    d = diagonal_path(2, F(1, 2))
    assert sup_distance(d, d) == 0
    for m in (3, 5, 8, 13):
        assert sup_distance(gamma_h(F(1, m), F(1, 2)), d) == F(1, 2 * m)
    rng = random.Random(4)
    paths = [sample(2, F(1, 2), rng.randrange(4), seed) for seed in range(12)]
    for a in paths:
        for b in paths:
            assert sup_distance(a, b) == sup_distance(b, a)
    for a, b, c in zip(paths, paths[4:], paths[8:]):
        assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)
    with pytest.raises(PathError, match="embed"):
        sup_distance(d, diagonal_path(3, F(1, 2)))
    with pytest.raises(PathError, match="lengths differ"):
        sup_distance(d, diagonal_path(2, F(1, 4)))


def test_convex_comb():
    a = diagonal_path(2, F(1, 2))
    b = gamma_h(F(1, 4), F(1, 2))
    assert convex_comb(0, a, b) == a
    assert convex_comb(1, a, b) == b
    mid = convex_comb(F(1, 2), a, b)
    assert_natural(mid)
    dist = sup_distance(a, b)
    for u in (F(1, 3), F(2, 5), F(7, 8)):
        assert sup_distance(convex_comb(u, a, b), a) == u * dist
    with pytest.raises(PathError):
        convex_comb(F(3, 2), a, b)


def test_convex_comb_on_samples():
    rng = random.Random(11)
    for trial in range(50):
        n = 2 + trial % 2
        a = sample(n, F(1, 2), rng.randrange(4), 2 * trial)
        b = sample(n, F(1, 2), rng.randrange(4), 2 * trial + 1)
        u = F(rng.randrange(0, 8), 8)
        assert_natural(convex_comb(u, a, b))


def test_convex_comb_drops_breakpoints_of_both_paths():
    # only a breakpoint of both paths can drop; random pairs share few, and
    # those they share stay, so these pairs are built to drop them
    def swap(p):
        return PLNaturalPath(p.carrier, p.times, tuple(v[::-1] for v in p.values))

    diagonal, dropped = diagonal_path(2, F(1, 2)), 0
    for seed in range(120):
        a = sample(2, F(1, 2), seed % 9, seed)
        # a + swap(a) runs along the diagonal, so every interior breakpoint drops
        assert convex_comb(F(1, 2), a, swap(a)) == diagonal
        assert convex_comb_reference(F(1, 2), a, swap(a)) == (diagonal.times, diagonal.values)
        dropped += len(a.times) - 2
    assert dropped > 400
    times = (F(0), F(1, 4), F(1, 2))
    a = PLNaturalPath(SQ, times, ((F(0), F(0)), (F(1, 8), F(1, 8)), (F(5, 16), F(3, 16))))
    b = PLNaturalPath(SQ, times, ((F(0), F(0)), (F(1, 8), F(1, 8)), (F(1, 8), F(3, 8))))
    assert convex_comb(F(1, 3), a, b) == diagonal
    assert convex_comb_reference(F(1, 3), a, b) == (diagonal.times, diagonal.values)
    # here the velocity still turns at the shared breakpoint 1/4
    a = PLNaturalPath(SQ, times, ((F(0), F(0)), (F(1, 4), F(0)), (F(1, 4), F(1, 4))))
    b = PLNaturalPath(SQ, times, ((F(0), F(0)), (F(1, 4), F(0)), (F(3, 8), F(1, 8))))
    c = convex_comb(F(1, 2), a, b)
    assert c.times == times and c.values[1] == (F(1, 4), F(0))
    assert (c.times, c.values) == convex_comb_reference(F(1, 2), a, b)


def test_zero_set():
    g = gamma_h(F(1, 4), F(1, 2))
    assert zero_set(restrict(g, F(1, 4))) == {1}
    assert zero_set(g) == frozenset()
    assert zero_set(diagonal_path(3, F(1, 2))) == frozenset()
    carrier = standard_carrier(3)
    p = make_path(
        carrier, F(1, 3), (0, F(1, 3)), ((0, 0, 0), (0, F(1, 3), 0))
    )
    assert zero_set(p) == {1, 3}


def test_embed_face():
    edge = make_path(CubeId("0x", 1), F(1, 2), (0, F(1, 2)), ((0,), (F(1, 2),)))
    square = standard_cube(2)
    lifted = embed_face(edge, square, "xx", 1)
    assert lifted.carrier == SQ
    assert lifted.values == ((0, 0), (0, F(1, 2)))
    assert zero_set(lifted) == {1}
    second = embed_face(PLNaturalPath(CubeId("x0", 1), edge.times, edge.values), square, "xx", 2)
    assert second.values == ((0, 0), (F(1, 2), 0))
    # the carrier must be face (i, -) of the target: a path on the upper
    # face would not start at the corner
    upper = PLNaturalPath(CubeId("1x", 1), edge.times, edge.values)
    with pytest.raises(PathError, match=r"'1x' of dimension 1 is not face \(1, -\) of 'xx'"):
        embed_face(upper, square, "xx", 1)
    with pytest.raises(PathError, match="is not face"):
        embed_face(edge, square, "xx", 2)
    with pytest.raises(PathError, match="is not face"):
        embed_face(lifted, standard_cube(3), "xxx", 1)
    # a path on a face of a cube of any complex, named as that complex names it
    L = parse_pcs((DATA / "l-shape.pcs").read_text())
    c = L.cubes(2)[0].name
    on_face = PLNaturalPath(CubeId(L.face(c, 2, 0), 1), edge.times, edge.values)
    assert embed_face(on_face, L, c, 2) == PLNaturalPath(CubeId(c, 2), edge.times, second.values)
    # the complex refuses its own bad lookups
    with pytest.raises(UnknownCubeError):
        embed_face(edge, square, "zz", 1)
    with pytest.raises(PcsError, match="axis 3 out of range 1..2"):
        embed_face(edge, square, "xx", 3)
    with pytest.raises(PcsError, match="axis 1 out of range 1..0"):
        embed_face(edge, square, "00", 1)
    holed = parse_pcs("pcs 1\ncube a 0\ncube e 1\ncube s 2\nface e 1 - a\n", validate=False)
    with pytest.raises(PcsError, match="not a precubical set"):
        embed_face(edge, holed, "s", 1)


def test_embed_face_refuses_a_non_integral_axis():
    edge = make_path(CubeId("0x", 1), F(1, 2), (0, F(1, 2)), ((0,), (F(1, 2),)))
    for axis, shown in ((F(3, 2), "3/2"), (1.5, "1.5"), ("1", "'1'"), (None, "None")):
        with pytest.raises(PcsError) as caught:
            embed_face(edge, standard_cube(2), "xx", axis)
        assert type(caught.value) is PcsError
        assert str(caught.value) == f"face axis {shown} out of range 1..2 on cube 'xx'"


def test_embed_commutes_with_restrict():
    square = standard_cube(2)
    for seed in range(20):
        p = sample(2, F(1, 2), seed % 3, seed)
        p = PLNaturalPath(CubeId("x0x", 2), p.times, p.values)
        e2 = F(1, 3)
        assert embed_face(restrict(p, e2), standard_cube(3), "xxx", 2) == restrict(
            embed_face(p, standard_cube(3), "xxx", 2), e2
        )


def test_embed_face_is_natural_on_every_lower_face():
    # sampled paths on every face (i, -) of every cube of dimension >= 2:
    # each embedding is the path the checking constructor builds, zero on
    # axis i, and commutes with restrict; the same path on face (i, +),
    # another cube in each of these complexes, is refused
    complexes = [parse_pcs(p.read_text()) for p in sorted(DATA.glob("*.pcs"))]
    complexes += [standard_cube(n) for n in range(1, 5)]
    complexes += [boundary_cube(n) for n in range(2, 5)]
    rng = random.Random(18)
    embedded = 0
    for K in complexes:
        for c, i, p in face_paths(K, rng):
            e = embed_face(p, K, c, i)
            assert_natural(e)
            assert e == PLNaturalPath(CubeId(c, p.dim + 1), e.times, e.values)
            assert zero_set(e) == {i} | {j + (j >= i) for j in zero_set(p)}
            e2 = p.eps * F(rng.randint(1, 9), 10)
            assert embed_face(restrict(p, e2), K, c, i) == restrict(e, e2)
            upper = CubeId(K.face(c, i, 1), p.dim)
            with pytest.raises(PathError, match="is not face"):
                embed_face(PLNaturalPath(upper, p.times, p.values), K, c, i)
            embedded += 1
    assert embedded == 603


def test_germ_equal():
    eps = F(1, 2)
    edge = make_path(CubeId("0x", 1), eps, (0, eps), ((0,), (eps,)))
    boundary = embed_face(edge, standard_cube(2), "xx", 1)
    d = diagonal_path(2, eps)
    for m in (3, 7, 20):
        g = gamma_h(F(1, m), eps)
        assert germ_equal(g, boundary, F(1, m))
        past_bend = (F(1, m) + eps) / 2
        assert not germ_equal(g, boundary, past_bend)
        assert not germ_equal(g, d, F(1, m))
        assert germ_equal(g, g, F(1, 4))
    with pytest.raises(PathError):
        germ_equal(d, boundary, eps)
    with pytest.raises(PathError):
        germ_equal(d, boundary, 0)
    with pytest.raises(PathError, match="embed"):
        germ_equal(d, diagonal_path(3, eps), F(1, 4))


def test_gamma_h_frozen():
    g = gamma_h(F(1, 3), F(1, 2))
    assert g.times == (0, F(1, 3), F(1, 2))
    assert g.values == ((0, 0), (0, F(1, 3)), (F(1, 12), F(5, 12)))
    assert_natural(g)
    with pytest.raises(PathError):
        gamma_h(F(1, 2), F(1, 2))
    with pytest.raises(PathError):
        gamma_h(0, F(1, 2))
    with pytest.raises(PathError):
        gamma_h(F(1, 4), 1)


def test_sample_deterministic():
    a = sample(3, F(1, 2), 4, 99)
    b = sample(3, F(1, 2), 4, 99)
    assert a == b
    assert a != sample(3, F(1, 2), 4, 100)


def test_sample_breakpoint_count():
    for seed in range(30):
        m = seed % 5
        p = sample(2 + seed % 3, F(1, 2), m, seed)
        assert_natural(p)
        assert len(p.times) == m + 2
    straight = sample(1, F(1, 2), 3, 0)
    assert straight == diagonal_path(1, F(1, 2))


def test_sample_is_the_path_the_checking_constructor_builds():
    # sample adopts its breakpoints after canonical form, which for n = 1
    # drops every interior one
    for n in range(1, 5):
        for m in (0, 1, 5, 30):
            for seed in range(4):
                p = sample(n, F(1, 2), m, seed)
                assert_natural(p)
                assert p == PLNaturalPath(p.carrier, p.times, p.values)
                assert len(p.times) == (2 if n == 1 else m + 2)


def test_sample_matches_fraction_reference():
    # every (n, m) with n = 1..4 and m = 0..30 occurs, m = 0 and n = 1 included
    for seed in range(320):
        n, m, eps = 1 + seed % 4, seed % 31, F(1 + seed % 9, 10)
        p = sample(n, eps, m, seed)
        assert (p.times, p.values) == sample_reference(n, eps, m, seed)


def test_paths_are_values():
    g = gamma_h(F(1, 3), F(1, 2))
    again = PLNaturalPath(g.carrier, g.times, g.values)
    assert g == again and hash(g) == hash(again)


def random_path(rng, n, eps, fractions):
    """A natural path in the n-cube with breakpoints at the given fractions
    of eps, each step split among the axes by weights from a small pool, so
    that consecutive steps often share a direction."""
    times = [F(0), *(eps * f for f in sorted(set(fractions))), eps]
    values = [(F(0),) * n]
    for t0, t1 in zip(times, times[1:]):
        split = [rng.randint(0, 2) for _ in range(n)]
        split[rng.randrange(n)] += 1
        values.append(tuple(x + (t1 - t0) * F(s, sum(split)) for x, s in zip(values[-1], split)))
    return times, values


def random_pairs(count, seed):
    """Seeded pairs of paths of one length in the n-cube, n = 1 to 4, whose
    breakpoints are drawn from the grid eps * k/12: unequal counts, shared
    breakpoints and straight paths all occur."""
    rng = random.Random(seed)
    for trial in range(count):
        n = 1 + trial % 4
        eps = F(rng.randint(1, 9), 10)
        grid = [F(k, 12) for k in range(1, 12)]
        a, b = (
            PLNaturalPath(standard_carrier(n), *random_path(rng, n, eps, rng.sample(grid, k)))
            for k in (rng.randrange(7), rng.randrange(7))
        )
        yield a, b, F(rng.randint(0, 12), 12)


def test_canonical_matches_straight_line_reference():
    rng = random.Random(21)
    dropped = 0
    for trial in range(500):
        n = 1 + trial % 4
        grid = [F(k, 40) for k in range(1, 40)]
        times, values = random_path(rng, n, F(1, 2), rng.sample(grid, rng.randrange(9)))
        # pad with points on the segments: one collinear run per segment
        padded_t, padded_v = [times[0]], [values[0]]
        for k in range(1, len(times)):
            t0, t1, v0, v1 = times[k - 1], times[k], values[k - 1], values[k]
            for u in sorted({F(rng.randint(1, 7), 8) for _ in range(rng.randrange(3))}):
                padded_t.append(t0 + (t1 - t0) * u)
                padded_v.append(tuple(x + (y - x) * u for x, y in zip(v0, v1)))
            padded_t.append(t1)
            padded_v.append(v1)
        paths = []
        for t, v in ((times, values), (padded_t, padded_v)):
            want = canonical_reference(t, v)
            paths.append(PLNaturalPath(standard_carrier(n), t, v))
            assert (paths[-1].times, paths[-1].values) == want
            dropped += len(t) - len(want[0])
        assert paths[0] == paths[1]
    assert dropped > 2000


def test_walk_matches_merged_times_reference():
    shared = unequal = ends = 0
    for a, b, u in random_pairs(500, 5):
        assert sup_distance(a, b) == sup_distance_reference(a, b)
        c = convex_comb(u, a, b)
        assert (c.times, c.values) == convex_comb_reference(u, a, b)
        shared += len(set(a.times[1:-1]) & set(b.times[1:-1])) > 0
        unequal += len(a.times) != len(b.times)
        ends += u in (0, 1)
    assert shared > 120 and unequal > 250 and ends > 50


def test_derived_paths_are_natural_and_canonical():
    for a, b, u in random_pairs(300, 6):
        full = extend_full(a)
        for p in (convex_comb(u, a, b), full, restrict(a, a.eps / 3), restrict(full, a.eps)):
            assert_natural(p)
            # the checked constructor keeps every breakpoint of a canonical path
            assert p == PLNaturalPath(p.carrier, p.times, p.values)
        assert restrict(full, a.eps) == a


def test_walk_does_not_read_points_through_at(monkeypatch):
    pairs = list(random_pairs(40, 7))
    want = [(sup_distance(a, b), convex_comb(u, a, b)) for a, b, u in pairs]

    def refuse(self, t):
        raise AssertionError("sup_distance and convex_comb must not call at")

    monkeypatch.setattr(PLNaturalPath, "at", refuse)
    assert [(sup_distance(a, b), convex_comb(u, a, b)) for a, b, u in pairs] == want


def carries_its_points(p):
    """Whether the integer breakpoints a path carries are `_point` of its
    stored Fractions."""
    return p._points == [_point(t, v) for t, v in zip(p.times, p.values)]


def test_every_route_carries_its_integer_points():
    # each way to build a path carries the integer form of its breakpoints,
    # and pairs from different routes walk as the Fraction references do;
    # restrict cuts mid-segment, at a breakpoint and past the old length
    rng, grid = random.Random(23), [F(k, 12) for k in range(1, 12)]
    pairs = 0
    for seed in range(60):
        n, eps = 1 + seed % 4, F(rng.randint(1, 9), 10)
        a = sample(n, eps, rng.randint(1, 6), seed)  # n = 1 keeps no interior breakpoint
        times, values = random_path(rng, n, eps, rng.sample(grid, rng.randrange(6)))
        b = PLNaturalPath(a.carrier, times, values)
        full_a, full_b = extend_full(a), extend_full(b)
        back = restrict(full_a, eps)
        u = F(rng.randint(0, 12), 12)
        K, c, i = standard_cube(n + 1), "x" * (n + 1), rng.randint(1, n + 1)
        lifted = embed_face(PLNaturalPath(CubeId(K.face(c, i, 0), n), a.times, a.values), K, c, i)
        on_cube = [lifted, diagonal_path(n + 1, eps)]
        if n == 1:
            on_cube.append(gamma_h(eps * F(rng.randint(1, 9), 10), eps))
        s = n * F(rng.randint(1, 12), 12)
        groups = [
            [a, b, make_path(a.carrier, eps, times, values), diagonal_path(n, eps), back],
            on_cube,
            [restrict(full_a, s), restrict(full_b, s)],
            [restrict(a, eps * u or eps), restrict(b, eps * u or eps)],
        ]
        for p in (full_a, full_b, *itertools.chain(*groups)):
            assert carries_its_points(p)
        groups[0].append(convex_comb(u, back, b))
        assert carries_its_points(groups[0][-1]) and back == a
        for group in groups:
            for x, y in itertools.combinations(group, 2):
                assert sup_distance(x, y) == sup_distance_reference(x, y)
                c = convex_comb(u, x, y)
                assert carries_its_points(c)
                assert (c.times, c.values) == convex_comb_reference(u, x, y)
                pairs += 1
    assert pairs > 1000


def test_carried_points_are_no_field():
    a = sample(3, F(1, 2), 5, 4)
    again = PLNaturalPath(a.carrier, a.times, a.values)
    assert a._points == again._points
    assert a == again and hash(a) == hash(again) and repr(a) == repr(again)
    assert "_points" not in repr(a) and sup_distance(a, again) == 0


def primes_above_a_million(count):
    """The first `count` primes above 10**6, by a sieve of one segment."""
    lo, span = 10**6, 40_000
    prime = [True] * span
    for p in range(2, 1021):  # 1021**2 is past the segment
        for k in range(-lo % p, span, p):
            prime[k] = False
    return [lo + k for k in range(span) if prime[k]][:count]


def unrelated_denominators(rng, primes):
    """A natural path of length 1/2 in the square whose interior breakpoint k
    has time and point over 4 m p_k alone, p_k its own prime."""
    m = len(primes) + 1
    times, values = [F(0)], [(F(0), F(0))]
    for k, p in enumerate(primes, 1):
        t, x = F(k * p + 1, 2 * m * p), F(k * p + rng.randint(1, p // 3), 4 * m * p)
        times.append(t)
        values.append((x, t - x))
    return PLNaturalPath(SQ, (*times, F(1, 2)), (*values, (F(1, 4), F(1, 4))))


def growing_denominators(rng, primes):
    """A natural path of length 1/4 in the square with breakpoint k at time
    k/(4m) + 1/(8m p_k) and its point summed from the increments, so that
    the point's denominator takes in every prime so far."""
    m = len(primes) + 1
    times = [F(0), *(F(k, 4 * m) + F(1, 8 * m * p) for k, p in enumerate(primes, 1)), F(1, 4)]
    values, r = [(F(0), F(0))], None
    for t0, t1 in zip(times, times[1:]):
        r = rng.choice([x for x in range(9) if x != r])  # a new velocity each step
        (x, y), dt = values[-1], t1 - t0
        values.append((x + dt * F(r, 8), y + dt * F(8 - r, 8)))
    return PLNaturalPath(SQ, times, values)


def test_hostile_denominators_stay_bounded():
    # one prime per breakpoint of either path; or, on shared times, points
    # whose denominators grow to about 3,000 digits
    rng, primes = random.Random(31), primes_above_a_million(2000)
    families = (
        [unrelated_denominators(rng, primes[:1000]), unrelated_denominators(rng, primes[1000:])],
        [growing_denominators(rng, primes[:500]) for _ in range(2)],
    )
    for (a, b), count in zip(families, (1000, 500)):
        assert len(a.times) == len(b.times) == count + 2
        u = F(1, 3)
        start = time.perf_counter()
        d, c = sup_distance(a, b), convex_comb(u, a, b)
        rebuilt = [PLNaturalPath(p.carrier, p.times, p.values) for p in (a, b)]
        assert time.perf_counter() - start < 2
        assert d == sup_distance_reference(a, b)
        assert (c.times, c.values) == convex_comb_reference(u, a, b)
        canonical = [(p.times, p.values) for p in rebuilt]
        assert canonical == [canonical_reference(p.times, p.values) for p in (a, b)]


def test_extend_full_twice_is_refused():
    for p in (diagonal_path(2, F(1, 2)), gamma_h(F(1, 5), F(1, 2)), sample(3, F(1, 2), 4, 1)):
        with pytest.raises(PathError, match="far corner"):
            extend_full(extend_full(p))


def test_non_rational_numbers_are_refused_fast():
    d = diagonal_path(2, F(1, 2))
    start = time.perf_counter()
    for x in ("1e-999999999", "1/4", Decimal("1e-999999999"), None):
        with pytest.raises(PathError, match="not a rational number"):
            restrict(d, x)
        with pytest.raises(PathError, match="not a rational number"):
            make_path(SQ, F(1, 2), (0, F(1, 2)), ((0, 0), (x, F(1, 4))))
    assert time.perf_counter() - start < 1.0


def test_huge_numbers_in_path_messages_are_shown_fast():
    edge = make_path(CubeId("0x", 1), F(1, 2), (0, F(1, 2)), ((0,), (F(1, 2),)))
    start = time.perf_counter()
    with pytest.raises(PcsError, match="axis <100[+] digits>"):
        embed_face(edge, standard_cube(2), "xx", 10**5000)
    with pytest.raises(PathError, match="dimension <100[+] digits>"):
        PLNaturalPath(CubeId("x", 10**5000), edge.times, edge.values)
    assert time.perf_counter() - start < 1.0


HUGE = F(10**5000)  # past the digits Python prints, on versions that limit them


@pytest.mark.parametrize("call, shown", [
    (lambda d: restrict(d, HUGE), "restriction length <100[+] digits> outside"),
    (lambda d: d.at(-HUGE), "time <100[+] digits> outside"),
    (lambda d: convex_comb(HUGE, d, d), "weight <100[+] digits> outside"),
    (lambda d: make_path(SQ, HUGE, (0, 1), ((0, 0), (0, 1))), "got <100[+] digits>$"),
    (lambda d: make_path(SQ, 1 / HUGE, (0, F(1, 2)), ((0, 0), (0, F(1, 2)))),
     "final breakpoint 1/2 must equal eps = 1/<100[+] digits>$"),
    (lambda d: gamma_h(1 / HUGE, HUGE), "h = 1/<100[+] digits>, eps = <100[+] digits>$"),
], ids=["restrict", "at", "convex-comb", "make-path", "make-path-denominator", "gamma-h"])
def test_huge_fractions_in_path_messages_are_shown_fast(call, shown):
    # only a numerator or denominator that long is elided
    d = diagonal_path(2, F(1, 2))
    start = time.perf_counter()
    with pytest.raises(PathError, match=shown):
        call(d)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, shown", [
    (1.5, "1.5"), ("2", "'2'"), (None, "None"), (F(5, 2), "5/2"), (float("nan"), "nan"),
])
def test_path_sizes_must_be_integers(n, shown):
    # as for a subdivision order: a value equal to an int is read as that
    # int, any other is a PathError naming it
    eps = F(1, 2)
    for call, what in (
        (lambda: sample(2, eps, n, 0), "interior breakpoint count"),
        (lambda: sample(n, eps, 1, 0), "dimension"),
        (lambda: diagonal_path(n, eps), "dimension"),
        (lambda: standard_carrier(n), "dimension"),
    ):
        with pytest.raises(PathError) as caught:
            call()
        assert str(caught.value) == f"{what} must be an integer, got {shown}"
    assert sample(2.0, eps, 3.0, 7) == sample(2, eps, 3, 7)
    assert type(sample(2.0, eps, 3.0, 7).dim) is int
    p = sample(True, eps, 1, 0)
    assert type(p.dim) is int and p == diagonal_path(1, eps)
    assert diagonal_path(2.0, eps) == diagonal_path(2, eps)
    assert standard_carrier(True) == standard_carrier(1) and type(standard_carrier(True).dim) is int


@pytest.mark.parametrize("n", [0, -3, False])
def test_standard_carrier_refuses_dimensions_below_one(n):
    # a 0-cube or a negative dimension carries no path
    with pytest.raises(PathError, match=f"^dimension must be >= 1, got {int(n)}$"):
        standard_carrier(n)


def test_hostile_path_sizes_are_refused_fast():
    # refused before any breakpoint is drawn or any coordinate stored
    eps, start = F(1, 2), time.perf_counter()
    for call in (
        lambda: sample(1, eps, 10**6, 0),
        lambda: sample(10**6, eps, 0, 0),
        lambda: sample(3, eps, 10**5000, 0),
        lambda: diagonal_path(10**6, eps),
        lambda: diagonal_path(10**7, eps),
        lambda: diagonal_path(10**5000, eps),
    ):
        with pytest.raises(PathError, match=f"would store more than {MAX_CELLS} coordinates$"):
            call()
    with pytest.raises(PathError, match="^dimension must be at most 1000000, got <100[+] digits>$"):
        standard_carrier(10**5000)
    assert time.perf_counter() - start < 1.0


def test_path_sizes_are_bounded_exactly(monkeypatch):
    # n (m + 2) stored coordinates may reach the bound, not pass it
    monkeypatch.setattr(dipath, "MAX_CELLS", 12)
    eps = F(1, 2)
    assert len(sample(3, eps, 2, 0).times) == 4 and diagonal_path(6, eps).dim == 6
    with pytest.raises(PathError, match="^a path in dimension 3 with 3 interior breakpoints "
                       "would store more than 12 coordinates$"):
        sample(3, eps, 3, 0)
    with pytest.raises(PathError, match="^a path in dimension 7 with 0 interior breakpoints"):
        diagonal_path(7, eps)
    assert standard_carrier(12).dim == 12
    with pytest.raises(PathError, match="^dimension must be at most 12, got 13$"):
        standard_carrier(13)
