"""Each fact is checked once, where data enters.

Library constructions build complexes, per-vertex complexes, chain
complexes and embedded paths through trusted routes that skip the public
constructors' checks.  These tests hold the skipped checks instead:
library output must pass the checking constructors, invalid complexes
loaded leniently must still raise typed errors, and the library paths must
not re-check.
"""
import random
from contextlib import suppress
from functools import partial
from pathlib import Path

import pytest

from corpus import corpus20, face_paths, hollow_cube, hollow_square, l_shape, mutate, two_squares
from oracles import cube_words, pi0_components
from precubical.complexes import (
    SemiSimplicialSet,
    assemble_all,
    branching_complex,
)
from precubical.core import (
    PLUS,
    PcsError,
    PrecubicalSet,
    attach_cube,
    boundary_cube,
    extremal_partition,
    final_states,
    initial_states,
    standard_cube,
    time_reverse,
    truncate,
    validate,
)
from precubical.dipath import PLNaturalPath, embed_face
from precubical.homology import (
    ChainComplex,
    Matrix,
    branching_homology,
    chain_complex,
)
from precubical.pcsfile import ParseError, emit_pcs, parse_pcs
from precubical.subdivision import grid_complex, subdivide

DATA = Path(__file__).resolve().parent.parent / "data"


def library_complexes():
    out = corpus20() + [hollow_square(), hollow_cube(), two_squares(), l_shape()]
    out += [parse_pcs(p.read_text()) for p in sorted(DATA.glob("*.pcs"))]
    for n in range(6):
        out += [standard_cube(n), boundary_cube(n)]
    out.append(subdivide(boundary_cube(3), 3).complex)
    return out


def test_library_objects_pass_the_checking_constructors():
    rng = random.Random(18)
    for K in library_complexes():
        for side in "-+":
            R = time_reverse(K) if side == "+" else K
            assert PrecubicalSet(*R.as_tables()) == R and validate(R) == []
            for B in assemble_all(K, side).values():
                dims = {s.name: s.dim for s in B.simplices()}
                faces = {
                    (s.name, i): B.face(s.name, i)
                    for s in B.simplices()
                    if s.dim
                    for i in range(s.dim + 1)
                }
                assert SemiSimplicialSet(dims, faces) == B
                C = chain_complex(B)
                ChainComplex(C.bases, C.matrices)  # shapes and d∘d = 0
                for M in C.matrices:  # integer entries, no zeros, rows in range
                    assert M == Matrix.from_columns(M.rows, M.columns)
        for c, i, p in face_paths(K, rng):  # paths embedded from faces of its cubes
            e = embed_face(p, K, c, i)
            assert PLNaturalPath(e.carrier, e.times, e.values) == e


def _vertex(K):
    return next(iter(K.vertices()), "none")


CALLS = {
    "branching_homology": branching_homology,
    "branching_homology +": lambda K: branching_homology(K, PLUS),
    "assemble_all -": assemble_all,
    "assemble_all +": lambda K: assemble_all(K, "+"),
    "branching_complex": lambda K: branching_complex(K, _vertex(K)),
    "pi0_components": lambda K: pi0_components(K, _vertex(K)),
    "subdivide": lambda K: subdivide(K, 2).complex,
}


def test_lenient_invalid_complexes_raise_typed_errors():
    sources = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    rng = random.Random(20261018)
    seen = {"valid": 0, "invalid": 0}
    for n in range(1500):
        text = mutate(rng, sources[n % len(sources)].splitlines())
        try:
            K = parse_pcs(text, validate=False)
        except ParseError:
            continue
        if validate(K):
            seen["invalid"] += 1
            for name, call in CALLS.items():
                for L in (K, time_reverse(K)):
                    with pytest.raises(PcsError):
                        call(L)
                        pytest.fail(f"{name} accepted an invalid complex:\n{text}")
        else:
            seen["valid"] += 1
            strict = parse_pcs(text)
            for name, call in CALLS.items():
                assert call(K) == call(strict), (name, text)
    assert seen["invalid"] > 100 and seen["valid"] > 100, seen


def _attachments(rng, K):
    """Facet slots of a random cube of K, each hole filled with a random
    cube, then slots and words drawn at random."""
    names = [c.name for c in K.cubes()]
    if K.dim > 0:
        c = rng.choice([name for name in names if K.dim_of(name)])
        n = K.dim_of(c)
        yield n, {(i, a): K.face_or_none(c, i, a) or rng.choice(names)
                  for i in range(1, n + 1) for a in (0, 1)}
    n = rng.randint(0, K.dim + 1)
    yield n, {(i, a): rng.choice(names) for i in range(1, n + 1) for a in (0, 1)}
    yield n, {w: rng.choice(names) for w in cube_words(n) if w != "x" * n}


def test_library_entry_points_on_invalid_lenient_loads_raise_only_pcs_errors():
    # each entry point returns or raises PcsError on complexes that parse
    # leniently but fail validate; any other exception fails the test
    sources = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    rng = random.Random(20261019)
    invalid = attached = 0
    for trial in range(3000):
        text = mutate(rng, sources[trial % len(sources)].splitlines())
        try:
            K = parse_pcs(text, validate=False)
        except ParseError:
            continue
        if not validate(K):
            continue
        invalid += 1
        v = _vertex(K)
        calls = [final_states, initial_states, time_reverse, emit_pcs, branching_homology,
                 lambda K: branching_homology(K, PLUS), lambda K: truncate(K, 1),
                 lambda K: subdivide(K, 2),
                 lambda K: pi0_components(K, v)]
        for side in "-+":
            calls += [partial(extremal_partition, side=side), partial(assemble_all, side=side)]
        for call in calls:
            with suppress(PcsError):
                call(K)
        for n, boundary in _attachments(rng, K):
            with suppress(PcsError):
                attach_cube(K, n, boundary)
                attached += 1
    assert invalid > 200 and attached > 50, (invalid, attached)


def test_library_paths_skip_the_checking_constructors(monkeypatch):
    text = emit_pcs(standard_cube(4))
    expected = branching_homology(standard_cube(4)), branching_homology(standard_cube(4), PLUS)

    def refuse(constructor):
        def call(*args, **kwargs):
            raise AssertionError(f"{constructor} checked library data again")
        return call

    for cls in (PrecubicalSet, SemiSimplicialSet, ChainComplex):
        monkeypatch.setattr(cls, "__init__", refuse(cls.__name__))
    monkeypatch.setattr(Matrix, "from_columns", refuse("Matrix.from_columns"))
    K = parse_pcs(text)
    assert K == standard_cube(4)
    assert time_reverse(time_reverse(K)) == K
    assert len(subdivide(K, 2).complex) == 5**4
    assert len(grid_complex([(0, 0), (1, 0)])) == 15
    square, _ = attach_cube(boundary_cube(2), 2, {(1, 0): "0x", (1, 1): "1x",
                                                  (2, 0): "x0", (2, 1): "x1"})
    assert len(square) == 9
    assert (branching_homology(K), branching_homology(K, PLUS)) == expected
