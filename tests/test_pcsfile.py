"""PCS text format: round trips and diagnostics."""
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest

from corpus import corpus20, glued_torsion, mutate
from oracles import emit_reference, parse_reference, validate_reference
from precubical import core
from precubical.core import (
    EMPTY,
    PrecubicalSet,
    boundary_cube,
    standard_cube,
    validate,
    violations_message,
)
from precubical.pcsfile import ParseError, emit_pcs, parse_pcs
from precubical.subdivision import subdivide

DATA = Path(__file__).resolve().parent.parent / "data"

SQUARE = """\
# a solid square
pcs 1
cube p00 0
cube p01 0
cube p10 0
cube p11 0
cube bottom 1
cube top 1
cube left 1
cube right 1
cube sq 2   # the filler

face bottom 1 - p00
face bottom 1 + p10
face top 1 - p01
face top 1 + p11
face left 1 - p00
face left 1 + p01
face right 1 - p10
face right 1 + p11

face sq 1 - left
face sq 1 + right
face sq 2 - bottom
face sq 2 + top
"""


def test_parse_square():
    K = parse_pcs(SQUARE)
    assert K.counts() == {0: 4, 1: 4, 2: 1}
    assert K.face("sq", 2, 1) == "top"
    assert K.face("left", 1, 0) == "p00"
    assert validate(K) == []


def test_round_trip():
    for K in (EMPTY, standard_cube(0), standard_cube(3), boundary_cube(3), parse_pcs(SQUARE)):
        text = emit_pcs(K)
        assert parse_pcs(text) == K
        assert emit_pcs(parse_pcs(text)) == text


def test_emit_deterministic_order():
    text = emit_pcs(standard_cube(1))
    assert text.splitlines() == [
        "pcs 1",
        "cube 0 0",
        "cube 1 0",
        "cube x 1",
        "face x 1 - 0",
        "face x 1 + 1",
    ]


def test_forward_references_ok():
    K = parse_pcs("pcs 1\ncube e 1\nface e 1 - a\nface e 1 + b\ncube a 0\ncube b 0\n")
    assert K.face("e", 1, 0) == "a"


def err(text):
    with pytest.raises(ParseError) as info:
        parse_pcs(text)
    return info.value


def test_header_required():
    e = err("cube a 0\n")
    assert "header" in str(e) and e.line == 1
    e = err("# only comments\n\n")
    assert "header" in str(e)
    e = err("pcs 2\ncube a 0\n")
    assert "version" in str(e)


def test_error_unknown_directive():
    e = err("pcs 1\nvertex a 0\n")
    assert e.line == 2 and e.col == 1 and "vertex" in str(e)


def test_error_arg_counts():
    assert "2 arguments" in str(err("pcs 1\ncube a\n"))
    assert "4 arguments" in str(err("pcs 1\ncube a 1\nface a 1 -\n"))


def test_error_bad_tokens():
    assert "bad name" in str(err("pcs 1\ncube a* 0\n"))
    # a face before any declaration: both of its names are new
    e = err("pcs 1\nface a 1 - b*\ncube a 1\n")
    assert (e.message, e.line, e.col) == ("bad name 'b*'", 2, 12)
    assert "bad dimension" in str(err("pcs 1\ncube a -1\n"))
    assert "bad dimension" in str(err("pcs 1\ncube a one\n"))
    assert "bad face axis" in str(err("pcs 1\ncube a 1\ncube b 0\nface a x - b\n"))
    e = err("pcs 1\ncube a 1\ncube b 0\nface a 1 = b\n")
    assert "'-' or '+'" in str(e) and e.line == 4 and e.col == 10
    # each distinct name, (axis, sign) pair and dimension token is checked
    # at its first line: a bad token after good ones is still caught there
    head = "pcs 1\ncube a 1\ncube b 0\nface a 1 - b\n"
    cases = {
        head + "face a 1 = b\n": ("face end must be '-' or '+', got '='", 5, 10),
        head + "face a x - b\n": ("bad face axis 'x'", 5, 8),
        head + "face a x = b\n": ("bad face axis 'x'", 5, 8),
        head + "face a 1 - b*\n": ("bad name 'b*'", 5, 12),
        head + "face a* 1 - b\n": ("bad name 'a*'", 5, 6),
        head + "cube c 07x\n": ("bad dimension '07x'", 5, 8),
        head + "cube c \uff10\n": ("bad dimension '\uff10'", 5, 8),
        "pcs 1\ncube b 0\ncube c 07x\n": ("bad dimension '07x'", 3, 8),
        "pcs 1\ncube b 0\ncube c 0\ncube b* 0\n": ("bad name 'b*'", 4, 6),
    }
    for text, expected in cases.items():
        e = err(text)
        assert (e.message, e.line, e.col) == expected == parse_reference(text), text


def test_error_precedence():
    # the first error of a file `_tables` stops on is placed by one rescan:
    # the line the loop stopped at is the first body line with its tokens,
    # a bad name met on or before it goes first, and an axis 0 is a
    # reference error, reported in file order
    head = "pcs 1\ncube a 1\ncube b 0\n"
    cases = {
        "pcs 1\ncube a 0\npcs 1\n": ("unknown directive 'pcs'", 3, 1),
        "pcs 1\ncube b* 0\ncube c 0\ncube d\n": ("bad name 'b*'", 2, 6),
        head + "face a x - b*": ("bad name 'b*'", 4, 12),
        head + "face a* 1 ? b": ("bad name 'a*'", 4, 6),
        head + "face a 1 ? b\ncube c 0\nface a 1 ? b": (
            "face end must be '-' or '+', got '?'", 4, 10),
        head + "face a 0 - b\ncube c x": ("bad dimension 'x'", 5, 8),
        head + "face a 0 - b": ("face axis 0 out of range 1..1 on cube 'a'", 4, 6),
        "# c\n\npcs 1 # h\n\n# x\ncube a 0 0\n": ("cube takes 2 arguments: name dim", 6, 1),
        head + "face a 1 - b*\nface a 1 + zz": ("bad name 'b*'", 4, 12),
        "pcs 1\ncube b* x\n": ("bad name 'b*'", 2, 6),
        head + "face a x* - x*": ("bad name 'x*'", 4, 13),
    }
    for text, expected in cases.items():
        e = err(text)
        assert (e.message, e.line, e.col) == expected == parse_reference(text), text


def test_one_str_object_per_cube_name():
    # every facet target and facet key is the very object keyed in dims
    texts = [path.read_text() for path in sorted(DATA.glob("*.pcs"))]
    texts += [emit_pcs(K) for K in (standard_cube(4), boundary_cube(4),
                                    subdivide(boundary_cube(3), 2).complex)]
    # faces before cubes: a name is first met as a face target
    texts += ["pcs 1\n" + "\n".join(reversed(t.splitlines()[1:])) for t in texts[-3:]]
    for text in texts:
        K = parse_pcs(text)
        key = {name: name for name in K._dims}
        for c, F in K._facets.items():
            assert c is key[c]
            assert all(t is key[t] for t in F if t is not None)


def test_error_unknown_and_duplicate():
    assert "unknown cube" in str(err("pcs 1\ncube b 0\nface a 1 - b\n"))
    assert "targets unknown" in str(err("pcs 1\ncube a 1\nface a 1 - b\n"))
    assert "duplicate cube" in str(err("pcs 1\ncube a 0\ncube a 0\n"))
    text = "pcs 1\ncube a 1\ncube b 0\nface a 1 - b\nface a 1 - b\n"
    e = err(text)
    assert "duplicate face" in str(e) and e.line == 5


def test_error_axis_range():
    e = err("pcs 1\ncube a 1\ncube b 0\nface a 2 - b\n")
    assert "out of range" in str(e)
    e = err("pcs 1\ncube a 0\ncube b 0\nface a 1 - b\n")
    assert "out of range" in str(e)


def test_strict_vs_lenient():
    # an edge with only one endpoint recorded
    text = "pcs 1\ncube a 0\ncube e 1\nface e 1 - a\n"
    e = err(text)
    assert "not a precubical set" in str(e) and "missing face" in str(e)
    K = parse_pcs(text, validate=False)
    assert len(validate(K)) == 1


def test_lenient_accepts_broken_identity():
    dims, faces = standard_cube(2).as_tables()
    faces[("0x", 1, 0)] = "01"
    faces[("0x", 1, 1)] = "00"
    text = emit_pcs(PrecubicalSet(dims, faces))
    with pytest.raises(ParseError):
        parse_pcs(text)
    K = parse_pcs(text, validate=False)
    assert any(v.kind == "identity" for v in validate(K))


def test_unicode_digits_are_not_numbers():
    # '²' and '¹' pass str.isdigit() but not int(); '٣' passes both
    e = err("pcs 1\ncube a \u00b2\n")
    assert (e.message, e.line, e.col) == ("bad dimension '\u00b2'", 2, 8)
    e = err("pcs 1\ncube a \u0663\n")
    assert (e.message, e.line, e.col) == ("bad dimension '\u0663'", 2, 8)
    e = err("pcs 1\ncube a 1\ncube b 0\nface a \u00b9 - b\n")
    assert (e.message, e.line, e.col) == ("bad face axis '\u00b9'", 4, 8)
    e = err("pcs 1\ncube a 1\ncube b 0\nface  a\t\uff11 - b\n")
    assert (e.message, e.line, e.col) == ("bad face axis '\uff11'", 4, 9)
    assert parse_pcs("pcs 1\ncube a 007\n", validate=False).dim_of("a") == 7


def test_error_columns_count_whitespace_and_skip_comments():
    e = err("pcs 1  # header\n\tcube   a 0 # c\n  cube a 0\n")
    assert (e.message, e.line, e.col) == ("duplicate cube 'a'", 3, 8)
    e = err("pcs 1\ncube a 1\n  face\ta 1 -   zz#x\n")
    assert (e.message, e.line, e.col) == ("face targets unknown cube 'zz'", 3, 16)
    e = err("\n# x\n  pcs 2 # y\n")
    assert (e.message, e.line, e.col) == ("unsupported format version '2'", 3, 3)


def test_positions_at_scale():
    text = emit_pcs(standard_cube(6))
    assert parse_pcs(text) == standard_cube(6)
    lines = text.splitlines()
    last = len(lines)
    face, cube, axis, sign, target = lines[-1].split()
    head = f"{face} {cube} "
    cases = [
        (f"{head}x {sign} {target}", "bad face axis 'x'", len(head) + 1),
        (f"{head}{axis} = {target}", "face end must be '-' or '+', got '='",
         len(head) + len(axis) + 2),
        (f"{head}{axis} {sign} {target}*", f"bad name '{target}*'",
         len(head) + len(axis) + 4),
        (f"{head}{axis} {sign} zz", "face targets unknown cube 'zz'",
         len(head) + len(axis) + 4),
        (f"{head}9 {sign} {target}", "face axis 9 out of range 1..6 on cube "
         f"'{cube}'", len(face) + 2),
    ]
    for line, message, col in cases:
        e = err("\n".join(lines[:-1] + [line]) + "\n")
        assert (e.message, e.line, e.col) == (message, last, col)


def test_parse_matches_reference_on_mutations():
    sources = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    sources.append(emit_pcs(boundary_cube(4)))
    rng = random.Random(20251018)
    outcomes = {"tables": 0, "errors": set()}
    for n in range(1200):
        text = mutate(rng, sources[n % len(sources)].splitlines())
        expected = parse_reference(text)
        try:
            got = parse_pcs(text, validate=False).as_tables()
        except ParseError as e:
            got = (e.message, e.line, e.col)
            outcomes["errors"].add(re.split("[0-9']", e.message)[0])
        else:
            outcomes["tables"] += 1
        assert got == expected, text
    # the corpus reaches both parse results and a spread of error kinds
    assert outcomes["tables"] > 50
    assert len(outcomes["errors"]) >= 12


def test_facet_tuples_match_keyed_tables_on_mutations():
    # parse and validate on facet tuples against the regex tokenizer's
    # (cube, axis, end) tables and the validator on those tables
    sources = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    sources += [emit_pcs(K) for K in corpus20()]
    rng = random.Random(20261019)
    seen = {"tables": 0, "violations": 0}
    for n in range(1000):
        text = mutate(rng, sources[n % len(sources)].splitlines())
        expected = parse_reference(text)
        try:
            K = parse_pcs(text, validate=False)
        except ParseError as e:
            assert (e.message, e.line, e.col) == expected, text
            with pytest.raises(ParseError) as strict:
                parse_pcs(text)
            assert str(strict.value) == str(e)
            continue
        dims, faces = expected
        assert K.as_tables() == expected and PrecubicalSet(*expected) == K, text
        ordered = sorted(faces.items(), key=lambda item: (dims[item[0][0]], *item[0]))
        assert list(K.face_items()) == ordered, text
        violations = validate_reference(*K.as_tables())
        assert validate(K) == violations, text
        if violations:
            with pytest.raises(ParseError) as strict:
                parse_pcs(text)
            assert str(strict.value) == violations_message(violations)
            seen["violations"] += 1
        else:
            assert parse_pcs(text) == K
        seen["tables"] += 1
    assert seen["tables"] > 100 and seen["violations"] > 50, seen


def test_emit_matches_reference_on_mutants_with_holes():
    # emit writes from the grades and facet tuples, skipping holes, the
    # text the (cube, axis, end) view gives; mutants loaded leniently
    # bring holes, faces of the wrong dimension and broken identities
    sources = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    sources += [emit_pcs(K) for K in corpus20()]
    rng = random.Random(20261020)
    holes = 0
    for n in range(600):
        text = mutate(rng, sources[n % len(sources)].splitlines())
        try:
            K = parse_pcs(text, validate=False)
        except ParseError:
            continue
        holes += any(None in F for F in K._facets.values())
        assert emit_pcs(K) == emit_reference(K), text
        assert parse_pcs(emit_pcs(K), validate=False) == K
    assert holes > 20, holes


def test_positioned_errors_come_before_the_slot_bound():
    # a file whose facet tuples would hold more than MAX_CELLS holes still
    # reports its first error with a line and column, as a parse without
    # the bound does, and only then the bound
    head = "pcs 1\ncube a 1000000\ncube b 0\nface a 1 - b\n"
    tails = ["face a 2 - zz\n", "face zz 1 - b\n", "face a 1000001 + b\n",
             "face a 1 - b\nface a 2 - zz\n", "cube a 1\n"]
    for tail in tails:
        start = time.perf_counter()
        with pytest.raises(ParseError) as e:
            parse_pcs(head + tail, validate=False)
        assert time.perf_counter() - start < 1.0, tail
        assert (e.value.message, e.value.line, e.value.col) == parse_reference(head + tail)
    with pytest.raises(ParseError) as e:
        parse_pcs(head, validate=False)
    assert str(e.value) == "face tables would leave more than 1000000 face slots empty"


def parse_outcome(text):
    """The tables of a lenient parse, in order, or its error's text and
    position."""
    try:
        K = parse_pcs(text, validate=False)
    except ParseError as e:
        return e.message, e.line, e.col
    key = {name: name for name in K._dims}
    for c, F in K._facets.items():
        assert c is key[c] and all(t is key[t] for t in F if t is not None), text
    return list(K._dims.items()), list(K._facets.items())


def test_fast_route_refuses_exactly_the_files_with_an_error():
    # `_tables` reads every well-formed file, comments and blank lines
    # included, and refuses exactly the files the reference rejects or whose
    # facet tuples would pass the hole bound, raising the reference's error
    # at its line and column
    emitted = [emit_pcs(K) for K in corpus20() + [glued_torsion()]]
    emitted += [emit_pcs(build(n)) for build in (standard_cube, boundary_cube) for n in range(6)]
    data = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    emitted += ["\n".join(line.partition("#")[0] for line in text.splitlines())
                for text in data]
    rng = random.Random(20261021)

    def shuffled(text):
        body = [line for line in text.splitlines() if line.split()[:1] != ["pcs"]]
        rng.shuffle(body)
        return "pcs 1\n" + "\n".join(body) + "\n"

    def variants(text):
        """The text under other header and comment forms."""
        yield "\n  \n# note\n\t\n" + text
        yield text.replace("pcs 1\n", "pcs 1 # note\n", 1)
        yield text.replace("pcs 1\n", "pcs  1\n", 1)
        yield re.sub(r"^(cube|face) .*", r"\g<0>  # note", text, flags=re.M)

    plain = emitted + data
    sources = plain + [shuffled(text) for text in plain for _ in range(2)]
    sources += [variant for text in plain for variant in variants(text)]
    assert not any(isinstance(parse_outcome(text)[0], str) for text in sources)
    bounded = ["pcs 1\ncube a 1000000\ncube b 0\nface a 1 - b\n",
               "pcs 1\ncube a 500000\ncube b 0\nface a 1 - b\nface a 1 + b\n"]
    # an axis 0, read as a slot, would index a cube's list from its end
    texts = sources + bounded + [re.sub(r"^(face \S+) \d+", r"\1 0", text, count=1, flags=re.M)
                                 for text in plain]
    texts += [mutate(rng, sources[n % len(sources)].splitlines()) for n in range(800)]
    taken = 0
    for text in texts:
        expected = parse_reference(text)
        if isinstance(expected[0], str):
            refused = True
        else:
            dims, faces = expected
            holes = sum(2 * dims[c] for c in {c for c, _, _ in faces}) - len(faces)
            refused = holes > core.MAX_CELLS
        got = parse_outcome(text)
        assert isinstance(got[0], str) == refused, text
        taken += not refused
        if not refused:
            # the reference's tables, cubes in file order, facets in the
            # order of each cube's first face
            keyed = {(c, k // 2 + 1, k % 2): t for c, F in got[1] for k, t in enumerate(F) if t}
            assert got[0] == list(dims.items()) and keyed == faces, text
            assert [c for c, _ in got[1]] == list(dict.fromkeys(c for c, _, _ in faces)), text
        elif isinstance(expected[0], str):
            assert got == expected, text
        else:
            assert got == (core.SLOTS_ERROR, 0, 0), text
    # the mutants reach both outcomes
    assert taken > len(sources) + 100 and len(texts) - taken > 400, taken


def test_error_path_memory_is_bounded():
    # a large file whose one error is its last line, a repeated face, is
    # read by both routes; the error path keeps per line what the checked
    # parser before it kept, so the parse peaks within 10% of that parser's
    # 10.13 MiB (tracemalloc, CPython 3.11)
    text = emit_pcs(standard_cube(8))
    text += text.splitlines()[-1] + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as e:
            parse_pcs(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    last = text.count("\n")
    assert (e.value.message, e.value.line, e.value.col) == (
        "duplicate face (8, +) on cube 'xxxxxxxx'", last, 6)
    assert peak <= 1.1 * 10.13 * 2**20, peak / 2**20


def test_fast_pass_bounds_slots_before_allocating():
    # each cube's slot list is allocated only once the holes so far stay
    # within MAX_CELLS, so a file of huge cubes with one face each is
    # refused before its lists exist
    huge = "".join(f"cube a{k} 1000000\nface a{k} 1 - b\n" for k in range(200))
    two = "".join(f"cube a{k} 400000\nface a{k} 1 - b\n" for k in range(2))
    for body in (huge, two):
        start = time.perf_counter()
        with pytest.raises(ParseError) as e:
            parse_pcs("pcs 1\ncube b 0\n" + body, validate=False)
        assert time.perf_counter() - start < 1.0
        assert str(e.value) == core.SLOTS_ERROR
