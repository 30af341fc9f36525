import argparse
import hashlib
import io
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from corpus import glued_torsion, mutate
from oracles import parse_reference
from precubical import cli
from precubical.cli import run_command
from precubical.core import boundary_cube, standard_cube, time_reverse
from precubical.pcsfile import ParseError, emit_pcs, parse_pcs
from precubical.subdivision import subdivide

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_ok():
    code, out, err = run("validate", str(DATA / "square.pcs"))
    assert code == 0
    assert "ok" in out and "9 cubes" in out
    assert err == ""


def test_validate_reports_violations(tmp_path):
    bad = tmp_path / "bad.pcs"
    bad.write_text("pcs 1\ncube a 0\ncube e 1\nface e 1 - a\n")
    code, out, err = run("validate", str(bad))
    assert code == 2
    assert "violation" in err and "1 violation(s)" in err


def test_validate_output_is_bounded(tmp_path):
    # a cube declared without faces misses all 2n of them: validate lists
    # the first 100 violations and counts the rest
    huge = tmp_path / "huge.pcs"
    huge.write_text("pcs 1\ncube a 200000\n")
    code, out, err = run("validate", str(huge))
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", 102)
    assert lines[0] == "violation: a: missing face (1, -)"
    assert lines[99] == "violation: a: missing face (50, +)"
    assert lines[100:] == ["... and 399900 more", f"{huge}: 400000 violation(s)"]
    assert len(err) < 4000 + len(str(huge))
    # exactly 100 violations are all listed, with no count line
    huge.write_text("pcs 1\ncube a 50\n")
    code, out, err = run("validate", str(huge))
    lines = err.splitlines()
    assert (code, len(lines)) == (2, 101)
    assert lines[-2:] == ["violation: a: missing face (50, +)", f"{huge}: 100 violation(s)"]


def test_validate_syntax_error(tmp_path):
    bad = tmp_path / "bad.pcs"
    bad.write_text("pcs 1\ncube a\n")
    code, out, err = run("validate", str(bad))
    assert code == 2
    assert "2 arguments" in err


def test_missing_file():
    code, out, err = run("info", str(DATA / "nope.pcs"))
    assert code == 2
    assert "error" in err


def test_info_frozen():
    code, out, err = run("info", str(DATA / "hollow-square.pcs"))
    assert code == 0
    assert out == (
        "dimension 1\n"
        "cubes[0] 4\n"
        "cubes[1] 4\n"
        "total 8\n"
        "initial 00\n"
        "final 11\n"
    )


def test_complex_single_vertex():
    code, out, err = run(
        "complex", str(DATA / "hollow-square.pcs"), "--vertex", "00"
    )
    assert code == 0
    assert out == "vertex 00 branching\nsimplex 0x 0\nsimplex x0 0\n"


def test_complex_merging():
    code, out, err = run(
        "complex", str(DATA / "hollow-square.pcs"), "--vertex", "11", "--merging"
    )
    assert code == 0
    assert out == "vertex 11 merging\nsimplex 1x 0\nsimplex x1 0\n"


def test_complex_face_lines():
    code, out, err = run(
        "complex", str(DATA / "square.pcs"), "--vertex", "00"
    )
    assert code == 0
    assert "simplex xx 1" in out
    assert "face xx 0 0x" in out and "face xx 1 x0" in out


def test_complex_unknown_vertex():
    code, out, err = run(
        "complex", str(DATA / "square.pcs"), "--vertex", "99"
    )
    assert code == 2
    assert "unknown vertex" in err


def test_homology_text():
    code, out, err = run("homology", str(DATA / "hollow-square.pcs"))
    assert code == 0
    assert out == "branching H0 = Z\nbranching H1 = Z\n"


def test_homology_json():
    code, out, err = run("homology", str(DATA / "hollow-square.pcs"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "side": "branching",
        "groups": [
            {"degree": 0, "rank": 1, "torsion": []},
            {"degree": 1, "rank": 1, "torsion": []},
        ],
    }


def test_homology_merging_json():
    code, out, err = run(
        "homology", str(DATA / "l-shape.pcs"), "--merging", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["side"] == "merging"
    assert report["groups"][0] == {"degree": 0, "rank": 1, "torsion": []}


def test_subdivide_stdout():
    code, out, err = run("subdivide", str(DATA / "hollow-square.pcs"), "-p", "2")
    assert code == 0
    K = parse_pcs(out)
    assert K.counts() == {0: 8, 1: 8}


def test_subdivide_to_file(tmp_path):
    dest = tmp_path / "out.pcs"
    code, out, err = run(
        "subdivide", str(DATA / "square.pcs"), "-p", "3", "-o", str(dest)
    )
    assert code == 0 and out == ""
    K = parse_pcs(dest.read_text())
    assert K.counts()[2] == 9


def test_check_sub():
    code, out, err = run("check-sub", str(DATA / "hollow-cube.pcs"), "-p", "2")
    assert code == 0
    assert "branching original H2 = Z" in out
    assert "branching subdivided H2 = Z" in out
    assert "preserves both homologies" in out


def test_glued_torsion_through_the_cli(tmp_path):
    # torsion of a precubical set glued to itself, from its emitted file
    path = tmp_path / "glued.pcs"
    path.write_text(emit_pcs(glued_torsion()))
    branching = "branching H0 = 0\nbranching H1 = 0\nbranching H2 = Z/2\n"
    merging = "merging H0 = 0\nmerging H1 = 0\nmerging H2 = Z/2 + Z/2\n"
    assert run("validate", str(path))[0] == 0
    assert run("homology", str(path)) == (0, branching, "")
    assert run("homology", "--merging", str(path)) == (0, merging, "")
    code, out, err = run("check-sub", str(path), "-p", "3")
    assert code == 0 and err == ""
    for side, text in (("branching", branching), ("merging", merging)):
        for which in ("original", "subdivided"):
            assert text.replace(f"{side} H", f"{side} {which} H") in out
    assert out.endswith("subdivision by 3 preserves both homologies\n")


def test_subdivided_bytes_do_not_depend_on_the_hash_seed():
    # no order may leak from set or hash iteration: the subdivided hollow
    # cube is byte for byte the same under two hash seeds, on every Python
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "precubical.cli", "subdivide", str(DATA / "hollow-cube.pcs"),
            "-p", "3"]
    for seed in ("0", "1"):
        proc = subprocess.run(argv, capture_output=True, env=dict(env, PYTHONHASHSEED=seed))
        assert proc.returncode == 0 and proc.stderr == b""
        assert (proc.stdout.count(b"\n"), len(proc.stdout)) == (651, 15508)
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "eab48d28a1a5dbaa625a4fac59c307ced83f13345c8ea0cfeac3a7c228ebad27"
        )


def test_std_cube_and_boundary():
    code, out, err = run("std-cube", "2")
    assert code == 0
    assert out == emit_pcs(standard_cube(2))
    code, out, err = run("boundary", "0")
    assert code == 0
    assert out == "pcs 1\n"
    code, out, err = run("std-cube", "-1")
    assert code == 2
    code, out, err = run("boundary", "-3")
    assert code == 2 and "integer >= 0" in err
    code, out, err = run("std-cube", "two")
    assert code == 2 and "integer >= 0" in err


def _library(build, name):
    return lambda: build(parse_pcs((DATA / name).read_text()))


@pytest.mark.parametrize("argv, build", [
    (["std-cube", "3"], lambda: standard_cube(3)),
    (["boundary", "3"], lambda: boundary_cube(3)),
    (["reverse", str(DATA / "l-shape.pcs")], _library(time_reverse, "l-shape.pcs")),
    (["subdivide", str(DATA / "square.pcs"), "-p", "2"],
     _library(lambda K: subdivide(K, 2).complex, "square.pcs")),
], ids=["std-cube", "boundary", "reverse", "subdivide"])
def test_emit_commands_write_the_library_complex(tmp_path, argv, build):
    # stdout and the -o file hold the same bytes as emit_pcs of the library result
    want = emit_pcs(build())
    assert run(*argv) == (0, want, "")
    dest = tmp_path / "out.pcs"
    assert run(*argv, "-o", str(dest)) == (0, "", "")
    assert dest.read_bytes() == want.encode("utf-8")


def test_every_subcommand_answers_help():
    (commands,) = [action.choices for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert len(commands) == 10
    for name in commands:
        code, out, err = run(name, "--help")
        assert (code, err) == (0, ""), name
        assert out.startswith(f"usage: pcs {name} "), name


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every line of the README's command-line block exits 0 without a complaint
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 11 and all(argv[0] == "pcs" for argv in lines)
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code, out, err = run(*argv[1:])
        assert (code, err) == (0, ""), argv
    assert parse_pcs((tmp_path / "sub3.pcs").read_text()).counts()[2] == 9


def test_hostile_sizes_exit_2_fast():
    hollow = str(DATA / "hollow-cube.pcs")
    for argv in (["std-cube", "20"], ["boundary", "20"], ["std-cube", "1000000000"],
                 ["subdivide", "-p", "1000", hollow], ["check-sub", "-p", "1000", hollow]):
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and "more than 1000000 cells" in err, argv
    _, _, err = run("boundary", "20")
    assert "the boundary of the standard 20-cube would have more than 1000000 cells" in err


def test_hostile_sizes_stay_bounded(tmp_path):
    # declared cubes without faces cost nothing; a facet tuple allocated for
    # a huge cube is refused before it is built
    start = time.perf_counter()
    text = "pcs 1\n" + "".join(f"cube a{k} 1000000\n" for k in range(100))
    assert len(parse_pcs(text, validate=False)) == 100
    assert time.perf_counter() - start < 1.0
    huge = tmp_path / "huge.pcs"
    huge.write_text("pcs 1\ncube a 1000000\ncube b 0\nface a 1 - b\n")
    for command in ("validate", "info"):
        start = time.perf_counter()
        code, out, err = run(command, str(huge))
        assert time.perf_counter() - start < 1.0, command
        assert code == 2 and out == "", command
        assert err == "error: face tables would leave more than 1000000 face slots empty\n"


def test_huge_numbers_exit_2_fast(tmp_path):
    # a dimension above MAX_CELLS or an axis too long for int() is a positioned
    # error, not a crash or a table of a million slots
    lines = ["cube a 99999999999999999999", "cube a " + "9" * 5000,
             "face a " + "1" * 5000 + " - b", "cube a 1000001"]
    for k, line in enumerate(lines):
        path = tmp_path / f"huge{k}.pcs"
        path.write_text(f"pcs 1\n{line}\n")
        message, line_no, col = parse_reference(path.read_text())
        assert line_no == 2 and message.startswith(("bad dimension", "bad face axis"))
        for command in ("validate", "info", "complex", "homology"):
            start = time.perf_counter()
            code, out, err = run(command, str(path))
            assert time.perf_counter() - start < 1.0, (command, k)
            assert (code, out, err) == (2, "", f"error: line 2, col {col}: {message}\n")


def test_parser_is_built_once_per_process():
    argvs = [["--help"], [], ["frobnicate"], ["std-cube", "-1"], ["std-cube", "2"],
             ["info", str(DATA / "square.pcs")], ["homology", "--json", str(DATA / "l-shape.pcs")],
             ["homology", "--merging", str(DATA / "hollow-square.pcs")],
             ["subdivide", "-p"], ["demo-no-germs", "--steps", "3"]]
    fresh = []
    for argv in argvs:  # a new parser for every call
        cli._build_parser.cache_clear()
        fresh.append(run(*argv))
    cli._build_parser.cache_clear()
    assert [run(*argv) for argv in argvs + argvs] == fresh + fresh
    assert cli._build_parser.cache_info().misses == 1
    assert {code for code, _, _ in fresh} == {0, 2}


def test_reverse_involution(tmp_path):
    once = tmp_path / "r.pcs"
    code, _, _ = run("reverse", str(DATA / "l-shape.pcs"), "-o", str(once))
    assert code == 0
    assert parse_pcs(once.read_text()) == time_reverse(
        parse_pcs((DATA / "l-shape.pcs").read_text())
    )
    code, out, _ = run("reverse", str(once))
    assert parse_pcs(out) == parse_pcs((DATA / "l-shape.pcs").read_text())


DEMO_NO_GERMS = """\
family gamma_h in the square, eps = 1/2
each path follows the boundary edge until h = 1/m, then heads diagonally
m=3 h=1/3 sup-distance-to-diagonal=1/6 boundary-germ-at-h=yes
m=4 h=1/4 sup-distance-to-diagonal=1/8 boundary-germ-at-h=yes
m=5 h=1/5 sup-distance-to-diagonal=1/10 boundary-germ-at-h=yes
m=6 h=1/6 sup-distance-to-diagonal=1/12 boundary-germ-at-h=yes
m=7 h=1/7 sup-distance-to-diagonal=1/14 boundary-germ-at-h=yes
m=8 h=1/8 sup-distance-to-diagonal=1/16 boundary-germ-at-h=yes
m=9 h=1/9 sup-distance-to-diagonal=1/18 boundary-germ-at-h=yes
m=10 h=1/10 sup-distance-to-diagonal=1/20 boundary-germ-at-h=yes
m=11 h=1/11 sup-distance-to-diagonal=1/22 boundary-germ-at-h=yes
m=12 h=1/12 sup-distance-to-diagonal=1/24 boundary-germ-at-h=yes
m=13 h=1/13 sup-distance-to-diagonal=1/26 boundary-germ-at-h=yes
m=14 h=1/14 sup-distance-to-diagonal=1/28 boundary-germ-at-h=yes
m=15 h=1/15 sup-distance-to-diagonal=1/30 boundary-germ-at-h=yes
m=16 h=1/16 sup-distance-to-diagonal=1/32 boundary-germ-at-h=yes
diagonal restrictions: zero_set@1/64=empty, zero_set@1/8=empty, zero_set@1/4=empty
the family converges to the diagonal, yet every member shares a germ with a boundary path and the diagonal never does: no germ quotient can keep the boundary closed
"""


def test_demo_no_germs():
    assert run("demo-no-germs") == (0, DEMO_NO_GERMS, "")


def test_demo_no_germs_options():
    code, out, err = run("demo-no-germs", "--epsilon", "3/4", "--steps", "5")
    assert code == 0
    assert "m=2 h=1/2" in out
    code, out, err = run("demo-no-germs", "--epsilon", "1")
    assert code == 2
    code, out, err = run("demo-no-germs", "--epsilon", "zzz")
    assert code == 2
    code, out, err = run("demo-no-germs", "--epsilon", "1/0")
    assert code == 2 and "rational" in err


def test_huge_epsilon_exits_2_fast():
    # sizes are read from the text: no exponent is expanded, and no number
    # too long to print reaches a message
    for text in ("1e-999999999", "1e-5000", "1e-99", "1e99", "9" * 100, "1/1" + "0" * 99):
        start = time.perf_counter()
        code, out, err = run("demo-no-germs", "--epsilon", text)
        assert time.perf_counter() - start < 1.0, text
        assert code == 2 and out == "" and "100 or more digits" in err, text
    code, out, err = run("demo-no-germs", "--epsilon", "1e-98")
    assert (code, out) == (2, "")
    assert err == f"error: need at least {10**98 + 1} steps for epsilon 1/{10**98}\n"


def test_demo_no_germs_rows_are_bounded():
    # more than 10**6 rows is refused before the first row is printed; the
    # rows are counted, not the steps, so a tiny epsilon takes a large --steps
    for argv in (["--steps", "100000000"], ["--steps", str(10**6 + 3)],
                 ["--epsilon", "1e-98", "--steps", str(10**98 + 10**6 + 1)]):
        start = time.perf_counter()
        code, out, err = run("demo-no-germs", *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, "") and err.endswith(", more than 1000000\n"), argv
    assert run("demo-no-germs", "--steps", "100000000")[2] == (
        "error: --steps 100000000 would print 99999998 rows for epsilon 1/2, more than 1000000\n")
    code, out, err = run("demo-no-germs", "--epsilon", "1e-98", "--steps", str(10**98 + 10))
    assert code == 0 and out.count("\nm=") == 10


def test_library_errors_are_not_bad_input(monkeypatch):
    def broken(K, side):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "branching_homology", broken)
    with pytest.raises(ValueError, match="a bug"):
        run("homology", str(DATA / "square.pcs"))


def test_non_utf8_file_is_bad_input(tmp_path):
    bad = tmp_path / "bad.pcs"
    bad.write_bytes(b"pcs 1\ncube \xff 0\n")
    code, out, err = run("validate", str(bad))
    assert code == 2 and "not UTF-8" in err


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    # Windows editors start UTF-8 files with a mark; every command that reads
    # a file prints the same with it as without it.  Only one leading mark
    # goes: a second is still an error, and so is a mark in parse_pcs's text.
    text = (DATA / "hollow-cube.pcs").read_text()
    path = tmp_path / "cube.pcs"
    commands = [["validate"], ["info"], ["complex"], ["complex", "--merging"],
                ["homology"], ["homology", "--merging", "--json"], ["reverse"],
                ["subdivide", "-p", "2"], ["check-sub", "-p", "2"]]
    for command in commands:
        results = []
        for mark in ("", "\ufeff"):
            path.write_text(mark + text, encoding="utf-8")
            results.append(run(command[0], str(path), *command[1:]))
        assert results[0][0] == 0 and results[1] == results[0], command
    header = "line 1, col 1: first line must be the header 'pcs 1'"
    path.write_text("\ufeff\ufeff" + text, encoding="utf-8")
    assert run("info", str(path)) == (2, "", f"error: {header}\n")
    with pytest.raises(ParseError) as caught:
        parse_pcs("\ufeff" + text)
    assert str(caught.value) == header


def test_homology_of_no_cubes_is_zero(tmp_path):
    path = tmp_path / "empty.pcs"
    path.write_text("pcs 1\n")
    assert run("homology", str(path)) == (0, "branching: 0\n", "")
    assert run("homology", "--merging", str(path)) == (0, "merging: 0\n", "")


def test_check_sub_exits_1_when_homology_differs(monkeypatch):
    # a subdivision that fills the hollow square changes both homologies
    monkeypatch.setattr(cli, "subdivide", lambda K, p: subdivide(standard_cube(2), p))
    code, out, err = run("check-sub", str(DATA / "hollow-square.pcs"), "-p", "2")
    assert (code, err) == (1, "")
    assert out == (
        "branching original H0 = Z\nbranching original H1 = Z\n"
        "branching subdivided H0 = Z\nbranching homology differs\n"
        "merging original H0 = Z\nmerging original H1 = Z\n"
        "merging subdivided H0 = Z\nmerging homology differs\n"
    )


def test_bad_usage():
    code, out, err = run()
    assert code == 2
    code, out, err = run("frobnicate")
    assert code == 2


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "precubical.cli", "info", str(DATA / "square.pcs")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "dimension 2" in proc.stdout


# the stdlib modules that the package imports itself
STDLIB_USED = ("__future__", "argparse", "bisect", "collections", "contextlib", "decimal",
               "fractions", "functools", "itertools", "json", "math", "operator", "random",
               "re", "typing")


def test_import_loads_no_module_beyond_its_own_and_the_stdlib_it_names():
    # every `pcs` command pays the package import first: beyond the stdlib
    # modules it names, importing it loads only precubical (no dataclasses,
    # inspect, ast or dis), compared in two fresh interpreters
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def loaded(imports):
        code = f"import sys, {imports}; print(*sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        return set(proc.stdout.split())

    extra = loaded("precubical, precubical.cli") - loaded(", ".join(STDLIB_USED))
    assert "precubical.cli" in extra
    assert {m for m in extra if m.partition(".")[0] != "precubical"} == set()


def test_emit_writes_a_bounded_piece_at_a_time(tmp_path):
    # `pcs std-cube 7 -o f` writes 288 kB of text; above what building the
    # cube takes, writing it holds one block of cubes' lines at a time.
    # Building the whole text with a list of its lines takes 3.4 times its size.
    out = tmp_path / "c.pcs"
    assert run_command(["std-cube", "7", "-o", str(out)]) == 0
    size = out.stat().st_size
    tracemalloc.start()
    try:
        standard_cube(7)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert run_command(["std-cube", "7", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == size == len(emit_pcs(standard_cube(7)))
    assert peak - build < size // 8, (peak, build, size)


def test_commands_on_mutants_exit_cleanly(tmp_path):
    # seeded mutants of the sample files: every command ends with an exit
    # code, never an exception
    commands = [["validate"], ["info"], ["complex"], ["complex", "--merging"],
                ["homology"], ["homology", "--merging"], ["reverse"],
                ["subdivide", "-p", "2"], ["check-sub", "-p", "2"]]
    sources = [p.read_text() for p in sorted(DATA.glob("*.pcs"))]
    rng = random.Random(20261018)
    codes = set()
    for k in range(100):
        path = tmp_path / f"mutant{k}.pcs"
        path.write_text(mutate(rng, sources[k % len(sources)].splitlines()))
        for command in commands:
            code, out, err = run(command[0], str(path), *command[1:])
            assert code in (0, 1, 2), (command, path.read_text())
            codes.add(code)
    assert {0, 2} <= codes
