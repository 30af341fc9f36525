"""The pcs command-line tool.

One subcommand per capability: validating and describing PCS files,
exporting per-vertex branching complexes, computing branching/merging
homology (text or JSON), subdividing, checking subdivision invariance, and
printing the convergent family of boundary-hugging paths.  Exit codes: 0 on
success, 1 when an analysis check fails, 2 on bad input.

Arguments that several commands share are defined once in `_build_parser`:
the input `file`, `--merging` (stored as the side, '+' instead of the
default '-'), the grid order `-p`, the cube dimension `n` and `-o/--output`.
The four commands that emit a complex (`subdivide`, `std-cube`, `boundary`,
`reverse`) differ only in the complex they build; one handler writes it.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

from .complexes import assemble_all
from .core import (
    MAX_CELLS,
    MINUS,
    PLUS,
    SIDES,
    CubeId,
    PcsError,
    PrecubicalSet,
    boundary_cube,
    final_states,
    initial_states,
    shown,
    standard_cube,
    time_reverse,
    validate,
)
from .dipath import (
    PathError,
    diagonal_path,
    embed_face,
    gamma_h,
    germ_equal,
    make_path,
    restrict,
    sup_distance,
    zero_set,
)
from .homology import (
    GradedAbelianGroup,
    branching_homology,
    group_str,
)
from .pcsfile import ParseError, _chunks, parse_pcs
from .subdivision import subdivide


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_complex(path: str, *, strict: bool = True) -> PrecubicalSet:
    return parse_pcs(_read_text(path), validate=strict)


def _natural(text: str) -> int:
    """argparse type: a whole number >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def _fraction(text: str) -> Fraction:
    """argparse type: an exact rational such as 1/2, 0.25 or 1e-3.  Sizes are
    read from the text before any number is built: a numerator or
    denominator of 100 or more digits is refused."""
    try:
        for part in text.split("/", 1):  # Decimal keeps the exponent apart
            _, digits, exponent = Decimal(part).as_tuple()
            if len(digits) + max(exponent, 0) >= 100 or exponent <= -99:
                raise argparse.ArgumentTypeError(f"{text!r} needs 100 or more digits")
        return Fraction(text)
    except (ArithmeticError, TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number, got {text!r}"
        ) from None


_SIDE_NAMES = {MINUS: "branching", PLUS: "merging"}
_SHOWN_VIOLATIONS = 100  # validate lists at most this many, then counts the rest


def _cmd_validate(args, out, err) -> int:
    K = _read_complex(args.file, strict=False)
    problems = validate(K)
    if problems:
        for v in problems[:_SHOWN_VIOLATIONS]:
            print(f"violation: {v}", file=err)
        if len(problems) > _SHOWN_VIOLATIONS:
            print(f"... and {len(problems) - _SHOWN_VIOLATIONS} more", file=err)
        print(f"{args.file}: {len(problems)} violation(s)", file=err)
        return 2
    print(f"{args.file}: ok ({len(K)} cubes, dimension {K.dim})", file=out)
    return 0


def _cmd_info(args, out, err) -> int:
    K = _read_complex(args.file)
    counts = K.counts()
    print(f"dimension {K.dim}", file=out)
    for d in sorted(counts):
        print(f"cubes[{d}] {counts[d]}", file=out)
    print(f"total {len(K)}", file=out)
    print(f"initial {' '.join(sorted(initial_states(K))) or '-'}", file=out)
    print(f"final {' '.join(sorted(final_states(K))) or '-'}", file=out)
    return 0


def _cmd_complex(args, out, err) -> int:
    complexes = assemble_all(_read_complex(args.file), args.side)
    if args.vertex is not None:
        if args.vertex not in complexes:
            raise PcsError(f"unknown vertex {args.vertex!r}")
        complexes = {args.vertex: complexes[args.vertex]}
    for v in sorted(complexes):
        B = complexes[v]
        print(f"vertex {v} {_SIDE_NAMES[args.side]}", file=out)
        for s in B.simplices():
            print(f"simplex {s.name} {s.dim}", file=out)
        for s in B.simplices():
            for i in range(s.dim + 1):
                if s.dim:
                    print(f"face {s.name} {i} {B.face(s.name, i)}", file=out)
    return 0


def _group_report(side: str, G: GradedAbelianGroup) -> dict:
    return {
        "side": side,
        "groups": [
            {"degree": k, "rank": rank, "torsion": list(torsion)}
            for k, (rank, torsion) in enumerate(G.groups)
        ],
    }


def _print_group(label: str, G: GradedAbelianGroup, out) -> None:
    if G.is_trivial():
        print(f"{label}: 0", file=out)
        return
    for k, (rank, torsion) in enumerate(G.groups):
        print(f"{label} H{k} = {group_str(rank, torsion)}", file=out)


def _cmd_homology(args, out, err) -> int:
    G = branching_homology(_read_complex(args.file), args.side)
    side = _SIDE_NAMES[args.side]
    if args.json:
        print(json.dumps(_group_report(side, G), indent=2), file=out)
    else:
        _print_group(side, G, out)
    return 0


def _cmd_emit(args, out, err) -> int:
    """Write the PCS text of the complex the command builds, a block of
    cubes at a time, so that the whole text is never held at once."""
    chunks = _chunks(args.build(args))
    if args.output is None:
        out.writelines(chunks)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    return 0


def _cmd_check_sub(args, out, err) -> int:
    K = _read_complex(args.file)
    L = subdivide(K, args.p).complex
    ok = True
    for side in SIDES:
        G, GL = branching_homology(K, side), branching_homology(L, side)
        name = _SIDE_NAMES[side]
        _print_group(f"{name} original", G, out)
        _print_group(f"{name} subdivided", GL, out)
        if G != GL:
            ok = False
            print(f"{name} homology differs", file=out)
    if ok:
        print(f"subdivision by {args.p} preserves both homologies", file=out)
        return 0
    return 1


def _cmd_demo_no_germs(args, out, err) -> int:
    eps = args.epsilon
    if not 0 < eps < 1:
        raise PathError(f"epsilon must be in (0, 1), got {eps}")
    first = int(1 / eps) + 1
    if args.steps < first:
        raise PathError(f"need at least {shown(first)} steps for epsilon {eps}")
    if (rows := args.steps - first + 1) > MAX_CELLS:
        raise PathError(f"--steps {shown(args.steps)} would print {shown(rows)} rows "
                        f"for epsilon {eps}, more than {MAX_CELLS}")
    diagonal = diagonal_path(2, eps)
    edge = make_path(CubeId("0x", 1), eps, (0, eps), ((0,), (eps,)))
    boundary = embed_face(edge, standard_cube(2), "xx", 1)
    print(f"family gamma_h in the square, eps = {eps}", file=out)
    print(
        "each path follows the boundary edge until h = 1/m, then heads "
        "diagonally",
        file=out,
    )
    for m in range(first, args.steps + 1):
        h = Fraction(1, m)
        g = gamma_h(h, eps)
        dist = sup_distance(g, diagonal)
        germ = germ_equal(g, boundary, h)
        print(
            f"m={m} h={h} sup-distance-to-diagonal={dist} "
            f"boundary-germ-at-h={'yes' if germ else 'no'}",
            file=out,
        )
    checks = [Fraction(1, 64), Fraction(1, 8), Fraction(1, 4)]
    checks = [c for c in checks if c <= eps]
    flags = ", ".join(
        f"zero_set@{c}={sorted(zero_set(restrict(diagonal, c))) or 'empty'}"
        for c in checks
    )
    print(f"diagonal restrictions: {flags}", file=out)
    print(
        "the family converges to the diagonal, yet every member shares a "
        "germ with a boundary path and the diagonal never does: no germ "
        "quotient can keep the boundary closed",
        file=out,
    )
    return 0


@functools.cache  # one parser per process, reused by every run_command
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcs",
        description="Analyze precubical sets stored in the PCS text format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def arg(*names, **options):
        return names, options

    def command(name, summary, *arguments, **defaults):
        p = sub.add_parser(name, help=summary)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(**defaults)

    # the arguments several commands share, each defined once
    file = arg("file")
    side = arg("--merging", dest="side", action="store_const", const=PLUS, default=MINUS,
               help="use the merging side")
    order = arg("-p", type=int, required=True, help="grid order (>= 1)")
    n = arg("n", type=_natural)
    output = arg("-o", "--output", help="write here instead of stdout")

    command("validate", "check a PCS file against the axioms", file, handler=_cmd_validate)
    command("info", "print cube counts and states", file, handler=_cmd_info)
    command("complex", "list the per-vertex branching complexes", file,
            arg("--vertex", help="only this vertex"), side, handler=_cmd_complex)
    command("homology", "branching or merging homology", file, side,
            arg("--json", action="store_true", help="machine-readable"),
            handler=_cmd_homology)
    command("subdivide", "emit the subdivided complex", file, order, output, handler=_cmd_emit,
            build=lambda a: subdivide(_read_complex(a.file), a.p).complex)
    command("check-sub", "verify homology is unchanged by subdivision", file, order,
            handler=_cmd_check_sub)
    command("std-cube", "emit the standard n-cube", n, output, handler=_cmd_emit,
            build=lambda a: standard_cube(a.n))
    command("boundary", "emit the boundary of the n-cube", n, output, handler=_cmd_emit,
            build=lambda a: boundary_cube(a.n))
    command("reverse", "emit the time-reversed complex", file, output, handler=_cmd_emit,
            build=lambda a: time_reverse(_read_complex(a.file)))
    command("demo-no-germs", "print the boundary-hugging family converging to the diagonal",
            arg("--epsilon", type=_fraction, default="1/2",
                help="natural length (rational, default 1/2)"),
            arg("--steps", type=int, default=16, help="largest m in the table"),
            handler=_cmd_demo_no_germs)
    return parser


def run_command(argv, stdout=None, stderr=None) -> int:
    """Run one pcs command; returns the exit code.

    Streams default to the process streams; tests pass their own.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else 0
    try:
        return args.handler(args, out, err)
    except (PcsError, PathError, OSError) as exc:  # ParseError is a PcsError
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
