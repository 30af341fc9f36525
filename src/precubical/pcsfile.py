"""The PCS text format: parse and emit precubical sets.

A PCS file is line-oriented UTF-8; `pcs` drops one leading byte-order mark
when it reads a file, but in `parse_pcs`'s text a mark is an error.  '#'
starts a comment running to the end of the line; blank lines are skipped.
The first significant line is the header `pcs 1`.  After it, in any order:

    cube <name> <dim>
    face <name> <i> <-|+> <target>

declare a cube and a face entry; <i> is the 1-based axis, '-' is the start
end and '+' the finish end, and names match [A-Za-z0-9_.-]+.  Dimensions (at
most MAX_CELLS) and axes are ASCII decimal digits only: other Unicode digits
such as '²' or '٣' are errors.  Tokens are separated by any whitespace.
Forward references are fine; duplicate declarations are errors.

`_tables` alone reads the grammar and builds a complex, in one pass that
keeps no line numbers, checks each distinct name, (axis, sign) pair and
dimension token once, and keeps one str object per cube name: every facet
tuple holds the very object that keys the cube's dimension.  Only at an
irregularity does `_error` read the file again, to place the first error
at its 1-based line and column: the first syntax error, else the first
duplicate or unknown reference in file order, else the hole bound.  A
line's syntax depends only on its tokens, so the line the pass stopped at
is the first after the header with its tokens.

`parse_pcs` is strict by default (the complex must satisfy the precubical
axioms); pass validate=False to accept structurally well-formed input with
holes or broken identities, e.g. to inspect it with `core.validate`.
"""
from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, Iterator, NoReturn

from .core import MAX_CELLS, NAME_RE, PLUS, SIDES, SLOTS_ERROR, PcsError, PrecubicalSet, seal_facets
from .core import validate as validate_complex, violations_message


class ParseError(PcsError):
    """A PCS parse failure, with 1-based line and column when known."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message


def _digits_value(token: str) -> int:
    """The value of a token of ASCII decimal digits, or -1 for any other."""
    try:
        return int(token) if token.isascii() and token.isdigit() else -1
    except ValueError:  # more digits than int() reads
        return -1


def parse_pcs(text: str, *, validate: bool = True) -> PrecubicalSet:
    """Parse PCS text into a precubical set.

    Raises ParseError on syntax problems, unknown or duplicate declarations,
    out-of-range face axes, and (unless validate=False) on complexes that
    fail the precubical axioms.
    """
    dims, facets = _tables(text)
    K = PrecubicalSet._adopt(dims, facets, _valid=False)
    if validate:
        violations = validate_complex(K)
        if violations:
            raise ParseError(violations_message(violations))
    return K


def _tables(text: str) -> tuple[dict, dict]:
    """(dims, facets) of a file; at its first irregularity of any kind, the
    loop stops and `_error` reads the file again to raise its first error."""
    lines = iter(text.splitlines())  # freed once the loop has read them all
    if "#" in text:
        lines = (raw.partition("#")[0] for raw in lines)
    # the header is the first line with a token; the loop reads on from it
    if next(filter(None, map(str.split, lines)), None) != ["pcs", "1"]:
        del lines  # the rescan splits the text anew
        _error(text)
    names: dict[str, str] = {}  # in the order they were met
    name = names.setdefault
    slot_of: dict[tuple[str, str], int] = {}
    dim_of: dict[str, int] = {}
    # (name, dim) per cube; face j fills slot slots[j] of owners[j] with targets[j]
    cubes, owners, slots, targets = [], [], [], []
    for raw in lines:
        tokens = raw.split()
        # a line's names are met before its other tokens are checked, as `_error` assumes
        if len(tokens) == 5 and tokens[0] == "face":
            _, cube, axis, sign, target = tokens
            owners.append(name(cube, cube))
            targets.append(name(target, target))
            k = slot_of.get((axis, sign))
            if k is None:
                i = _digits_value(axis)
                if i < 0 or sign not in SIDES:
                    break
                k = slot_of[axis, sign] = 2 * i - 2 + (sign == PLUS)
            slots.append(k)
        elif len(tokens) == 3 and tokens[0] == "cube":
            _, cube, dim = tokens
            cube = name(cube, cube)
            d = dim_of.get(dim)
            if d is None:
                d = dim_of[dim] = _digits_value(dim)
                if not 0 <= d <= MAX_CELLS:
                    break
            cubes.append((cube, d))
        elif tokens:
            break
    else:
        dims = dict(cubes)
        if len(cubes) == len(dims) == len(names) and all(map(NAME_RE.match, dims)):
            facets = seal_facets(dims, owners, slots, targets)
            if facets is not None:
                return dims, facets
        _error(text, names, None, cubes, zip(owners, slots, targets))
    del lines  # the rescan splits the text anew
    _error(text, names, tokens)


def _error(text: str, names: Iterable = (), tokens: list | None = None,
           cubes: Iterable = (), faces: Iterable = ()) -> NoReturn:
    """Raise the first error of a file `_tables` stopped at, with its line
    and column, from one more read of the file.  In order: an error in the
    header; the first bad name in `names`, the names met in the order they
    were met; the error of the line the pass stopped at, the first with the
    tokens `tokens`; the first duplicate in `cubes`, (name, dim) per cube
    line; the first reference error in `faces`, (cube, slot, target) per
    face line; else the hole bound."""
    lines = text.splitlines()
    code = (raw.partition("#")[0].split() for raw in lines)
    rows = ((n, tokens) for n, tokens in enumerate(code, start=1) if tokens)

    def error(message: str, row: tuple[int, list], k: int) -> ParseError:
        columns = [match.start() + 1 for match in re.finditer(r"\S+", lines[row[0] - 1])]
        return ParseError(message, row[0], columns[k])

    header = next(rows, None)
    if header is None:
        raise ParseError("missing header line 'pcs 1'")
    if header[1] != ["pcs", "1"]:
        if header[1][0] != "pcs":
            raise error("first line must be the header 'pcs 1'", header, 0)
        raise error(f"unsupported format version {' '.join(header[1][1:])!r}", header, 0)
    bad = next((n for n in names if not NAME_RE.match(n)), None)
    if bad is not None:  # on a face or cube line at or before the loop's stop
        row = next(row for row in rows if bad in row[1][1::3])
        raise error(f"bad name {bad!r}", row, 1 if row[1][1] == bad else 4)
    if tokens is not None:
        row = next(row for row in rows if row[1] == tokens)
        directive = tokens[0]
        if directive == "face":
            if len(tokens) != 5:
                raise error("face takes 4 arguments: name i -|+ target", row, 0)
            if _digits_value(tokens[2]) < 0:
                raise error(f"bad face axis {tokens[2]!r}", row, 2)
            raise error(f"face end must be '-' or '+', got {tokens[3]!r}", row, 3)
        if directive == "cube":
            if len(tokens) != 3:
                raise error("cube takes 2 arguments: name dim", row, 0)
            raise error(f"bad dimension {tokens[2]!r}", row, 2)
        raise error(f"unknown directive {directive!r}", row, 0)

    dims: dict[str, int] = {}
    for j, (cube, dim) in enumerate(cubes):
        if cube in dims:
            raise error(f"duplicate cube {cube!r}", _nth(rows, "cube", j), 1)
        dims[cube] = dim
    filled = set()
    for j, (cube, k, target) in enumerate(faces):
        dim = dims.get(cube)
        if dim is None:
            message, col = f"face on unknown cube {cube!r}", 1
        elif target not in dims:
            message, col = f"face targets unknown cube {target!r}", 4
        elif not 0 <= k < 2 * dim:
            message, col = f"face axis {k // 2 + 1} out of range 1..{dim} on cube {cube!r}", 1
        elif (cube, k) in filled:
            message, col = f"duplicate face ({k // 2 + 1}, {SIDES[k % 2]}) on cube {cube!r}", 1
        else:
            filled.add((cube, k))
            continue
        raise error(message, _nth(rows, "face", j), col)
    raise ParseError(SLOTS_ERROR)


def _nth(rows: Iterator, directive: str, j: int) -> tuple[int, list]:
    """The j-th (from 0) of `rows` that starts with `directive`."""
    return next(islice((row for row in rows if row[1][0] == directive), j, None))


_BLOCK = 256  # cubes per piece of emitted text


def emit_pcs(K: PrecubicalSet) -> str:
    """Serialize a precubical set as PCS text.

    Deterministic: cubes sorted by (dim, name), then faces in the same
    order with axes ascending, '-' before '+'.  parse_pcs inverts it.
    """
    return "".join(_chunks(K))


def _chunks(K: PrecubicalSet) -> Iterator[str]:
    """`emit_pcs`'s text in pieces of at most `_BLOCK` cubes' lines, so that a
    writer holds a bounded part of it at a time."""
    grades, facets = K._grades, K._facets
    width = max(map(len, facets.values()), default=0)
    labels = [f" {k // 2 + 1} {SIDES[k % 2]} " for k in range(width)]
    yield "pcs 1\n"
    for d in sorted(grades):
        names = grades[d]
        for i in range(0, len(names), _BLOCK):
            yield "".join([f"cube {c} {d}\n" for c in names[i : i + _BLOCK]])
    for d in sorted(grades):
        names = grades[d] if d else ()
        for i in range(0, len(names), _BLOCK):
            yield "".join([f"face {c}{label}{t}\n" for c in names[i : i + _BLOCK]
                           for label, t in zip(labels, facets.get(c, ())) if t])
