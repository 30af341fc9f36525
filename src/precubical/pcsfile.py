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

`_tables` alone builds a complex, in one pass that keeps no line numbers,
checks each distinct name, (axis, sign) pair and dimension token once, and
keeps one str object per cube name: every facet tuple holds the very object
that keys the cube's dimension.  At the first irregularity of any kind it
returns None, and `_first_error` reads the file again, builds no tables,
and raises the first error at its 1-based line and column: the first
syntax error, else the first duplicate or unknown reference in file order,
else the hole bound.

`parse_pcs` is strict by default (the complex must satisfy the precubical
axioms); pass validate=False to accept structurally well-formed input with
holes or broken identities, e.g. to inspect it with `core.validate`.
"""
from __future__ import annotations

import re
from operator import itemgetter
from typing import NoReturn

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
    dims, facets = _tables(text) or _first_error(text)
    K = PrecubicalSet._adopt(dims, facets, _valid=False)
    if validate:
        violations = validate_complex(K)
        if violations:
            raise ParseError(violations_message(violations))
    return K


def _tables(text: str) -> tuple[dict, dict] | None:
    """(dims, facets) of a well-formed file, or None at its first
    irregularity of any kind, for `_first_error` to find and place."""
    lines = iter(text.splitlines())  # freed once the loop has read them all
    if "#" in text:
        lines = (raw.partition("#")[0] for raw in lines)
    # the header is the first line with a token; the loop reads on from it
    if next(filter(None, map(str.split, lines)), None) != ["pcs", "1"]:
        return None
    names: dict[str, str] = {}
    name = names.setdefault
    slot_of: dict[tuple[str, str], int] = {}
    dim_of: dict[str, int] = {}
    # (name, dim) per cube; face j fills slot slots[j] of owners[j] with targets[j]
    cubes, owners, slots, targets = [], [], [], []
    for raw in lines:
        tokens = raw.split()
        if len(tokens) == 5 and tokens[0] == "face":
            _, cube, axis, sign, target = tokens
            k = slot_of.get((axis, sign))
            if k is None:
                i = _digits_value(axis)
                if i < 1 or sign not in SIDES:
                    return None
                k = slot_of[axis, sign] = 2 * i - 2 + (sign == PLUS)
            owners.append(name(cube, cube))
            slots.append(k)
            targets.append(name(target, target))
        elif len(tokens) == 3 and tokens[0] == "cube":
            _, cube, dim = tokens
            d = dim_of.get(dim)
            if d is None:
                d = dim_of[dim] = _digits_value(dim)
                if not 0 <= d <= MAX_CELLS:
                    return None
            cubes.append((name(cube, cube), d))
        elif tokens:
            return None

    dims = dict(cubes)
    if not len(cubes) == len(dims) == len(names) or not all(map(NAME_RE.match, dims)):
        return None
    facets = seal_facets(dims, owners, slots, targets)
    return None if facets is None else (dims, facets)


def _first_error(text: str) -> NoReturn:
    """Raise the first error of a file `_tables` refused: a syntax error,
    else a duplicate or unknown reference in file order, else the hole bound."""
    lines = text.splitlines()

    def error(message: str, line_no: int, k: int) -> ParseError:
        columns = [match.start() + 1 for match in re.finditer(r"\S+", lines[line_no - 1])]
        return ParseError(message, line_no, columns[k])

    code = (raw.partition("#")[0] for raw in lines) if "#" in text else lines
    rows = filter(itemgetter(1), enumerate(map(str.split, code), start=1))  # lines with a token
    line_no, tokens = next(rows, (0, None))
    if tokens is None:
        raise ParseError("missing header line 'pcs 1'")
    if tokens != ["pcs", "1"]:
        if tokens[0] != "pcs":
            raise error("first line must be the header 'pcs 1'", line_no, 0)
        raise error(f"unsupported format version {' '.join(tokens[1:])!r}", line_no, 0)

    # Syntax pass: (name, dim, line) and (cube, slot 2(i - 1) + end, target, line);
    # each distinct name and (axis, sign) pair is checked once.
    cubes: list[tuple[str, int, int]] = []
    faces: list[tuple[str, int, str, int]] = []
    names: dict[str, str] = {}
    slots: dict[tuple[str, str], int] = {}

    def new_name(token: str, line_no: int, k: int) -> str:
        if not NAME_RE.match(token):
            raise error(f"bad name {token!r}", line_no, k)
        names[token] = token
        return token

    for line_no, tokens in rows:
        directive = tokens[0]
        if directive == "face":
            if len(tokens) != 5:
                raise error("face takes 4 arguments: name i -|+ target", line_no, 0)
            _, cube, axis, sign, target = tokens
            c = names.get(cube) or new_name(cube, line_no, 1)
            t = names.get(target) or new_name(target, line_no, 4)
            k = slots.get((axis, sign))
            if k is None:
                i = _digits_value(axis)
                if i < 0:
                    raise error(f"bad face axis {axis!r}", line_no, 2)
                if sign not in SIDES:
                    raise error(f"face end must be '-' or '+', got {sign!r}", line_no, 3)
                k = slots[axis, sign] = 2 * i - 2 + (sign == PLUS)
            faces.append((c, k, t, line_no))
        elif directive == "cube":
            if len(tokens) != 3:
                raise error("cube takes 2 arguments: name dim", line_no, 0)
            _, name, dim = tokens
            c = names.get(name) or new_name(name, line_no, 1)
            d = _digits_value(dim)
            if not 0 <= d <= MAX_CELLS:
                raise error(f"bad dimension {dim!r}", line_no, 2)
            cubes.append((c, d, line_no))
        else:
            raise error(f"unknown directive {directive!r}", line_no, 0)

    dims: dict[str, int] = {}
    for name, dim, line_no in cubes:
        if name in dims:
            raise error(f"duplicate cube {name!r}", line_no, 1)
        dims[name] = dim
    filled: dict[str, dict[int, str]] = {}  # the faces so far, per cube
    for cube, k, target, line_no in faces:
        dim = dims.get(cube)
        if dim is None:
            raise error(f"face on unknown cube {cube!r}", line_no, 1)
        if target not in dims:
            raise error(f"face targets unknown cube {target!r}", line_no, 4)
        if not 0 <= k < 2 * dim:
            raise error(f"face axis {k // 2 + 1} out of range 1..{dim} on cube {cube!r}",
                        line_no, 1)
        F = filled.get(cube) or filled.setdefault(cube, {})
        if k in F:
            raise error(f"duplicate face ({k // 2 + 1}, {SIDES[k % 2]}) on cube {cube!r}",
                        line_no, 1)
        F[k] = target
    raise ParseError(SLOTS_ERROR)




def emit_pcs(K: PrecubicalSet) -> str:
    """Serialize a precubical set as PCS text.

    Deterministic: cubes sorted by (dim, name), then faces in the same
    order with axes ascending, '-' before '+'.  parse_pcs inverts it.
    """
    grades, facets = K._grades, K._facets
    width = max(map(len, facets.values()), default=0)
    labels = [f" {k // 2 + 1} {SIDES[k % 2]} " for k in range(width)]
    out = ["pcs 1"]
    for d in sorted(grades):
        tail = f" {d}"
        out += ["cube " + c + tail for c in grades[d]]
    for d in sorted(grades):
        for c in grades[d] if d else ():
            head = "face " + c
            out += [head + label + t for label, t in zip(labels, facets.get(c, ())) if t]
    return "\n".join(out) + "\n"
