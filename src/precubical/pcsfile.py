"""The PCS text format: parse and emit precubical sets.

A PCS file is line-oriented UTF-8.  '#' starts a comment running to the end
of the line; blank lines are skipped.  The first significant line is the
header `pcs 1`.  After it, in any order:

    cube <name> <dim>
    face <name> <i> <-|+> <target>

declare a cube and a face entry; <i> is the 1-based axis, '-' is the start
end and '+' the finish end, and names match [A-Za-z0-9_.-]+.  Dimensions (at
most MAX_CELLS) and axes are ASCII decimal digits only: other Unicode digits
such as '²' or '٣' are errors.  Tokens are separated by any whitespace.
Forward references are fine; duplicate declarations are errors.

`parse_pcs` first runs a fast pass that keeps no line numbers: it needs the
header `pcs 1` on line 1 and no '#', and fills one slot list per cube.  At
the first irregularity of any kind it drops what it built, and the checked
parser, the error path, reads the file in two passes: a syntax pass over
every line, then duplicates and references in file order, so the first
error reported is the first syntax error if there is one.  Each ParseError
carries the 1-based line and column of the offending token.  Both routes
check each distinct name, (axis, sign) pair and dimension token once, and
keep one str object per cube name: every facet tuple holds the very object
that keys the cube's dimension, so later lookups hit by identity.

`parse_pcs` is strict by default (the complex must satisfy the precubical
axioms); pass validate=False to accept structurally well-formed input with
holes or broken identities, e.g. to inspect it with `core.validate`.
"""
from __future__ import annotations

import re

from . import core
from .core import MAX_CELLS, NAME_RE, PLUS, SIDES, PcsError, PrecubicalSet, seal_facets
from .core import validate as validate_complex, violations_message

_TOKEN_RE = re.compile(r"\S+")


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


def _col(line_text: str, k: int) -> int:
    """1-based column of the k-th token (0-based k) of a line."""
    return [match.start() + 1 for match in _TOKEN_RE.finditer(line_text)][k]


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
    dims, facets = _fast_tables(text) or _checked_tables(text)
    K = PrecubicalSet._adopt(dims, facets, _valid=False)
    if validate:
        violations = validate_complex(K)
        if violations:
            raise ParseError(violations_message(violations))
    return K


def _fast_tables(text: str) -> tuple[dict, dict] | None:
    """(dims, facets) of a well-formed file, or None at its first
    irregularity of any kind, for `_checked_tables` to find and place."""
    lines = iter(text.splitlines())  # freed once the loop has read them all
    if next(lines, None) != "pcs 1" or "#" in text:
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
    # holes = slots - faces, bounded before each list is allocated; the bound
    # is read at call time, as seal_facets reads it
    facets: dict = {}
    holes, bound = -len(slots), core.MAX_CELLS
    for cube, k, target in zip(owners, slots, targets):
        F = facets.get(cube)
        if F is None:
            holes += 2 * dims[cube]
            if holes > bound:
                return None
            F = facets[cube] = [None] * (2 * dims[cube])
        if k >= len(F) or F[k] is not None:
            return None
        F[k] = target
    del owners, slots, targets
    for cube, F in facets.items():  # each list is freed as its tuple replaces it
        facets[cube] = tuple(F)
    return dims, facets


def _checked_tables(text: str) -> tuple[dict, dict]:
    """(dims, facets) of a file read in the two checked passes: the error
    raised is the file's first, at its line and column."""
    def error(message: str, line_no: int, k: int) -> ParseError:
        return ParseError(message, line_no, _col(text.splitlines()[line_no - 1], k))

    # the lines are freed once the syntax pass has read them all
    numbered = enumerate(text.splitlines(), start=1)
    for line_no, raw in numbered:
        tokens = raw.partition("#")[0].split()
        if tokens:
            break
    else:
        raise ParseError("missing header line 'pcs 1'")
    if tokens != ["pcs", "1"]:
        if tokens[0] != "pcs":
            raise error("first line must be the header 'pcs 1'", line_no, 0)
        version = " ".join(tokens[1:])
        raise error(f"unsupported format version {version!r}", line_no, 0)

    # Syntax pass: (name, dim, line) and (cube, slot 2(i - 1) + end, target, line).
    cubes: list[tuple[str, int, int]] = []
    faces: list[tuple[str, int, str, int]] = []
    names: dict[str, str] = {}
    slots: dict[tuple[str, str], int] = {}
    dim_values: dict[str, int] = {}

    def new_name(token: str, line_no: int, k: int) -> str:
        """A name token seen for the first time, checked and recorded."""
        if not NAME_RE.match(token):
            raise error(f"bad name {token!r}", line_no, k)
        names[token] = token
        return token

    for line_no, raw in numbered:
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
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
            d = dim_values.get(dim)
            if d is None:
                d = _digits_value(dim)
                if not 0 <= d <= MAX_CELLS:
                    raise error(f"bad dimension {dim!r}", line_no, 2)
                dim_values[dim] = d
            cubes.append((c, d, line_no))
        else:
            raise error(f"unknown directive {directive!r}", line_no, 0)

    dims: dict[str, int] = {}
    for name, dim, line_no in cubes:
        if name in dims:
            raise error(f"duplicate cube {name!r}", line_no, 1)
        dims[name] = dim

    facets: dict[str, dict[int, str]] = {}
    for cube, k, target, line_no in faces:
        dim = dims.get(cube)
        if dim is None:
            raise error(f"face on unknown cube {cube!r}", line_no, 1)
        if target not in dims:
            raise error(f"face targets unknown cube {target!r}", line_no, 4)
        if not 0 <= k < 2 * dim:
            raise error(
                f"face axis {k // 2 + 1} out of range 1..{dim} on cube {cube!r}", line_no, 1
            )
        F = facets.get(cube) or facets.setdefault(cube, {})
        if k in F:
            raise error(
                f"duplicate face ({k // 2 + 1}, {SIDES[k % 2]}) on cube {cube!r}", line_no, 1
            )
        F[k] = target

    # every name, dimension and face is checked above
    return dims, seal_facets(dims, facets, ParseError)


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
