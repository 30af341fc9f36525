"""The PCS text format: parse and emit precubical sets.

A PCS file is line-oriented UTF-8.  '#' starts a comment running to the end
of the line; blank lines are skipped.  The first significant line is the
header `pcs 1`.  After it, in any order:

    cube <name> <dim>
    face <name> <i> <-|+> <target>

declare a cube and a face entry; <i> is the 1-based axis, '-' is the start
end and '+' the finish end, and names match [A-Za-z0-9_.-]+.  Forward
references are fine; duplicate declarations are errors.

`parse_pcs` is strict by default (the complex must satisfy the precubical
axioms); pass validate=False to accept structurally well-formed input with
holes or broken identities, e.g. to inspect it with `core.validate`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .core import NAME_RE, PcsError, PrecubicalSet
from .core import validate as validate_complex

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


def _tokenize(text: str):
    """Yield (line_no, [(col, token), ...]) for significant lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        if hash_at >= 0:
            raw = raw[:hash_at]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(raw)]
        if tokens:
            yield line_no, tokens


def _check_name(tok: str, line: int, col: int) -> str:
    if not NAME_RE.match(tok):
        raise ParseError(f"bad name {tok!r}", line, col)
    return tok


@dataclass(frozen=True)
class CubeLine:
    """A `cube` declaration with its source position."""

    name: str
    dim: int
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class FaceLine:
    """A `face` declaration with its source position; `end` is 0 for '-'."""

    cube: str
    axis: int
    end: int
    target: str
    line: int = 0
    col: int = 0
    target_col: int = 0


@dataclass(frozen=True)
class PcsDocument:
    """A scanned PCS file: version tag and declarations in file order.
    Syntax is checked; cross-references are not."""

    version: int
    cubes: tuple[CubeLine, ...]
    faces: tuple[FaceLine, ...]


def scan_pcs(text: str) -> PcsDocument:
    """Scan PCS text into its declarations.

    Raises ParseError on malformed lines: missing or unsupported header,
    unknown directives, wrong argument counts, bad names, dimensions, axes
    or face ends.  Duplicates and unresolved references are left to
    `parse_pcs`.
    """
    lines = list(_tokenize(text))
    if not lines:
        raise ParseError("missing header line 'pcs 1'")
    line_no, tokens = lines[0]
    if [t for _, t in tokens] != ["pcs", "1"]:
        if tokens[0][1] != "pcs":
            raise ParseError("first line must be the header 'pcs 1'", line_no, tokens[0][0])
        raise ParseError(
            f"unsupported format version {' '.join(t for _, t in tokens[1:])!r}",
            line_no,
            tokens[0][0],
        )

    cubes: list[CubeLine] = []
    faces: list[FaceLine] = []
    for line_no, tokens in lines[1:]:
        col0, directive = tokens[0]
        if directive == "cube":
            if len(tokens) != 3:
                raise ParseError("cube takes 2 arguments: name dim", line_no, col0)
            (ncol, name), (dcol, dtok) = tokens[1], tokens[2]
            _check_name(name, line_no, ncol)
            if not dtok.isdigit():
                raise ParseError(f"bad dimension {dtok!r}", line_no, dcol)
            cubes.append(CubeLine(name, int(dtok), line_no, ncol))
        elif directive == "face":
            if len(tokens) != 5:
                raise ParseError(
                    "face takes 4 arguments: name i -|+ target", line_no, col0
                )
            (ccol, cname), (icol, itok), (scol, sign), (tcol, tname) = tokens[1:]
            _check_name(cname, line_no, ccol)
            _check_name(tname, line_no, tcol)
            if not itok.isdigit():
                raise ParseError(f"bad face axis {itok!r}", line_no, icol)
            if sign == "-":
                alpha = 0
            elif sign == "+":
                alpha = 1
            else:
                raise ParseError(
                    f"face end must be '-' or '+', got {sign!r}", line_no, scol
                )
            faces.append(
                FaceLine(cname, int(itok), alpha, tname, line_no, ccol, tcol)
            )
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no, col0)
    return PcsDocument(1, tuple(cubes), tuple(faces))


def parse_pcs(text: str, *, validate: bool = True) -> PrecubicalSet:
    """Parse PCS text into a precubical set.

    Raises ParseError on syntax problems, unknown or duplicate declarations,
    out-of-range face axes, and (unless validate=False) on complexes that
    fail the precubical axioms.
    """
    doc = scan_pcs(text)

    dims: dict[str, int] = {}
    for decl in doc.cubes:
        if decl.name in dims:
            raise ParseError(f"duplicate cube {decl.name!r}", decl.line, decl.col)
        dims[decl.name] = decl.dim

    faces: dict[tuple[str, int, int], str] = {}
    for decl in doc.faces:
        if decl.cube not in dims:
            raise ParseError(
                f"face on unknown cube {decl.cube!r}", decl.line, decl.col
            )
        if decl.target not in dims:
            raise ParseError(
                f"face targets unknown cube {decl.target!r}", decl.line, decl.target_col
            )
        if not 1 <= decl.axis <= dims[decl.cube]:
            raise ParseError(
                f"face axis {decl.axis} out of range 1..{dims[decl.cube]} "
                f"on cube {decl.cube!r}",
                decl.line,
                decl.col,
            )
        key = (decl.cube, decl.axis, decl.end)
        if key in faces:
            sign = "-" if decl.end == 0 else "+"
            raise ParseError(
                f"duplicate face ({decl.axis}, {sign}) on cube {decl.cube!r}",
                decl.line,
                decl.col,
            )
        faces[key] = decl.target

    K = PrecubicalSet(dims, faces)
    if validate:
        violations = validate_complex(K)
        if violations:
            shown = "; ".join(str(v) for v in violations[:5])
            more = len(violations) - 5
            if more > 0:
                shown += f"; and {more} more"
            raise ParseError(f"not a precubical set: {shown}")
    return K


def emit_pcs(K: PrecubicalSet) -> str:
    """Serialize a precubical set as PCS text.

    Deterministic: cubes sorted by (dim, name), then faces in the same
    order with axes ascending, '-' before '+'.  parse_pcs inverts it.
    """
    out = ["pcs 1"]
    for cube in K.cubes():
        out.append(f"cube {cube.name} {cube.dim}")
    for (c, i, alpha), t in K.face_items():
        out.append(f"face {c} {i} {'-' if alpha == 0 else '+'} {t}")
    return "\n".join(out) + "\n"
