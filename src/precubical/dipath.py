"""Piecewise-linear natural directed paths, exactly.

A natural path of length eps in the n-cube is a monotone piecewise-linear
map from [0, eps] into [0,1]^n that starts at the corner 0_n and whose
coordinates sum to t at every time t.  Short paths (eps < 1) cannot reach
the far corner, which is what makes their start-behaviour a local invariant
of the cube complex.

Everything here is exact: breakpoint times and coordinates are Fractions,
so path equality, distances and germ comparisons are decided, not
approximated.  Paths are kept in canonical form (no breakpoint where the
velocity stays the same), so structural equality coincides with pointwise
equality.  Paths a user builds are converted and checked; `sample` and the
paths `restrict`, `extend_full`, `convex_comb` and `embed_face` derive from
checked ones are natural by construction and adopted as they are.  A
carrier names a cube: `embed_face` checks that it is the face (i, -) of a
cube c of a complex K and moves the path onto c.

Two paths are compared and combined in one merged walk over both
breakpoint lists, which reads each path's point over its own denominator.
The walk, canonical form and `sample` compute on integers and build a
Fraction only for a stored coordinate or a returned distance; `at`
interpolates on Fractions.  Beside its Fractions a path carries its
breakpoints in that integer form, `_points`, built once where the path is
built, so a walk or `restrict` reads them instead of rebuilding them.  They
are no field: equality, hash and repr see only the Fractions.  A convex
combination tests the velocity only where both paths break: where one alone
breaks, its velocity changes, as it is canonical, and the other's does not.
`sample` draws its digits as `randint` does, so its stream is randint's.

The family `gamma_h` witnesses how germs behave badly: each gamma_h runs
along the boundary edge until time h and is therefore germ-equal to a
boundary path, yet the family converges (in the sup metric, at speed h/2)
to the diagonal, which never touches the boundary again after 0.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .core import MAX_CELLS, STAR, CubeId, PrecubicalSet, _Frozen, check_valid, shown, whole

Rational = Fraction | int


class PathError(ValueError):
    """An invalid path construction or operation."""


def _frac(x, where: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise PathError(f"{where}: floating point value {x!r}; use Fraction")
    raise PathError(f"{where}: not a rational number: {x!r}")


def _point(t, v) -> tuple:
    """The breakpoint (t, v) on integers: (n, r, d, V) with t = n/r and
    v = V/d, d the lcm of the point's denominators."""
    d = lcm(*(x.denominator for x in v))
    return t.numerator, t.denominator, d, tuple(x.numerator * (d // x.denominator) for x in v)


def _reduced(t: Fraction, d: int, V: tuple) -> tuple:
    """The breakpoint (t, V/d) as `_point` builds it: d / gcd(d, *V) is the
    lcm of the point's denominators."""
    g = gcd(d, *V)
    if g > 1:
        d, V = d // g, tuple([x // g for x in V])
    return t.numerator, t.denominator, d, V


def _keep(points) -> list[int]:
    """The indices of the breakpoints (n, r, d, V) where the velocity
    changes, and both ends.  A velocity dV/(L dt), dV over the lcm L of the
    ends' denominators and dt = e/f, is kept as (L e, f, dV) to cross-multiply."""
    velocity = []
    for (n0, r0, d0, V0), (n1, r1, d1, V1) in zip(points, points[1:]):
        L = lcm(d0, d1)
        k0, k1 = L // d0, L // d1
        dV = [y * k1 - x * k0 for x, y in zip(V0, V1)]
        velocity.append((L * (n1 * r0 - n0 * r1), r0 * r1, dV))
    keep = [0]
    for k in range(1, len(points) - 1):
        (s, f, U), (s2, f2, W) = velocity[k - 1], velocity[k]
        x, y = f * s2, f2 * s
        if any(u * x != w * y for u, w in zip(U, W)):
            keep.append(k)
    keep.append(len(points) - 1)
    return keep


class PLNaturalPath(_Frozen):
    """A piecewise-linear natural directed path from the initial corner.

    `times` are the breakpoint times 0 = t_0 < ... < t_m; `values` are the
    corresponding points of [0,1]^dim, linearly interpolated in between.
    Construction canonicalizes the breakpoints and checks every invariant:
    strictly increasing times, coordinates within [0,1] and non-decreasing,
    and the coordinate sum equal to the time at every breakpoint (which
    forces the start to be the corner).  The natural length is the final
    time; `make_path` additionally requires it to be short (< 1), while
    `extend_full` builds full-length paths directly.  `_adopt`, for paths
    the library builds natural by construction, neither converts nor checks.
    """

    __slots__ = ("carrier", "times", "values", "_points")
    _fields = __slots__[:3]

    def __init__(self, carrier: CubeId, times: tuple, values: tuple):
        super().__init__(carrier, times, values)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.carrier, CubeId):
            raise PathError(f"carrier must be a CubeId, got {self.carrier!r}")
        n = self.carrier.dim
        if n < 1:
            raise PathError("carrier must have dimension >= 1")
        times = tuple(
            _frac(t, f"breakpoint {k}") for k, t in enumerate(self.times)
        )
        values = tuple(
            tuple(
                _frac(x, f"breakpoint {k}, coordinate {i + 1}")
                for i, x in enumerate(v)
            )
            for k, v in enumerate(self.values)
        )
        if len(times) != len(values):
            raise PathError(
                f"{len(times)} breakpoints but {len(values)} value points"
            )
        if len(times) < 2:
            raise PathError("a path needs at least the breakpoints 0 and eps")
        for k, v in enumerate(values):
            if len(v) != n:
                raise PathError(
                    f"breakpoint {k}: point has {len(v)} coordinates, "
                    f"carrier has dimension {shown(n)}"
                )
        if times[0] != 0:
            raise PathError(f"breakpoint 0 must be at time 0, got {shown(times[0])}")
        for k in range(1, len(times)):
            if times[k] <= times[k - 1]:
                raise PathError(
                    f"breakpoint {k}: time {shown(times[k])} does not increase "
                    f"past {shown(times[k - 1])}"
                )
        if times[-1] > n:
            raise PathError(
                f"natural length {shown(times[-1])} exceeds the carrier dimension {shown(n)}"
            )
        points = [_point(t, v) for t, v in zip(times, values)]
        keep = _keep(points)
        times, values = tuple(times[k] for k in keep), tuple(values[k] for k in keep)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_points", [points[k] for k in keep])
        for k, v in enumerate(values):
            total = Fraction(0)
            for i, x in enumerate(v):
                if not 0 <= x <= 1:
                    raise PathError(
                        f"breakpoint {k}, coordinate {i + 1}: value {shown(x)} "
                        f"outside [0, 1]"
                    )
                if k and x < values[k - 1][i]:
                    raise PathError(
                        f"breakpoint {k}, coordinate {i + 1}: decreases "
                        f"from {shown(values[k - 1][i])} to {shown(x)}"
                    )
                total += x
            if total != times[k]:
                raise PathError(
                    f"breakpoint {k}: coordinate sum {shown(total)} differs from "
                    f"time {shown(times[k])}"
                )

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def eps(self) -> Fraction:
        """The natural length: the final breakpoint time."""
        return self.times[-1]

    def at(self, t: Rational) -> tuple[Fraction, ...]:
        """The point at time t, by linear interpolation."""
        t = _frac(t, "time")
        if not 0 <= t <= self.eps:
            raise PathError(f"time {shown(t)} outside [0, {shown(self.eps)}]")
        d, V = _at(self._points, max(bisect_left(self.times, t), 1), t.numerator, t.denominator)
        return tuple([Fraction(x, d) for x in V])

    def __str__(self) -> str:
        stops = "; ".join(
            f"{shown(t)} -> ({', '.join(map(shown, v))})"
            for t, v in zip(self.times, self.values)
        )
        return f"path in {self.carrier.name} [{stops}]"


def standard_carrier(n: int) -> CubeId:
    """The standard n-cube as a path carrier, n at most MAX_CELLS."""
    n = whole(n, "dimension", PathError)
    if n < 1:
        raise PathError(f"dimension must be >= 1, got {shown(n)}")
    if n > MAX_CELLS:
        raise PathError(f"dimension must be at most {MAX_CELLS}, got {shown(n)}")
    return CubeId(STAR * n, n)


def make_path(carrier: CubeId, eps: Rational, breakpoints, values) -> PLNaturalPath:
    """Build a short natural path after checking every invariant.

    `breakpoints` must run from 0 to eps and `values` gives the point at
    each breakpoint; eps must be strictly between 0 and 1.
    """
    eps = _frac(eps, "eps")
    if not 0 < eps < 1:
        raise PathError(f"natural length must be in (0, 1), got {shown(eps)}")
    times = tuple(_frac(t, f"breakpoint {k}") for k, t in enumerate(breakpoints))
    if not times or times[-1] != eps:
        last = shown(times[-1]) if times else "nothing"
        raise PathError(f"final breakpoint {last} must equal eps = {shown(eps)}")
    return PLNaturalPath(carrier, times, tuple(tuple(v) for v in values))


def restrict(path: PLNaturalPath, eps2: Rational) -> PLNaturalPath:
    """The path truncated to [0, eps2], inserting a breakpoint if needed."""
    eps2 = _frac(eps2, "eps2")
    if not 0 < eps2 <= path.eps:
        raise PathError(
            f"restriction length {shown(eps2)} outside (0, {shown(path.eps)}]"
        )
    # the new last point lies on the old segment, so the prefix stays canonical
    k, P = bisect_left(path.times, eps2), path._points
    point = _reduced(eps2, *_at(P, k, eps2.numerator, eps2.denominator))
    value = tuple([Fraction(x, point[2]) for x in point[3]])
    return PLNaturalPath._adopt(
        path.carrier, path.times[:k] + (eps2,), path.values[:k] + (value,), P[:k] + [point]
    )


def extend_full(path: PLNaturalPath) -> PLNaturalPath:
    """Extend by one straight segment from the endpoint to the far corner,
    reaching 1_n at time n.  restrict() at the original length undoes it."""
    n = path.dim
    if path.eps == n:
        raise PathError(f"the path already reaches the far corner at time {shown(n)}")
    # the prefix is canonical, so only the old endpoint can drop
    P, corner = path._points, (n, 1, 1, (1,) * n)
    k = len(P) + len(_keep(P[-2:] + [corner])) - 3
    return PLNaturalPath._adopt(
        path.carrier, path.times[:k] + (Fraction(n),), path.values[:k] + ((Fraction(1),) * n,),
        P[:k] + [corner],
    )


def _check_carriers(a: PLNaturalPath, b: PLNaturalPath) -> None:
    if a.carrier != b.carrier:
        raise PathError(
            f"paths live on {a.carrier.name!r} and {b.carrier.name!r}; "
            f"embed them into a common cube first"
        )


def _check_comparable(a: PLNaturalPath, b: PLNaturalPath) -> None:
    _check_carriers(a, b)
    if a.eps != b.eps:
        raise PathError(f"natural lengths differ: {shown(a.eps)} and {shown(b.eps)}")


def _adopt_points(carrier: CubeId, times, points, keep) -> PLNaturalPath:
    """The path through the breakpoints (n, r, d, V) at the given times
    that `keep` indexes, which must leave it canonical, with one Fraction
    per stored coordinate."""
    kept = [_reduced(times[k], *points[k][2:]) for k in keep]
    values = tuple([tuple([Fraction(x, d) for x in V]) for _, _, d, V in kept])
    return PLNaturalPath._adopt(carrier, tuple([times[k] for k in keep]), values, kept)


def _at(points, k: int, n: int, r: int) -> tuple:
    """(d, V): the point V/d at time n/r on segment k of the breakpoints
    (n, r, d, V), from k - 1 to k; its far end has weight P/Q."""
    (n0, r0, d0, V0), (n1, r1, d1, V1) = points[k - 1], points[k]
    P, Q = (n * r0 - n0 * r) * r1, (n1 * r0 - n0 * r1) * r
    L = lcm(d0, d1)
    k0, k1 = L // d0 * (Q - P), L // d1 * P
    return L * Q, tuple([x * k0 + y * k1 for x, y in zip(V0, V1)])


def _walk(a: PLNaturalPath, b: PLNaturalPath):
    """(t, both, da, A, db, B) at every breakpoint t of either path, in one
    pass over both, with a(t) = A/da, b(t) = B/db and `both` whether t is a
    breakpoint of both: a path's own breakpoint gives its stored point, the
    other path's an interpolated one.  Both paths end at the same time."""
    pa, pb = a._points, b._points
    i = j = 0
    while i < len(pa):
        (n, r, da, A), (m, s, db, B) = pa[i], pb[j]
        x, y = n * s, m * r  # a's time and b's, over r s
        if x > y:
            da, A = _at(pa, i, m, s)
        elif y > x:
            db, B = _at(pb, j, n, r)
        yield (a.times[i] if x <= y else b.times[j]), x == y, da, A, db, B
        i, j = i + (x <= y), j + (y <= x)


def sup_distance(a: PLNaturalPath, b: PLNaturalPath) -> Fraction:
    """The exact sup over time of the max-norm distance.

    Both coordinates of both paths are affine between merged breakpoints,
    so the supremum is attained at a breakpoint.
    """
    _check_comparable(a, b)
    best, over = 0, 1
    for _, _, da, A, db, B in _walk(a, b):
        gap = max([abs(x * db - y * da) for x, y in zip(A, B)])  # over da db
        if gap * over > best * da * db:
            best, over = gap, da * db
    return Fraction(best, over)


def convex_comb(u: Rational, a: PLNaturalPath, b: PLNaturalPath) -> PLNaturalPath:
    """The pointwise convex combination (1-u)a + u b; natural paths of a
    common length are closed under it.  For 0 < u < 1 it tests the velocity
    only where both paths break: where one alone breaks, its velocity changes
    (paths are canonical) and the other's does not, so the result's does."""
    u = _frac(u, "u")
    if not 0 <= u <= 1:
        raise PathError(f"combination weight {shown(u)} outside [0, 1]")
    _check_comparable(a, b)
    if u == 0 or u == 1:  # paths are immutable, and the combination is one of them
        return b if u else a
    p, q = u.numerator, u.denominator
    times, points, shared = [], [], []
    for t, both, da, A, db, B in _walk(a, b):
        d = lcm(da, db)
        ka, kb = (q - p) * (d // da), p * (d // db)
        times.append(t)
        shared.append(both and 0 < t < a.eps)  # an interior breakpoint of both paths
        C = tuple([ka * x + kb * y for x, y in zip(A, B)])
        points.append((t.numerator, t.denominator, q * d, C))
    keep = [k for k, s in enumerate(shared) if not s or len(_keep(points[k - 1:k + 2])) == 3]
    return _adopt_points(a.carrier, times, points, keep)


def zero_set(path: PLNaturalPath) -> frozenset[int]:
    """The axes (1-based) on which the path is identically zero; a
    piecewise-linear coordinate vanishes iff it vanishes at breakpoints."""
    return frozenset(
        i + 1
        for i in range(path.dim)
        if all(v[i] == 0 for v in path.values)
    )


def embed_face(path: PLNaturalPath, K: PrecubicalSet, c: str, i: int) -> PLNaturalPath:
    """View a path on the face (i, -) of the cube c of K as a path on c,
    inserting the constant coordinate 0 at axis i.

    The carrier must be that face; K's own lookups refuse an unknown cube,
    a hole or an axis out of range.  Only the lower face keeps the start at
    the corner, so a path on face (i, +) is refused as a mismatch.
    """
    check_valid(K)
    face, n = K.face(c, i, 0), K.dim_of(c) - 1
    if path.carrier != CubeId(face, n):
        raise PathError(
            f"carrier {path.carrier.name!r} of dimension {shown(path.dim)} is not "
            f"face ({i}, -) of {c!r}, which is {face!r} of dimension {n}"
        )
    zero, k = Fraction(0), int(i) - 1
    values = tuple(v[:k] + (zero,) + v[k:] for v in path.values)
    points = [(t, r, d, V[:k] + (0,) + V[k:]) for t, r, d, V in path._points]
    return PLNaturalPath._adopt(CubeId(c, n + 1), path.times, values, points)


def germ_equal(a: PLNaturalPath, b: PLNaturalPath, eps2: Rational) -> bool:
    """Whether the two paths agree on the initial interval [0, eps2]."""
    eps2 = _frac(eps2, "eps2")
    _check_carriers(a, b)
    if not 0 < eps2 < min(a.eps, b.eps):
        raise PathError(
            f"germ horizon {shown(eps2)} outside (0, {shown(min(a.eps, b.eps))})"
        )
    return restrict(a, eps2) == restrict(b, eps2)


def _size(n: int, m: int) -> tuple[int, int]:
    """n and m as the dimension and interior breakpoint count of a path
    that stores at most MAX_CELLS coordinates, n (m + 2)."""
    n, m = whole(n, "dimension", PathError), whole(m, "interior breakpoint count", PathError)
    if n < 1:
        raise PathError(f"dimension must be >= 1, got {shown(n)}")
    if m < 0:
        raise PathError(f"interior breakpoint count must be >= 0, got {shown(m)}")
    if n * (m + 2) > MAX_CELLS:
        raise PathError(
            f"a path in dimension {shown(n)} with {shown(m)} interior breakpoints "
            f"would store more than {MAX_CELLS} coordinates"
        )
    return n, m


def diagonal_path(n: int, eps: Rational) -> PLNaturalPath:
    """The straight diagonal of length eps in the n-cube: every coordinate
    grows at rate 1/n."""
    eps = _frac(eps, "eps")
    n, _ = _size(n, 0)
    return make_path(
        standard_carrier(n),
        eps,
        (0, eps),
        ((Fraction(0),) * n, (eps / n,) * n),
    )


def gamma_h(h: Rational, eps: Rational = Fraction(1, 2)) -> PLNaturalPath:
    """The square path that follows the boundary edge until time h, then
    heads diagonally: breakpoints (0, h, eps), values ((0,0), (0,h),
    ((eps-h)/2, (eps+h)/2)).

    As h shrinks these paths converge to the diagonal at sup distance h/2,
    while each one is germ-equal to a boundary path at horizon h: the
    boundary's image in any germ quotient cannot be closed.
    """
    h = _frac(h, "h")
    eps = _frac(eps, "eps")
    if not 0 < h < eps < 1:
        raise PathError(f"need 0 < h < eps < 1, got h = {shown(h)}, eps = {shown(eps)}")
    lo, hi = (eps - h) / 2, (eps + h) / 2
    zero = Fraction(0)
    return make_path(
        standard_carrier(2),
        eps,
        (0, h, eps),
        ((zero, zero), (zero, h), (lo, hi)),
    )


def _digit(draw, k: int) -> int:
    """A digit below k, 8 <= k < 16, drawn as CPython's randint(0, k - 1) does:
    4 random bits, drawn again while >= k, so `sample`'s stream is randint's."""
    r = draw(4)
    while r >= k:
        r = draw(4)
    return r


def sample(n: int, eps: Rational, m: int, seed: int) -> PLNaturalPath:
    """A pseudorandom natural path in the n-cube with m interior
    breakpoints, deterministic in the seed.

    Breakpoint times split [0, eps] by random positive weights; each step's
    time increment is split among the coordinates by random nonnegative
    weights summing to 1.  Consecutive steps are forced to use different
    directions so the canonical form keeps all m breakpoints; for n = 1
    naturality leaves only the straight path, which has none.
    """
    n, m = _size(n, m)
    eps = _frac(eps, "eps")
    if not 0 < eps < 1:
        raise PathError(f"natural length must be in (0, 1), got {shown(eps)}")
    draw = random.Random(seed).getrandbits
    weights = [1 + _digit(draw, 9) for _ in range(m + 1)]
    e, f = eps.numerator, eps.denominator * sum(weights)  # each time is W/f
    W, d, V = 0, 1, (0,) * n
    times, points = [Fraction(0)], [(W, f, d, V)]
    prev = [0] * n, 1  # the last step's direction split/S; the zero split matches none
    for w in weights:
        while True:
            split = [_digit(draw, 10) for _ in range(n)]
            S = sum(split)
            if S and (n == 1 or any(x * prev[1] != y * S for x, y in zip(split, prev[0]))):
                break
        prev = split, S
        W, new = W + e * w, lcm(d, f * S)
        k, step = new // d, e * w * (new // (f * S))
        d, V = new, tuple([x * k + step * y for x, y in zip(V, split)])
        times.append(Fraction(W, f))
        points.append((W, f, d, V))
    # a new direction is a new velocity, so only n = 1 drops breakpoints
    keep = range(m + 2) if n > 1 else (0, m + 1)
    return _adopt_points(standard_carrier(n), times, points, keep)
