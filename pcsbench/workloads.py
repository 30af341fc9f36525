"""The benchmark's workloads: seeded inputs, jobs, and exact expected answers.

Every expected answer comes from a closed form or from code in this file,
never from the library call being timed.  A job's `run` is the timed part;
its `check` runs afterwards, untimed, and returns a description of the first
mismatch, or None.

The seed changes only what does not change the work: cube names (through a
seeded bijection) and the order of body lines in the generated files, and,
for `paths`, which sampled paths a job draws.  Jobs within one workload
therefore have the same command shape and input size.
"""
from __future__ import annotations

import bisect
import importlib
import io
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path


# -- generated PCS inputs -----------------------------------------------------


def cube_words(n: int, hollow: bool) -> tuple[list[str], list[tuple[str, int, str, str]]]:
    """Cubes and faces of the standard n-cube (hollow: without its top cube).

    Cubes are words over {0, 1, x}; the (i, end) face replaces the i-th x.
    Built here, independently of `precubical.core`.
    """
    words = ["".join(w) for w in itertools.product("01x", repeat=n)]
    if hollow:
        words.remove("x" * n)
    faces = []
    for w in words:
        free = [pos for pos, ch in enumerate(w) if ch == "x"]
        for axis, pos in enumerate(free, start=1):
            for end, sign in (("0", "-"), ("1", "+")):
                faces.append((w, axis, sign, w[:pos] + end + w[pos + 1 :]))
    return words, faces


def cube_counts(n: int, hollow: bool) -> dict[int, int]:
    """Cubes per dimension of the standard n-cube, or of its boundary."""
    counts = {d: comb(n, d) * 2 ** (n - d) for d in range(n + 1)}
    if hollow:
        del counts[n]
    return counts


def seeded_pcs(words, faces, rng: random.Random, prefix: str) -> str:
    """PCS text with the cubes renamed by a seeded bijection onto
    fixed-width names, and the body lines in seeded order.

    The bijection keeps the sorted order of the words.  The library orders
    simplices by name, so a renaming that reordered them would permute
    every boundary matrix and so change the elimination work from seed
    to seed.
    """
    width = len(str(len(words))) + 2
    picks = sorted(rng.sample(range(10**width), len(words)))
    name = {w: f"{prefix}{k:0{width}d}" for w, k in zip(sorted(words), picks)}
    body = [f"cube {name[w]} {w.count('x')}" for w in words]
    body += [f"face {name[c]} {i} {s} {name[t]}" for c, i, s, t in faces]
    rng.shuffle(body)
    return "pcs 1\n" + "\n".join(body) + "\n"


def check_pcs_text(text: str, counts: dict[int, int]) -> str | None:
    """Check PCS text against the cube counts it must have: distinct names,
    2 * dim faces per cube, and every face landing one dimension lower."""
    lines = text.splitlines()
    if not lines or lines[0] != "pcs 1":
        return "missing header"
    dims: dict[str, int] = {}
    faces = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "cube":
            if parts[1] in dims:
                return f"duplicate cube {parts[1]}"
            dims[parts[1]] = int(parts[2])
        else:
            faces.append((parts[1], parts[4]))
    tally = dict(Counter(dims.values()))
    if tally != counts:
        return f"cubes per dimension {sorted(tally.items())}, expected {sorted(counts.items())}"
    if len(faces) != sum(2 * d * c for d, c in counts.items()):
        return f"{len(faces)} face lines for cubes per dimension {sorted(counts.items())}"
    for cube, target in faces:
        if dims.get(target, -1) != dims.get(cube, -1) - 1:
            return f"face {cube} -> {target} does not drop one dimension"
    return None


def subdivided_counts(counts: dict[int, int], p: int) -> dict[int, int]:
    """Cells per dimension after an order-p subdivision: a base d-cube has
    C(d, k) p^k (p-1)^(d-k) cells of dimension k, (2p-1)^d in all."""
    out: Counter = Counter()
    for d, c in counts.items():
        for k in range(d + 1):
            out[k] += c * comb(d, k) * p**k * (p - 1) ** (d - k)
    return dict(out)


def homology_text(side: str, ranks: dict[int, int]) -> str:
    """What `pcs homology` prints for a free graded group."""
    def group(r: int) -> str:
        return "0" if r == 0 else "Z" if r == 1 else f"Z^{r}"

    top = max(k for k, r in ranks.items() if r)
    return "".join(f"{side} H{k} = {group(ranks.get(k, 0))}\n" for k in range(top + 1))


def cube_ranks(n: int, hollow: bool) -> dict[int, int]:
    """Branching (and, by symmetry, merging) homology of the standard
    n-cube and of its boundary, n >= 3: Z in degree 0 for the solid cube;
    Z in degrees 0 and n - 1 for the boundary, whose bottom corner sees a
    (n-2)-sphere and every other vertex a full simplex."""
    return {0: 1, n - 1: 1} if hollow else {0: 1}


# -- jobs ---------------------------------------------------------------------


class Tally:
    """Attempted and failed jobs, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, job) -> tuple[float, float]:
        """Run a job, timed, then check it; returns (wall s, cpu s).

        A wrong answer or an exception counts as a failure.
        """
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            answer = job.run()
        except Exception as exc:  # a library bug is a failed job, not a crash
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            problem = f"raised {exc!r}"
        else:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            problem = job.check(answer)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{job.label}: {problem}")
        return wall, cpu


class Command:
    """One whole `pcs` command, called the way the `pcs` entry point calls it."""

    def __init__(self, cli, argv: list[str]):
        self.cli = cli
        self.argv = argv

    def __call__(self) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        # Looked up on the module at each call, so that tracing can wrap it.
        code = self.cli.run_command(self.argv, out, err)
        return code, out.getvalue(), err.getvalue()


def _command_problem(result, expected: str) -> str | None:
    code, out, err = result
    if code != 0 or err:
        return f"exit {code}: {err.strip()}"
    if out != expected:
        return f"printed {out!r}, expected {expected!r}"
    return None


class HomologyJob:
    """`pcs homology [--merging] FILE`, checked against a closed form."""

    def __init__(self, cli, path: Path, merging: bool, expected: str, cubes: int):
        self.label = f"homology {path.name}{' --merging' if merging else ''}"
        self.items = cubes  # cubes read
        self.command = Command(cli, ["homology", str(path)] + (["--merging"] if merging else []))
        self.expected = expected

    def run(self):
        return self.command()

    def check(self, result) -> str | None:
        return _command_problem(result, self.expected)


class ShellJob:
    """`pcs subdivide -p P IN -o OUT`, then `pcs homology` on OUT for both
    sides; checked against the cell counts and the base's homology."""

    def __init__(self, cli, source: Path, out: Path, p: int,
                 counts: dict[int, int], expected: dict[str, str]):
        self.label = f"subdivide -p {p} {source.name}"
        self.items = sum(counts.values())  # cells written
        self.out = out
        self.commands = [
            Command(cli, ["subdivide", str(source), "-p", str(p), "-o", str(out)]),
            Command(cli, ["homology", str(out)]),
            Command(cli, ["homology", str(out), "--merging"]),
        ]
        self.counts = counts
        self.expected = expected

    def run(self):
        return [command() for command in self.commands]

    def check(self, results) -> str | None:
        sub, branching, merging = results
        try:
            problem = (
                _command_problem(sub, "")
                or check_pcs_text(self.out.read_text(encoding="utf-8"), self.counts)
                or _command_problem(branching, self.expected["branching"])
                or _command_problem(merging, self.expected["merging"])
            )
        finally:
            # A later job that fails to write must not pass on this file.
            self.out.unlink(missing_ok=True)
        return problem


# -- exact path arithmetic, independent of precubical.dipath --------------------


def point_at(path, t: Fraction) -> tuple[Fraction, ...]:
    """The point of a piecewise-linear path at time t, by bisection."""
    times, values = path.times, path.values
    k = bisect.bisect_left(times, t)
    if times[k] == t:
        return values[k]
    u = (t - times[k - 1]) / (times[k] - times[k - 1])
    return tuple(a + (b - a) * u for a, b in zip(values[k - 1], values[k]))


def agree_until(p, q, h: Fraction) -> bool:
    """Two piecewise-linear paths agree on [0, h] iff they agree at h and at
    every breakpoint of either before h."""
    times = {t for t in p.times + q.times if t < h} | {h}
    return all(point_at(p, t) == point_at(q, t) for t in times)


def pair_expectations(a, b, u: Fraction) -> dict:
    """For paths a, b of one length: the exact sup distance of a and b, of
    the combination c = (1-u) a + u b from a (u times the former, since
    c - a = u (b - a)), and c's point at every breakpoint of a or b."""
    times = sorted(set(a.times) | set(b.times))
    points = {t: (point_at(a, t), point_at(b, t)) for t in times}
    d_ab = max(abs(x - y) for pa, pb in points.values() for x, y in zip(pa, pb))
    combined = {
        t: tuple((1 - u) * x + u * y for x, y in zip(pa, pb))
        for t, (pa, pb) in points.items()
    }
    return {"sup_ab": d_ab, "sup_ca": u * d_ab, "combined": combined}


def sample_problem(path, n: int, eps: Fraction, m: int) -> str | None:
    """A sampled path must be natural, monotone, in the unit cube, of length
    eps and keep all m interior breakpoints."""
    times, values = path.times, path.values
    if len(times) != m + 2 or times[0] != 0 or times[-1] != eps:
        return f"breakpoints {len(times)} from {times[0]} to {times[-1]}"
    for k, (t, v) in enumerate(zip(times, values)):
        if len(v) != n or sum(v) != t or not all(0 <= x <= 1 for x in v):
            return f"breakpoint {k} is not a natural point at time {t}"
        if k and (t <= times[k - 1] or any(x < y for x, y in zip(v, values[k - 1]))):
            return f"breakpoint {k} goes back"
    return None


class PathsJob:
    """Sampled path pairs in the n-cube; each pair goes through sample,
    convex_comb, sup_distance, extend_full/restrict and germ_equal."""

    def __init__(self, dipath, label: str, seeds: list[tuple[int, int]],
                 n: int, eps: Fraction, m: int, u: Fraction):
        self.label = label
        self.items = 2 * len(seeds)  # sampled paths processed
        self.dipath = dipath
        self.seeds = seeds
        self.n, self.eps, self.m, self.u = n, eps, m, u

    def run(self):
        dp = self.dipath  # attributes looked up per call, so tracing can wrap them
        out = []
        for sa, sb in self.seeds:
            a = dp.sample(self.n, self.eps, self.m, sa)
            b = dp.sample(self.n, self.eps, self.m, sb)
            c = dp.convex_comb(self.u, a, b)
            full = dp.extend_full(a)
            back = dp.restrict(full, a.eps)
            late = a.times[len(a.times) // 2]
            early = min(a.times[1], b.times[1]) / 2
            out.append({
                "a": a, "b": b, "c": c, "full": full, "back": back,
                "sup_ab": dp.sup_distance(a, b),
                "sup_ca": dp.sup_distance(c, a),
                "late": late, "germ_full": dp.germ_equal(a, full, late),
                "early": early, "germ_ab": dp.germ_equal(a, b, early),
            })
        return out

    def check(self, results) -> str | None:
        ones = (Fraction(1),) * self.n
        for k, r in enumerate(results):
            a, b, c, full, back = r["a"], r["b"], r["c"], r["full"], r["back"]
            problem = sample_problem(a, self.n, self.eps, self.m) or sample_problem(
                b, self.n, self.eps, self.m
            )
            if problem:
                return f"pair {k}: {problem}"
            want = pair_expectations(a, b, self.u)
            if r["sup_ab"] != want["sup_ab"] or r["sup_ca"] != want["sup_ca"]:
                return f"pair {k}: sup distances {r['sup_ab']}, {r['sup_ca']}"
            if not set(c.times) <= set(want["combined"]) or any(
                point_at(c, t) != p for t, p in want["combined"].items()
            ):
                return f"pair {k}: convex combination is off"
            if full.times[-1] != self.n or full.values[-1] != ones or any(
                point_at(full, t) != v for t, v in zip(a.times, a.values)
            ):
                return f"pair {k}: extend_full is off"
            if (back.carrier, back.times, back.values) != (a.carrier, a.times, a.values):
                return f"pair {k}: restrict(extend_full(a)) != a"
            if r["germ_full"] is not agree_until(a, full, r["late"]):
                return f"pair {k}: germ with the extension"
            if r["germ_ab"] is not agree_until(a, b, r["early"]):
                return f"pair {k}: germ of the pair"
        return None


# -- workloads ----------------------------------------------------------------


class CubeHomology:
    """Alternating `pcs homology` and `pcs homology --merging` on the
    standard and the hollow n-cube.  A round is those four jobs."""

    name = "cube-homology"

    def __init__(self, workdir: Path, seed: int, n: int = 7):
        cli = importlib.import_module("precubical.cli")
        rng = random.Random(f"{self.name}:{seed}")
        self.round = []
        for hollow in (False, True):
            text = seeded_pcs(*cube_words(n, hollow), rng, "c")
            problem = check_pcs_text(text, cube_counts(n, hollow))
            if problem:
                raise RuntimeError(f"generated input is wrong: {problem}")
            path = workdir / f"{'hollow' if hollow else 'solid'}-{n}.pcs"
            path.write_text(text, encoding="utf-8")
            for merging in (False, True):
                side = "merging" if merging else "branching"
                expected = homology_text(side, cube_ranks(n, hollow))
                self.round.append(HomologyJob(cli, path, merging, expected,
                                              sum(cube_counts(n, hollow).values())))

    def jobs(self, index: int) -> list:
        return self.round


class SubdividedShell:
    """`pcs subdivide -p 3` of the hollow n-cube to a file, then homology of
    that file on both sides.  A round is one job."""

    name = "subdivided-shell"

    def __init__(self, workdir: Path, seed: int, n: int = 4, p: int = 3):
        cli = importlib.import_module("precubical.cli")
        rng = random.Random(f"{self.name}:{seed}")
        base = cube_counts(n, True)
        text = seeded_pcs(*cube_words(n, True), rng, "s")
        problem = check_pcs_text(text, base)
        if problem:
            raise RuntimeError(f"generated input is wrong: {problem}")
        source = workdir / f"shell-{n}.pcs"
        source.write_text(text, encoding="utf-8")
        counts = subdivided_counts(base, p)
        expected = {
            side: homology_text(side, cube_ranks(n, True))
            for side in ("branching", "merging")
        }
        self.round = [ShellJob(cli, source, workdir / f"shell-{n}-p{p}.pcs", p, counts, expected)]

    def jobs(self, index: int) -> list:
        return self.round


class Paths:
    """Sampled path pairs with m interior breakpoints in the n-cube.  Job k
    draws its sample seeds from (seed, k); a round is one job."""

    name = "paths"

    def __init__(self, workdir: Path, seed: int, pairs: int = 6,
                 n: int = 4, m: int = 30):
        self.dipath = importlib.import_module("precubical.dipath")
        self.seed, self.pairs, self.n, self.m = seed, pairs, n, m
        self.eps, self.u = Fraction(1, 2), Fraction(1, 3)
        first = self.jobs(0)[0].seeds
        if len({s for pair in first for s in pair}) != 2 * pairs:
            raise RuntimeError("sample seeds of a job repeat")

    def jobs(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        seeds = [(rng.getrandbits(48), rng.getrandbits(48)) for _ in range(self.pairs)]
        return [PathsJob(self.dipath, f"paths job {index}", seeds,
                         self.n, self.eps, self.m, self.u)]


WORKLOADS = {w.name: w for w in (CubeHomology, SubdividedShell, Paths)}
