"""Shared test fixtures: small named complexes, a precubical set glued to
itself with torsion in its homology, a frozen seeded corpus of random
complexes (dim <= 3, <= 40 cubes each), built as grid complexes, and a
mutation generator for PCS text, and sampled paths on faces of cubes."""
import itertools
import random
from fractions import Fraction

from precubical.core import CubeId, PrecubicalSet, boundary_cube, truncate
from precubical.dipath import PLNaturalPath, sample
from precubical.subdivision import grid_complex


def hollow_square():
    return boundary_cube(2)


def hollow_cube():
    return boundary_cube(3)


def two_squares():
    """Two solid squares side by side, sharing one vertical edge."""
    return grid_complex([(0, 0), (1, 0)])


def l_shape():
    """Three solid squares in an L: a 2x2 block missing its top-right."""
    return grid_complex([(0, 0), (1, 0), (0, 1)])


def glued_torsion():
    """One vertex v0, one loop e0, three squares s0-s2 whose four faces are
    all e0, and three 3-cubes c0-c2 glued from the squares.  Branching
    boundaries: c0 -> s1, c1 -> s2, c2 -> 2 s0 - s2, so H2 = Z/2; merging:
    s2, 2 s0 - s2 and 2 s1 - s2, so H2 = Z/2 + Z/2."""
    # faces (1,-), (1,+), (2,-), (2,+), (3,-), (3,+)
    cubes = {"c0": "s1 s2 s0 s2 s0 s2", "c1": "s2 s0 s2 s2 s2 s0", "c2": "s0 s1 s2 s2 s0 s1"}
    dims = {"v0": 0, "e0": 1, "s0": 2, "s1": 2, "s2": 2, "c0": 3, "c1": 3, "c2": 3}
    faces = {("e0", 1, alpha): "v0" for alpha in (0, 1)}
    for s in ("s0", "s1", "s2"):
        faces.update({(s, i, alpha): "e0" for i in (1, 2) for alpha in (0, 1)})
    for c, F in cubes.items():
        faces.update({(c, k // 2 + 1, k % 2): t for k, t in enumerate(F.split())})
    return PrecubicalSet(dims, faces)


def delete_cube(K, name):
    """Drop one cube that nothing else lists as a face."""
    dims, faces = K.as_tables()
    assert name not in set(faces.values())
    del dims[name]
    faces = {k: t for k, t in faces.items() if k[0] != name}
    return PrecubicalSet(dims, faces)


def _deletable(K):
    dims, faces = K.as_tables()
    targets = set(faces.values())
    return sorted(n for n in dims if n not in targets)


def random_boxes(rng):
    """A few distinct grid boxes of one dimension, 1 to 3."""
    d = rng.choice((1, 2, 2, 2, 3))
    span = (3, 2, 1)[d - 1] + 1
    positions = list(itertools.product(range(span), repeat=d))
    count = rng.randint(1, min(len(positions), (5, 4, 1)[d - 1]))
    return rng.sample(positions, count)


def grid_boxes():
    """Box lists for `grid_complex`: the fixtures', ones with negative
    coordinates, mixed dimensions and faces shared across boxes given out
    of order, and twenty drawn as the random corpus draws its boxes."""
    rng = random.Random(20261020)
    return [
        [(0, 0), (1, 0)],
        [(0, 0), (1, 0), (0, 1)],
        [(-3, 2, 1), (-3, 2, 2), (-4, 1, 1), (-1, -1, -1)],
        [(), (0,), (5, -7), (0, 0, 0), (4,), (0, 0)],
        [(2, 2), (0, 0), (1, 1), (1, 0), (0, 1), (2, 1)],
        [(x, y, z) for x in range(3) for y in range(2) for z in range(2)],
        [(0, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 0)],
    ] + [random_boxes(rng) for _ in range(20)]


def random_complex(rng):
    """One random complex: a few grid boxes, random carving, <= 40 cubes."""
    boxes = random_boxes(rng)
    K = grid_complex(boxes)
    if len(boxes[0]) == 3 and rng.random() < 0.5:
        K = truncate(K, 2)
    for _ in range(rng.randint(0, 4)):
        options = _deletable(K)
        if len(options) <= 1:
            break
        K = delete_cube(K, rng.choice(options))
    while len(K) > 40:
        options = _deletable(K)
        top = max(K.dim_of(n) for n in options)
        K = delete_cube(K, rng.choice([n for n in options if K.dim_of(n) == top]))
    assert len(K) >= 1
    return K


def corpus20():
    rng = random.Random(20260817)
    return [random_complex(rng) for _ in range(20)]


POOL = ["#", "\t", "\x0c", "\r", "\u00b2", "a*", "pcs 2", "cube", "face", "-", "+", "9"]


def mutate(rng, lines):
    """PCS text from a list of lines after 1-3 random edits: drop,
    duplicate, swap, or replace/insert a token from POOL."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("drop", "duplicate", "swap", "replace", "insert"))
        k = rng.randrange(len(lines))
        if op == "drop" and len(lines) > 1:
            del lines[k]
        elif op == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        elif op in ("replace", "insert"):
            parts = lines[k].split(" ")
            at = rng.randrange(len(parts) + (op == "insert"))
            if op == "replace":
                parts[at] = rng.choice(POOL)
            else:
                parts.insert(at, rng.choice(POOL))
            lines[k] = " ".join(parts)
    return "\n".join(lines) + rng.choice(("", "\n"))


def face_paths(K, rng):
    """(c, i, path) for three sampled short paths on the face (i, -) of every
    cube c of dimension >= 2, each path carried by that face."""
    for n in range(1, K.dim):
        for c in K.cubes(n + 1):
            for i in range(1, n + 2):
                face = CubeId(K.face(c.name, i, 0), n)
                for m in (0, 2, 5):
                    p = sample(n, Fraction(rng.randint(1, 9), 10), m, rng.randrange(10**6))
                    yield c.name, i, PLNaturalPath(face, p.times, p.values)
