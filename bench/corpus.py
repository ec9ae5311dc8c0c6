"""Seeded planar_code corpus for the ingest workload.

Built here, apart from the program, so the program sees only bytes.  A
triangulation is a rotation system: ``rot[v]`` lists the neighbours of v
in clockwise order, and the face after directed edge (u, v) continues with
(v, w) where w follows u in ``rot[v]``.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

Rotation = Tuple[Tuple[int, ...], ...]

PLANAR_CODE_HEADER = b">>planar_code<<"

FLIPS_PER_STEP = 2

#: K4: outer face (0, 1, 2), centre 3.
K4: Rotation = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))


def _succ(rot: List[List[int]], v: int, u: int) -> int:
    r = rot[v]
    return r[(r.index(u) + 1) % len(r)]


def _insert_after(r: List[int], anchor: int, new: int) -> None:
    r.insert(r.index(anchor) + 1, new)


def _insert_in_face(rot: List[List[int]], a: int, b: int) -> None:
    """New vertex of degree 3 inside the face that holds directed edge (a, b)."""
    c = _succ(rot, b, a)
    v = len(rot)
    _insert_after(rot[a], c, v)
    _insert_after(rot[b], a, v)
    _insert_after(rot[c], b, v)
    rot.append([a, c, b])


def _subdivide(rot: List[List[int]], a: int, b: int) -> bool:
    """Replace edge ab by a new vertex of degree 4 joined to a, c, b, d."""
    c, d = _succ(rot, b, a), _succ(rot, a, b)
    if c == d:
        return False
    v = len(rot)
    rot[a][rot[a].index(b)] = v
    rot[b][rot[b].index(a)] = v
    _insert_after(rot[c], b, v)
    _insert_after(rot[d], a, v)
    rot.append([a, c, b, d])
    return True


def _flip(rot: List[List[int]], a: int, b: int) -> bool:
    """Replace edge ab by cd, the diagonal of the two faces at ab, if simple."""
    c, d = _succ(rot, b, a), _succ(rot, a, b)
    if c == d or d in rot[c] or len(rot[a]) <= 3 or len(rot[b]) <= 3:
        return False
    rot[a].remove(b)
    rot[b].remove(a)
    _insert_after(rot[c], b, d)
    _insert_after(rot[d], a, c)
    return True


def random_triangulation(n: int, rng: random.Random) -> Rotation:
    """A triangulation of order n from a random expansion walk out of K4.

    Each step inserts a vertex of degree 3 into a random face or of degree 4
    across a random edge, then tries a few random edge flips so that the
    walk does not stay inside the stacked triangulations.
    """
    rot = [list(r) for r in K4]
    while len(rot) < n:
        a = rng.randrange(len(rot))
        b = rng.choice(rot[a])
        if rng.random() < 0.5 or not _subdivide(rot, a, b):
            _insert_in_face(rot, a, b)
        for _ in range(FLIPS_PER_STEP):
            a = rng.randrange(len(rot))
            _flip(rot, a, rng.choice(rot[a]))
    return tuple(tuple(r) for r in rot)


def relabelled(rot: Rotation, rng: random.Random, mirror: bool) -> Rotation:
    """A random relabelling, each rotation started at a random neighbour."""
    n = len(rot)
    perm = list(range(n))
    rng.shuffle(perm)
    out: List[Tuple[int, ...]] = [()] * n
    for v, r in enumerate(rot):
        r = r[::-1] if mirror else r
        s = rng.randrange(len(r))
        out[perm[v]] = tuple(perm[u] for u in r[s:] + r[:s])
    return tuple(out)


def planar_code(rots: Sequence[Rotation]) -> bytes:
    out = bytearray(PLANAR_CODE_HEADER)
    for rot in rots:
        out.append(len(rot))
        for r in rot:
            out += bytes(u + 1 for u in r)
            out.append(0)
    return bytes(out)
