"""Shared fan zoo for the test suite.

Small classical fans are written down directly; the appendix fans are given
by their relation presentations and reconstructed; the flip fixtures are
projective-bundle fans built so that reverse flips produce Fano inputs whose
reduction exercises the flip phase.
"""

from itertools import combinations

from toricfans.birational import FlipSpec, flip
from toricfans.fan import LatticeFan
from toricfans.fanio import parse_relations, reconstruct_fan
from toricfans.primitive import primitive_relation


def p2() -> LatticeFan:
    return LatticeFan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def pn(n: int) -> LatticeFan:
    rays = [tuple(1 if d == i else 0 for d in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return LatticeFan(n, rays, cones)


def p1xp1() -> LatticeFan:
    return LatticeFan(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)]
    )


def bl_pt_p2() -> LatticeFan:
    return LatticeFan(
        2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 3), (1, 3), (1, 2), (0, 2)]
    )


def hirzebruch(k: int) -> LatticeFan:
    return LatticeFan(
        2, [(1, 0), (0, 1), (-1, k), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


def p3() -> LatticeFan:
    return LatticeFan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        labels=["v1", "v2", "v3", "v0"],
    )


def b3() -> LatticeFan:
    """Blowup of P3 along the line <v2, v3>: star subdivision adding b = v2+v3."""
    return LatticeFan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 1, 1)],
        [(0, 1, 3), (0, 2, 3), (1, 3, 4), (2, 3, 4), (0, 1, 4), (0, 2, 4)],
        labels=["v1", "v2", "v3", "v0", "b"],
    )


B3_CENTERED = (0, 3, 4)  # {v1, v0, b}


def product_fan(f: LatticeFan, g: LatticeFan, suffixes=("L", "R")) -> LatticeFan:
    rays = [r.vector + (0,) * g.rank for r in f.rays]
    rays += [(0,) * f.rank + r.vector for r in g.rays]
    labels = [r.name() + suffixes[0] for r in f.rays]
    labels += [r.name() + suffixes[1] for r in g.rays]
    cones = [
        c1 + tuple(i + f.n_rays for i in c2)
        for c1 in f.max_cones
        for c2 in g.max_cones
    ]
    return LatticeFan(f.rank + g.rank, rays, cones, labels)


def rel_of(f: LatticeFan, labels):
    return primitive_relation(f, tuple(sorted(f.label_index[x] for x in labels)))


# -- flip fixtures -------------------------------------------------------------


def flip_fixture_4d():
    """(Y, X', centered): Y is a P2-bundle over F1 with empty relevant set;
    X' is its reverse flip along b + c = x0 + x1 + a, a Fano 4-fold whose
    only relevant relation is x0 + x1 + a = b + c."""
    names = ["x0", "x1", "x2", "a", "b", "c", "d"]
    rays = [
        (-1, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, -1, -1, 1),
        (0, 1, 0, -1),
    ]
    idx = {n: i for i, n in enumerate(names)}
    base_cones = [("b", "a"), ("a", "c"), ("c", "d"), ("d", "b")]
    cones = [
        tuple(sorted(idx[t] for t in pair + w))
        for w in base_cones
        for pair in combinations(("x0", "x1", "x2"), 2)
    ]
    y = LatticeFan(4, rays, cones, labels=names)
    rbc = rel_of(y, ("b", "c"))
    xp = flip(y, FlipSpec(rbc))
    return y, xp, (0, 1, 2)


def flip_fixture_6d():
    """(Y, X', centered): Y is a P2-bundle over F1 x F1; X' carries two
    relevant relations x0+x1+u2 = u1+u3 and x0+x2+v2 = v1+v3 with disjoint
    flip centers (two simultaneous flips in the pipeline)."""
    names = ["x0", "x1", "x2", "u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4"]
    rays = [
        (-1, -1, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, -1, -1, 1, 0, 0),
        (0, 1, 0, -1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
        (-1, 0, 0, 0, -1, 1),
        (1, 0, 0, 0, 0, -1),
    ]
    idx = {n: i for i, n in enumerate(names)}
    f1 = [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u1")]
    f2 = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1")]
    cones = [
        tuple(sorted(idx[t] for t in pair + wa + wb))
        for wa in f1
        for wb in f2
        for pair in combinations(("x0", "x1", "x2"), 2)
    ]
    y = LatticeFan(6, rays, cones, labels=names)
    mid = flip(y, FlipSpec(rel_of(y, ("u1", "u3"))))
    xp = flip(mid, FlipSpec(rel_of(mid, ("v1", "v3"))))
    return y, xp, (0, 1, 2)


# -- appendix presentations -----------------------------------------------------

_FIVEFOLD = """
x0 + x1 + x2 = 0
x0 + c = a
x1 + a = b
x2 + b = c
c + y1 + y2 = 0
{r1}
b + y1 + y2 = x0 + x1
a + y1 + y2 = x0
"""

FIVEFOLD_R1 = {550: "u + v = c", 659: "u + v = y2", 708: "u + v = x2"}

_SIXFOLD = """
x0 + x1 + x2 = 0
x0 + c = a
x1 + a = b
x2 + b = c
y0 + y1 + y2 + c = {r1}
y0 + y1 + y2 + b = {r2}
y0 + y1 + y2 + a = {r3}
z1 + z2 = {q}
"""

SIXFOLD_ROWS = {
    276: ("x1 + 2 x2", "x1 + x2", "x2", "x2"),
    333: ("2 x1 + x2", "2 x1", "x1", "x2"),
    338: ("x1 + 2 x2", "x1 + x2", "x2", "x1"),
}

REL_2268 = """
x0 + x1 + x2 + x3 = 0
y0 + y1 + y2 + y3 = 0
x0 + x1 + x2 + a = 2 y0 + y1
x3 + y1 + a = 2 b
x0 + x1 + x2 + b = y0 + y1
y2 + y3 + a = y0 + x3
y0 + b = a
y0 + y1 + x3 = b
y2 + y3 + b = x3
"""

REL_2170 = """
x0 + x1 + x2 + x3 = 0
x0 + x1 + t = 2 a
x0 + x1 + b = a
x2 + x3 + t = 2 b
x2 + x3 + a = b
a + b = t
u0 + u1 + u2 + a = x0 + x1 + x2
u0 + u1 + u2 + t = x2 + a
u0 + u1 + u2 + b = x2
"""


def fivefold_text(mid: int) -> str:
    return _FIVEFOLD.format(r1=FIVEFOLD_R1[mid])


def sixfold_text(mid: int) -> str:
    r1, r2, r3, q = SIXFOLD_ROWS[mid]
    return _SIXFOLD.format(r1=r1, r2=r2, r3=r3, q=q)


def fivefold(mid: int) -> LatticeFan:
    return reconstruct_fan(parse_relations(fivefold_text(mid)), 5)


def sixfold(mid: int) -> LatticeFan:
    return reconstruct_fan(parse_relations(sixfold_text(mid)), 6)


def fan_2268() -> LatticeFan:
    return reconstruct_fan(parse_relations(REL_2268), 6)


def fan_2170() -> LatticeFan:
    return reconstruct_fan(parse_relations(REL_2170), 6)


# Fano 6-folds with an order-4 centered collection whose relevant relations
# split cyclically: the order-4 analogues of the exceptional 5-folds, built
# by the same auxiliary-cycle template and certified by reconstruction.
_M3_EXCEPTIONAL = {
    "cyclic4": """
x0 + x1 + x2 + x3 = 0
x0 + d = a
x1 + a = b
x2 + b = c
x3 + c = d
d + y1 + y2 + y3 = 0
c + y1 + y2 + y3 = x0 + x1 + x2
b + y1 + y2 + y3 = x0 + x1
a + y1 + y2 + y3 = x0
""",
    "pair4": """
x0 + x1 + x2 + x3 = 0
x1 + x2 + a = b
x3 + b = c
x0 + c = a
c + y1 + y2 + y3 = 0
b + y1 + y2 + y3 = x0 + x1 + x2
a + y1 + y2 + y3 = x0
""",
}


def m3_exceptional(pattern: str) -> LatticeFan:
    return reconstruct_fan(parse_relations(_M3_EXCEPTIONAL[pattern]), 6)


def blowdown_tower():
    """(Y0, X, centered): X is P2 x P2 blown up along the three disjoint
    surfaces <x_i, w_i>, a Fano 4-fold with three order-2 relevant relations
    x_i + w_i = b_i that do not chain into a cycle; the pipeline must undo
    all three blowups (the non-exceptional multi-blowdown path)."""
    from toricfans.birational import blowup

    y0 = product_fan(p2(), p2(), suffixes=("x", "w"))
    f, _ = blowup(y0, (y0.label_index["r0x"], y0.label_index["r0w"]), label="b1")
    f, _ = blowup(f, (f.label_index["r1x"], f.label_index["r1w"]), label="b2")
    f, _ = blowup(f, (f.label_index["r2x"], f.label_index["r2w"]), label="b3")
    centered = tuple(sorted(f.label_index[x] for x in ("r0x", "r1x", "r2x")))
    return y0, f, centered


def nonprojective_3fold() -> LatticeFan:
    """Smooth complete non-projective 3-fold (and no centered collection).

    Blowup of P3 along the three invariant lines through the (-1,-1,-1)
    fixed point, with the triangulation twisted cyclically by flopping
    (w_k = v4 + e_k); the three degree-0 wall curves v1+w3 = v3+w1,
    v2+w1 = v1+w2, v3+w2 = v2+w3 have classes summing to zero, so no
    strictly convex support function exists.  Found by exploring the flop
    graph of the blowup tower; frozen here verbatim."""
    return LatticeFan(
        3,
        [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (-1, -1, -1),
            (-1, -1, 0),
            (-1, 0, -1),
            (0, -1, -1),
        ],
        [
            (0, 1, 2),
            (0, 1, 5),
            (0, 2, 6),
            (0, 5, 6),
            (1, 2, 4),
            (1, 4, 5),
            (2, 4, 6),
            (3, 4, 5),
            (3, 4, 6),
            (3, 5, 6),
        ],
        labels=["v1", "v2", "v3", "v4", "w3", "w2", "w1"],
    )


def double_cover_surface() -> LatticeFan:
    """14 unimodular 2-cones (i, i+1 mod 14) that wind twice around the
    origin: every wall has two owners on opposite sides and the adjacency
    graph is connected, so ``validate`` passes it, but it is no fan.  The
    link sums its self-intersections to 12*2 - 3*14 = -18."""
    rays = [(1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2), (-1, -1),
            (-2, -3), (-1, -2), (-1, -3), (1, 2), (0, 1), (-1, 1), (0, -1)]
    return LatticeFan(2, rays, [(i, (i + 1) % 14) for i in range(14)])


def centered_of(f: LatticeFan, labels):
    return tuple(sorted(f.label_index[x] for x in labels))


def small_zoo():
    """The classical test fans with their expected (fano, m) pairs."""
    return [
        ("P2", p2(), True, 2),
        ("P3", p3(), True, 3),
        ("P1xP1", p1xp1(), True, 1),
        ("BlP2", bl_pt_p2(), True, 1),
        ("F2", hirzebruch(2), False, 1),
        ("B3", b3(), True, 2),
    ]
