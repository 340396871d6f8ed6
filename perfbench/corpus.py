"""Deterministic inputs for the benchmark workloads.

Every fan is built here from its relation presentation or from explicit
rays and cones, so that an edit to the test fixtures can never change a
workload.  The library only ever sees the generated fans (or the TORICFAN
files written from them).  ``fanio`` is called through the module, so that a
traced set-up sees ``reconstruct_fan``.

The seed acts on each fan by a signed permutation of the lattice
coordinates, keeping the ray order, labels and cones.  That is a unimodular
change of basis, so every combinatorial output (classification rows,
primitive relations, pipeline steps, certificates, ``analyze`` text) is the
same for every seed, while the integer data the library works on differs.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, combinations_with_replacement

from toricfans.birational import FlipSpec, blowup, flip
from toricfans.fan import LatticeFan, faces_of_dim, star_subdivision
from toricfans import fanio
from toricfans.primitive import primitive_relation

# -- small classical fans -------------------------------------------------------


def pn(n: int) -> LatticeFan:
    rays = [tuple(1 if d == i else 0 for d in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return LatticeFan(n, rays, cones)


def p2() -> LatticeFan:
    return LatticeFan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def b3() -> LatticeFan:
    """Blowup of P3 along the line <v2, v3>."""
    return LatticeFan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 1, 1)],
        [(0, 1, 3), (0, 2, 3), (1, 3, 4), (2, 3, 4), (0, 1, 4), (0, 2, 4)],
        labels=["v1", "v2", "v3", "v0", "b"],
    )


def product_fan(f: LatticeFan, g: LatticeFan, suffixes=("L", "R")) -> LatticeFan:
    rays = [r.vector + (0,) * g.rank for r in f.rays]
    rays += [(0,) * f.rank + r.vector for r in g.rays]
    labels = [r.name() + suffixes[0] for r in f.rays]
    labels += [r.name() + suffixes[1] for r in g.rays]
    cones = [c1 + tuple(i + f.n_rays for i in c2) for c1 in f.max_cones for c2 in g.max_cones]
    return LatticeFan(f.rank + g.rank, rays, cones, labels)


def nonprojective_3fold() -> LatticeFan:
    """Smooth complete non-projective 3-fold without a centered collection."""
    return LatticeFan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, -1, 0), (-1, 0, -1), (0, -1, -1)],
        [
            (0, 1, 2), (0, 1, 5), (0, 2, 6), (0, 5, 6), (1, 2, 4),
            (1, 4, 5), (2, 4, 6), (3, 4, 5), (3, 4, 6), (3, 5, 6),
        ],
        labels=["v1", "v2", "v3", "v4", "w3", "w2", "w1"],
    )


def _rel(f: LatticeFan, labels):
    return primitive_relation(f, tuple(sorted(f.label_index[x] for x in labels)))


def flip_fixture_4d():
    """(Y, X'): a P2-bundle over F1 and its reverse flip, a Fano 4-fold whose
    only relevant relation is x0 + x1 + a = b + c."""
    names = ["x0", "x1", "x2", "a", "b", "c", "d"]
    rays = [
        (-1, -1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1),
        (0, 0, 1, 0), (0, -1, -1, 1), (0, 1, 0, -1),
    ]
    idx = {n: i for i, n in enumerate(names)}
    base = [("b", "a"), ("a", "c"), ("c", "d"), ("d", "b")]
    cones = [
        tuple(sorted(idx[t] for t in pair + w))
        for w in base
        for pair in combinations(("x0", "x1", "x2"), 2)
    ]
    y = LatticeFan(4, rays, cones, labels=names)
    return y, flip(y, FlipSpec(_rel(y, ("b", "c"))))


def flip_fixture_6d():
    """(Y, X'): a P2-bundle over F1 x F1 and the fan two disjoint reverse
    flips away from it (two simultaneous flips in the pipeline)."""
    names = ["x0", "x1", "x2", "u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4"]
    rays = [
        (-1, -1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, -1, -1, 1, 0, 0),
        (0, 1, 0, -1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
        (-1, 0, 0, 0, -1, 1), (1, 0, 0, 0, 0, -1),
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
    mid = flip(y, FlipSpec(_rel(y, ("u1", "u3"))))
    return y, flip(mid, FlipSpec(_rel(mid, ("v1", "v3"))))


def blowdown_tower():
    """(Y0, X): P2 x P2 and its blowup along three disjoint surfaces
    <x_i, w_i>, a Fano 4-fold with three order-2 relevant relations."""
    y0 = product_fan(p2(), p2(), suffixes=("x", "w"))
    f = y0
    for k in range(3):
        f, _ = blowup(f, (f.label_index[f"r{k}x"], f.label_index[f"r{k}w"]), label=f"b{k + 1}")
    return y0, f


# -- appendix relation presentations ------------------------------------------------

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

M3_EXCEPTIONAL = {
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


def presentations() -> list[tuple[str, str, int]]:
    """(name, relation text, dimension) of every fan given by relations."""
    out = [(f"fivefold{k}", _FIVEFOLD.format(r1=r1), 5) for k, r1 in FIVEFOLD_R1.items()]
    for k, (r1, r2, r3, q) in SIXFOLD_ROWS.items():
        out.append((f"sixfold{k}", _SIXFOLD.format(r1=r1, r2=r2, r3=r3, q=q), 6))
    out.append(("fan2268", REL_2268, 6))
    out.append(("fan2170", REL_2170, 6))
    out.extend((f"m3-{k}", text, 6) for k, text in M3_EXCEPTIONAL.items())
    return out


# -- families ---------------------------------------------------------------------


def _single_blowups():
    """Every blowup of P2xP2, P2xP3 and B3xP2 along a 2- or 3-face."""
    seeds = [
        ("p2p2", product_fan(p2(), p2(), suffixes=("x", "w"))),
        ("p2p3", product_fan(p2(), pn(3), suffixes=("x", "w"))),
        ("b3p2", product_fan(b3(), p2(), suffixes=("", "w"))),
    ]
    out = []
    for seed_name, y0 in seeds:
        for dim in (2, 3):
            for center in faces_of_dim(y0, dim):
                up, _ = blowup(y0, center, label="e")
                tag = "-".join(y0.ray_label(i) for i in center)
                out.append((f"blowup-{seed_name}-{tag}", up))
    return out


def _bundles():
    """Split bundles P(O + O(a_1) + ... + O(a_m)) over P1, 0 <= a_i <= 2."""
    out = []
    for m in range(1, 5):
        for tw in combinations_with_replacement(range(3), m):
            a = [0, *tw]
            out.append((f"bundle-{''.join(map(str, a))}", fanio.build_bundle_over_p1(a)))
    return out


def _tower(n_blowups: int) -> LatticeFan:
    """Blowup tower over P4: each step subdivides the first 2-face of the
    first maximal cone."""
    f = pn(4)
    for _ in range(n_blowups):
        f = star_subdivision(f, f.max_cones[0][:2])
    return f


def _p1_power(k: int) -> LatticeFan:
    f = pn(1)
    for _ in range(k - 1):
        f = product_fan(f, pn(1))
    return f


# -- workload corpora ------------------------------------------------------------------


def classify_corpus() -> list[tuple[str, LatticeFan]]:
    """The batch corpus: the appendix fans, the flip and blowdown fixtures,
    B3, the non-projective 3-fold, every single 2-/3-face blowup of the
    three bundle products and the bundle sweep; at most 11 rays each."""
    out = [(name, fanio.reconstruct_fan(fanio.parse_relations(text), dim)) for name, text, dim in presentations()]
    (y4, x4), (y6, x6), (y0, tower) = flip_fixture_4d(), flip_fixture_6d(), blowdown_tower()
    out += [("flip4-y", y4), ("flip4-x", x4), ("flip6-y", y6), ("flip6-x", x6)]
    out += [("tower-y0", y0), ("tower-x", tower), ("b3", b3()), ("nonprojective3", nonprojective_3fold())]
    out += _single_blowups()
    out += _bundles()
    return sorted(out, key=lambda t: t[0])


def large_fans() -> list[tuple[str, LatticeFan]]:
    """The analyze corpus, 12 to 21 rays, on both sides of the 15-ray
    switch between enumeration kernels."""
    p1 = pn(1)
    t8 = _tower(8)
    out = [(f"p1pow{k}", _p1_power(k)) for k in range(6, 11)]
    out.append(("tower8", t8))
    out.append(("tower8xp1", product_fan(t8, p1)))
    out.append(("tower12xp1xp1", product_fan(product_fan(_tower(12), p1), p1)))
    out.append(("p3xp3xp1xp1", product_fan(product_fan(pn(3), pn(3)), product_fan(p1, p1))))
    return out


# -- seeding and hashing -----------------------------------------------------------------


def signed_permutation(f: LatticeFan, rng: random.Random) -> LatticeFan:
    """The same fan after the coordinate change x_k -> s_k * x_perm(k)."""
    perm = rng.sample(range(f.rank), f.rank)
    signs = [rng.choice((1, -1)) for _ in range(f.rank)]
    rays = [tuple(s * r.vector[p] for s, p in zip(signs, perm)) for r in f.rays]
    return LatticeFan(f.rank, rays, f.max_cones, [r.label for r in f.rays])


def seeded(fans, seed: int) -> list[tuple[str, LatticeFan]]:
    return [(name, signed_permutation(f, random.Random(f"{seed}:{name}"))) for name, f in fans]


def corpus_hash(fans) -> str:
    h = hashlib.sha256()
    for name, f in fans:
        h.update(name.encode() + b"\0" + fanio.emit_fan(f).encode() + b"\0")
    return h.hexdigest()
