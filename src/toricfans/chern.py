"""Toric intersection theory on smooth complete fans: divisor-times-orbit
reduction, ch2 against torus-invariant surfaces (one walk around each
surface's link: each step looks its wall up by ray bitmask in the fan's wall
table and wall-relation table; a link that winds more than once, which
``validate`` lets through, is rejected by Noether's formula), the
anticanonical degree of a curve class, and the numeric screens.

All arithmetic is exact: integer wall relations and Fraction-valued cycle
coefficients.  ch2 values are half-integers and print exactly ("3/2").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .errors import FanValidationError, PreconditionError
from .fan import ConeRef, LatticeFan, _cones_containing, faces_of_dim, ray_mask, spans_cone
from .primitive import CurveClass


@dataclass(frozen=True)
class CycleExpression:
    """Integer/rational combination of orbit closures of one fixed codimension."""

    terms: tuple[tuple[ConeRef, Fraction], ...]

    def __iter__(self):
        return iter(self.terms)


def divisor_dot_orbit(f: LatticeFan, ray: int, orbit: ConeRef) -> CycleExpression:
    """V(ray) . V(orbit) as a combination of orbit closures of one higher
    codimension.

    When the ray lies in the orbit's cone, V(ray) is first rewritten by the
    linear equivalence attached to a dual covector of the first maximal cone
    containing the orbit; the rewrite only involves rays outside that cone,
    so it reduces to the transversal cases.
    """
    f.require_valid()
    orbit = tuple(sorted(orbit))
    if not spans_cone(f, orbit):
        raise PreconditionError(f"{f.cone_labels(orbit)} does not span a cone")

    def transversal(r: int) -> ConeRef | None:
        bigger = tuple(sorted(set(orbit) | {r}))
        return bigger if spans_cone(f, bigger) else None

    if ray not in orbit:
        cone = transversal(ray)
        terms = [(cone, Fraction(1))] if cone else []
        return CycleExpression(tuple(terms))

    host = next(c for c in f.max_cones if set(orbit) <= set(c))
    m = f.dual_basis(host)[host.index(ray)]  # <m, ray> = 1, <m, w> = 0 on the rest of host
    acc: dict[ConeRef, Fraction] = {}
    for w in range(f.n_rays):
        if w in host:
            continue
        coeff = -lattice.dot(m, f.vector(w))
        if coeff == 0:
            continue
        cone = transversal(w)
        if cone is None:
            continue
        acc[cone] = acc.get(cone, Fraction(0)) + coeff
    terms = tuple((c, v) for c, v in sorted(acc.items()) if v != 0)
    return CycleExpression(terms)


def ch2_dot_invariant_surface(f: LatticeFan, tau: ConeRef) -> Fraction:
    """ch2(X) . V(tau) for an (n-2)-cone tau, via ch2 = (1/2) sum_v V(v)^2
    restricted to the smooth toric surface S = V(tau).

    One walk around the link of tau visits its rays w_0 .. w_{k-1} in cyclic
    order, starting in a maximal cone containing tau; each step looks the
    wall tau + w_i up by its ray bitmask in the fan's wall table (the next
    ray is its other opposite ray) and in ``f.wall_relations``.  The
    wall relation a_i gives C_i = V(tau + w_i) on S its self-intersection
    a_i[w_i], and gives V(v).C_i = a_i[v] for v in tau.  Noether's formula
    for a smooth complete toric surface requires sum a_i[w_i] = 12 - 3k; a
    link winding d times around tau gives 12d - 3k and is rejected.  Writing
    V(t)|_S = sum d_i C_i with d_0 = d_1 = 0 (linear equivalence), the toric
    surface relation d_{i-1} + d_{i+1} + a_i[w_i] d_i = a_i[t] fixes the
    rest, and V(t)|_S^2 = sum d_i a_i[t].  Integer throughout."""
    tau = tuple(sorted(tau))
    if len(tau) != f.rank - 2:
        raise PreconditionError(f"invariant surfaces are cut by (n-2)-cones, got dim {len(tau)}")
    if not spans_cone(f, tau):
        raise PreconditionError(f"{f.cone_labels(tau)} does not span a cone")
    repeated = [t for t, s in zip(tau, tau[1:]) if t == s]
    if repeated:
        raise PreconditionError(f"{f.cone_labels(tau)} repeats ray {f.ray_label(repeated[0])}")
    return Fraction(_ch2_by_link_walk(f, tau), 2)


def _ch2_by_link_walk(f: LatticeFan, tau: ConeRef) -> int:
    """2 * ch2_dot_invariant_surface, an integer, without its checks on tau:
    tau must be rank - 2 distinct ray indices, sorted, that span a cone of a
    valid fan."""
    tau_bits = ray_mask(tau)
    walls, relations = f.walls, f.wall_relations
    cones = _cones_containing(f, tau)
    start = next(w for w in f.max_cones[(cones & -cones).bit_length() - 1] if not tau_bits >> w & 1)
    link, rels, n = [], [], f.n_rays
    prev, cur = None, start
    while not link or cur != start:
        if len(link) == n:
            raise FanValidationError(f"the link of {f.cone_labels(tau)} does not close")
        wall = tau_bits | 1 << cur
        link.append(cur)
        rels.append(relations[wall])
        u, v = walls[wall]
        prev, cur = cur, v if u == prev else u
    squares = [a[w] for w, a in zip(link, rels)]
    total = sum(squares)
    if total != 12 - 3 * len(link):
        raise FanValidationError(
            f"the link of {f.cone_labels(tau)} winds more than once: its {len(link)} curves "
            f"have self-intersections summing to {total}, not {12 - 3 * len(link)} (Noether's formula)"
        )
    for t in tau:
        before, d = 0, 0  # d_{i-1} and d_i, from d_0 = d_1 = 0
        for i in range(1, len(link) - 1):
            before, d = d, rels[i][t] - before - squares[i] * d
            total += d * rels[i + 1][t]
    return total


def anticanonical_degree(f: LatticeFan, curve: CurveClass) -> int:
    """-K . C = sum of the curve class coordinates (since -K = sum V(v))."""
    if len(curve.alpha) != f.n_rays:
        raise PreconditionError("curve class indexed over a different ray set")
    return sum(curve.alpha)


def screen_2fano(f: LatticeFan) -> tuple[list[tuple[ConeRef, Fraction]], Fraction]:
    """ch2 against every torus-invariant surface, with the minimum.

    A nonpositive minimum certifies the fan is not 2-Fano.  On a Fano fan a
    positive minimum means 2-Fano: every effective cycle on a complete toric
    variety is rationally equivalent to a nonnegative combination of
    invariant ones (Fulton-MacPherson-Sottile-Sturmfels 1995), and the class
    of a surface is nonzero, so ch2 is positive on every surface exactly
    when it is positive on every V(tau).
    """
    f.require_valid()
    if f.rank < 2:
        raise PreconditionError("screening needs dimension >= 2")
    # faces_of_dim's cones meet the checks that ch2_dot_invariant_surface
    # makes; the minimum is taken over the integer totals 2 * ch2 . V(tau)
    faces = faces_of_dim(f, f.rank - 2)
    totals = [_ch2_by_link_walk(f, tau) for tau in faces]
    return [(tau, Fraction(t, 2)) for tau, t in zip(faces, totals)], Fraction(min(totals), 2)


def candidate_bound_predicate(n: int, m: int, rho: int) -> bool:
    """Numeric screen for surviving candidates: n >= 9, 3 <= m <= n-3,
    4 <= rho and rho < 2n - (sqrt(60n+1249) - 37)/30, decided in exact
    integer arithmetic by squaring."""
    if n < 1:
        raise PreconditionError("dimension must be positive")
    if n < 9 or not (3 <= m <= n - 3) or rho < 4:
        return False
    # rho < 2n - (sqrt(D) - 37)/30  <=>  sqrt(D) < 30(2n - rho) + 37
    rhs = 30 * (2 * n - rho) + 37
    return rhs > 0 and rhs * rhs > 60 * n + 1249
