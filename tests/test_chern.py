from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from toricfans import lattice
from toricfans.chern import (
    anticanonical_degree,
    candidate_bound_predicate,
    ch2_dot_invariant_surface,
    divisor_dot_orbit,
    screen_2fano,
)
from toricfans.errors import FanValidationError, PreconditionError
from toricfans.fan import LatticeFan, faces_of_dim, star_subdivision, wall_relation
from toricfans.fanio import build_bundle_over_p1
from toricfans.lattice import solve_integer_system
from toricfans.primitive import is_fano, primitive_relation, primitive_relations
from toricfans.certificate import base_value

from fixtures import b3, bl_pt_p2, double_cover_surface, fivefold, p1xp1, p2, p3, pn, product_fan, sixfold, small_zoo
from oracles import (
    ch2_by_link_scan,
    ch2_by_orbit_reduction,
    check_wall_relation,
    curve_divisor_pairing,
    wall_curve_class,
)
from test_enumerator import blown_up_fans
from test_fan import permuted


# curve_divisor_pairing and wall_curve_class are oracles: ch2_by_orbit_reduction
# pairs through them, and the package's link walk reads wall relations directly
class TestPairings:
    def test_p2_line(self):
        f = p2()
        line = primitive_relation(f, (0, 1, 2)).curve_class()
        assert all(curve_divisor_pairing(f, line, i) == 1 for i in range(3))

    def test_b3_exceptional(self):
        f = b3()
        c = primitive_relation(f, (1, 2)).curve_class()
        assert curve_divisor_pairing(f, c, 4) == -1
        assert curve_divisor_pairing(f, c, 0) == 0


class TestWallCurves:
    def test_p2_wall(self):
        f = p2()
        c = wall_curve_class(f, (0,))
        assert c.alpha == (1, 1, 1)

    def test_p1xp1_wall(self):
        f = p1xp1()
        c = wall_curve_class(f, (0,))
        assert c.alpha == (0, 0, 1, 1)

    def test_b3_wall_solved_exactly(self):
        f = b3()
        c = wall_curve_class(f, (0, 1))  # wall <v1, v2>, joins v0 and b
        # defining relation: v0 + b + sum(coeff * wall rays) = 0, solved by
        # the lattice module independently of the engine
        cols = tuple(tuple(f.vector(w)[d] for w in (0, 1)) for d in range(3))
        target = tuple(-(a + b_) for a, b_ in zip(f.vector(3), f.vector(4)))
        sol = solve_integer_system(cols, target)
        assert c.alpha[3] == 1 and c.alpha[4] == 1
        assert (c.alpha[0], c.alpha[1]) == sol
        assert c.alpha[2] == 0

    @pytest.mark.parametrize("name,fan,_,__", small_zoo())
    def test_defining_properties_everywhere(self, name, fan, _, __):
        for wall in faces_of_dim(fan, fan.rank - 1):
            c = wall_curve_class(fan, wall)
            check_wall_relation(fan, wall, c.alpha)

    def test_non_wall_rejected(self):
        with pytest.raises(PreconditionError):
            wall_curve_class(p2(), (0, 1))


class TestDivisorDotOrbit:
    def test_transversal(self):
        f = p2()
        expr = divisor_dot_orbit(f, 0, (1,))
        assert expr.terms == (((0, 1), Fraction(1)),)

    def test_self_intersection_p2(self):
        f = p2()
        expr = divisor_dot_orbit(f, 0, (0,))
        # a line meets itself in one point, whichever rewriting cone is used
        total = sum(coeff for _, coeff in expr.terms)
        assert total == 1

    def test_ruling_self_intersection_zero(self):
        f = p1xp1()
        expr = divisor_dot_orbit(f, 0, (0,))
        assert expr.terms == ()

    def test_choice_independence(self):
        # all admissible rewriting cones give the same numeric pairings
        for fan in (p2(), p1xp1(), b3()):
            for ray in range(fan.n_rays):
                for tau in faces_of_dim(fan, fan.rank - 2):
                    if ray not in tau:
                        continue
                    results = set()
                    hosts = [c for c in fan.max_cones if set(tau) <= set(c)]
                    for host in hosts:
                        m = fan.dual_basis(host)[host.index(ray)]
                        acc = Fraction(0)
                        for w in range(fan.n_rays):
                            if w in host:
                                continue
                            coeff = -sum(a * b for a, b in zip(m, fan.vector(w)))
                            if coeff == 0:
                                continue
                            bigger = tuple(sorted(set(tau) | {w}))
                            from toricfans.fan import spans_cone

                            if not spans_cone(fan, bigger):
                                continue
                            acc += coeff * wall_curve_class(fan, bigger).alpha[ray]
                        results.add(acc)
                    assert len(results) == 1


class TestCh2:
    def test_p2(self):
        assert ch2_dot_invariant_surface(p2(), ()) == Fraction(3, 2)

    def test_p1xp1(self):
        assert ch2_dot_invariant_surface(p1xp1(), ()) == 0

    def test_bl_pt_p2(self):
        assert ch2_dot_invariant_surface(bl_pt_p2(), ()) == 0

    def test_p3_planes(self):
        f = p3()
        for ray in range(4):
            assert ch2_dot_invariant_surface(f, (ray,)) == 2

    def test_dimension_check(self):
        with pytest.raises(PreconditionError):
            ch2_dot_invariant_surface(p3(), ())


def blown_up_p2(k: int):
    """P2 blown up at torus-fixed points until it has k rays."""
    f = p2()
    while f.n_rays < k:
        f = star_subdivision(f, f.max_cones[0])
    return f


def _assert_matches_orbit_reduction(fan):
    # the scan-based walk runs on a fresh fan, so it derives its own relations
    scanned = LatticeFan(fan.rank, fan.rays, fan.max_cones)
    for tau in faces_of_dim(fan, fan.rank - 2):
        value = ch2_dot_invariant_surface(fan, tau)
        assert value == ch2_by_link_scan(scanned, tau) == ch2_by_orbit_reduction(fan, tau), tau


LINK_FANS = [(name, fan) for name, fan, _, _ in small_zoo()] + [
    ("fivefold550", fivefold(550)),
    ("sixfold333", sixfold(333)),
    ("BlP2-8", blown_up_p2(8)),
    ("BlP2-8xP1", product_fan(blown_up_p2(8), pn(1))),
]


class TestLinkWalk:
    """The walk around the link of tau against the scan-based walk of
    ``oracles.ch2_by_link_scan`` and the divisor-times-orbit reduction of
    ``oracles.ch2_by_orbit_reduction``."""

    @pytest.mark.parametrize("name,fan", LINK_FANS, ids=[n for n, _ in LINK_FANS])
    def test_matches_orbit_reduction(self, name, fan):
        _assert_matches_orbit_reduction(fan)

    @given(blown_up_fans())
    @settings(max_examples=30, deadline=None)
    def test_blowup_sequences_match_orbit_reduction(self, fan):
        _assert_matches_orbit_reduction(fan)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_surface_closed_form(self, k):
        # a smooth complete toric surface with k rays has sum C_i^2 = 12 - 3k,
        # so ch2 = (12 - 3k)/2; times P1, the fibre V(t) over a P1 ray t is
        # that surface with trivial normal bundle
        f = blown_up_p2(k)
        assert ch2_dot_invariant_surface(f, ()) == Fraction(12 - 3 * k, 2)
        g = product_fan(f, pn(1))  # ray k is the first ray of the P1 factor
        assert ch2_dot_invariant_surface(g, (k,)) == Fraction(12 - 3 * k, 2)

    def test_walk_that_cannot_close_raises(self):
        # a hexagon whose wall table is corrupted on walls r1 and r3 so that
        # the walk from r0 enters the loop r1 -> r2 -> r3 -> r1
        rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        f = LatticeFan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        for w in range(f.n_rays):
            wall_relation(f, (w,))  # the walk reads the true relations from the table
        steps = []

        class Counted(dict):
            # count the steps, so that a walk without its bound fails, not hangs
            def __getitem__(self, wall):
                steps.append(wall)
                assert len(steps) <= 10 * f.n_rays, "the walk did not stop"
                return super().__getitem__(wall)

        table = Counted(f.walls)
        table[1 << 1] = [2, 3]
        table[1 << 3] = [1, 2]
        f.__dict__["walls"] = table
        with pytest.raises(FanValidationError, match="does not close"):
            ch2_dot_invariant_surface(f, ())
        assert len(steps) == f.n_rays  # r0, then r1 r2 r3 r1 r2 until the bound

    def test_screen_inverts_one_cone(self, monkeypatch):
        # the walk indexes the fan's wall-relation table, which one sweep
        # builds from a single cone inverse; a second screen inverts nothing
        f = fivefold(550)  # reconstruct_fan inverts cones of its own
        real, inverted = lattice.unimodular_inverse, []

        def counted(m):
            inverted.append(m)
            return real(m)

        monkeypatch.setattr(lattice, "unimodular_inverse", counted)
        screen_2fano(f)
        screen_2fano(f)
        assert len(inverted) <= 1

    def test_classify_inverts_one_cone(self, monkeypatch):
        # is_fano's walks and the screen's sweep both start from max_cones[0],
        # the only cone either inverts; the other cones' dual bases are
        # rank-1 updates across walls
        f = fivefold(550)
        f = LatticeFan(f.rank, f.rays, f.max_cones)  # reconstruct_fan inverts cones of its own
        real, inverted = lattice.unimodular_inverse, []

        def counted(m):
            inverted.append(m)
            return real(m)

        monkeypatch.setattr(lattice, "unimodular_inverse", counted)
        assert is_fano(f)
        screen_2fano(f)
        assert inverted == [[f.vector(i) for i in f.max_cones[0]]]

    def test_repeated_ray_is_rejected(self):
        with pytest.raises(PreconditionError, match="repeats ray r0"):
            ch2_dot_invariant_surface(pn(4), (0, 0))

    def test_tau_spanning_no_cone_is_rejected(self):
        # with test_dimension_check and test_repeated_ray_is_rejected, the
        # three checks that screen_2fano skips on the faces it builds
        with pytest.raises(PreconditionError, match="does not span a cone"):
            ch2_dot_invariant_surface(product_fan(p1xp1(), p1xp1()), (0, 1))


class TestDegrees:
    @pytest.mark.parametrize("name,fan,_,__", small_zoo())
    def test_two_routes_agree(self, name, fan, _, __):
        for rel in primitive_relations(fan):
            assert anticanonical_degree(fan, rel.curve_class()) == rel.degree

    def test_centered_degree(self):
        f = pn(4)
        rel = primitive_relation(f, tuple(range(5)))
        assert anticanonical_degree(f, rel.curve_class()) == 5


class TestScreen:
    def test_values(self):
        assert screen_2fano(p2())[1] == Fraction(3, 2)
        assert screen_2fano(p3())[1] == 2
        assert screen_2fano(p1xp1())[1] == 0
        assert screen_2fano(bl_pt_p2())[1] == 0
        assert screen_2fano(b3())[1] <= 0

    def test_fivefold_nonpositive(self):
        assert screen_2fano(fivefold(550))[1] <= 0

    @pytest.mark.parametrize("d", range(2, 7))
    def test_projective_space_is_2fano(self, d):
        # ch2(P^d) = (d+1)/2 H^2, and H^2 . V(tau) = 1 on every invariant plane
        rows, minimum = screen_2fano(pn(d))
        assert len(rows) == len(faces_of_dim(pn(d), d - 2))
        assert {value for _, value in rows} == {Fraction(d + 1, 2)} == {minimum}

    def test_link_that_winds_twice_is_rejected(self):
        # validate passes the degree-2 cover, which used to screen to (24 - 3*14)/2 = -9
        f = double_cover_surface()
        assert f.validation.ok
        with pytest.raises(FanValidationError, match=r"link of \(\) winds more than once"):
            screen_2fano(f)

    def test_rows_cover_all_surfaces(self):
        f = b3()
        rows, _ = screen_2fano(f)
        assert len(rows) == len(faces_of_dim(f, 1))


class TestScreenInvariance:
    """Metamorphic: ch2 . V(tau) is intrinsic to the fan, so a ray
    permutation moves every row's tau by the permutation and a signed
    permutation of the coordinates moves nothing."""

    @given(blown_up_fans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_ray_permutation(self, f, data):
        new = data.draw(st.permutations(range(f.n_rays)))
        rows, minimum = screen_2fano(f)
        moved = sorted((tuple(sorted(new[i] for i in tau)), value) for tau, value in rows)
        assert screen_2fano(permuted(f, new)) == (moved, minimum)

    @given(blown_up_fans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_signed_coordinate_permutation(self, f, data):
        perm = data.draw(st.permutations(range(f.rank)))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=f.rank, max_size=f.rank))
        rays = [tuple(s * r.vector[k] for s, k in zip(signs, perm)) for r in f.rays]
        assert screen_2fano(LatticeFan(f.rank, rays, f.max_cones)) == screen_2fano(f)


class TestBundleCrossCheck:
    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form(self, m):
        for a in combinations_with_replacement(range(-3, 4), m + 1):
            f = build_bundle_over_p1(list(a))
            tau = tuple(range(2, m + 1))
            assert ch2_dot_invariant_surface(f, tau) == base_value(m, a), a


class TestBoundPredicate:
    def test_examples(self):
        assert candidate_bound_predicate(9, 3, 17)
        assert not candidate_bound_predicate(9, 3, 18)
        assert not candidate_bound_predicate(8, 3, 5)

    def test_range_limits(self):
        assert not candidate_bound_predicate(9, 2, 5)
        assert not candidate_bound_predicate(9, 7, 5)
        assert not candidate_bound_predicate(9, 3, 3)

    def test_boundary_exactness(self):
        # rho exactly at the bound must fail the strict inequality
        for n in range(9, 40):
            for rho in range(4, 2 * n + 2):
                rhs = 30 * (2 * n - rho) + 37
                strict = rhs > 0 and rhs * rhs > 60 * n + 1249
                assert candidate_bound_predicate(n, 3, rho) == (strict and rho >= 4)
