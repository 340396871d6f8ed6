from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toricfans import lattice
from toricfans.birational import is_contractible
from toricfans.chern import ch2_dot_invariant_surface, screen_2fano
from toricfans.errors import FanValidationError, PreconditionError
from toricfans.fan import (
    LatticeFan,
    _inherit_cone_data,
    faces_of_dim,
    is_projective,
    locate,
    projectivity_witness,
    ray_mask,
    spans_cone,
    star_subdivision,
    validate,
    wall_neighbors,
    wall_relation,
)
from toricfans.primitive import (
    is_fano,
    is_primitive_collection,
    minimal_p_dimension,
    primitive_collections,
    primitive_relation,
    primitive_relations,
)

import oracles
from fixtures import (
    b3,
    fivefold,
    hirzebruch,
    nonprojective_3fold,
    p1xp1,
    p2,
    p3,
    pn,
    product_fan,
    sixfold,
    small_zoo,
)
from oracles import check_wall_relation, fm_feasible
from test_enumerator import blown_up_fans
from test_lattice import unimodular

ZOO = [fan for _, fan, _, _ in small_zoo()] + [nonprojective_3fold()]


def locate_reference(f, p):
    """locate through lattice.express_in_basis, cone by cone."""
    if all(x == 0 for x in p):
        return (), ()
    for cone in f.max_cones:
        coords = lattice.express_in_basis([f.vector(i) for i in cone], p)
        if all(c >= 0 for c in coords):
            return tuple(i for i, c in zip(cone, coords) if c > 0), tuple(c for c in coords if c > 0)
    raise AssertionError("no cone contains the point")


def wall_relation_reference(f, wall):
    """Wall relation by solving the wall rays' system for -(u1 + u2)."""
    u1, u2 = wall_neighbors(f, wall)
    cols = tuple(tuple(f.vector(w)[d] for w in wall) for d in range(f.rank))
    sol = lattice.solve_integer_system(cols, [-(a + b) for a, b in zip(f.vector(u1), f.vector(u2))])
    if not isinstance(sol, tuple):
        raise FanValidationError(f"wall {f.cone_labels(wall)} has no integral relation ({sol})")
    alpha = [0] * f.n_rays
    alpha[u1] = alpha[u2] = 1
    for w, c in zip(wall, sol):
        alpha[w] = c
    return tuple(alpha)


def fresh(f):
    """An equal fan with empty caches."""
    return LatticeFan(f.rank, f.rays, f.max_cones)


def transformed(f, g):
    """The image of f under the lattice automorphism v -> v @ g."""
    rays = [tuple(sum(v[k] * g[k][j] for k in range(f.rank)) for j in range(f.rank)) for v in (r.vector for r in f.rays)]
    return LatticeFan(f.rank, rays, f.max_cones, [r.label for r in f.rays])


def permuted(f, new):
    """f with ray i renumbered new[i]."""
    rays = [None] * f.n_rays
    for i, r in enumerate(f.rays):
        rays[new[i]] = r.vector
    return LatticeFan(f.rank, rays, [[new[i] for i in cone] for cone in f.max_cones])


@st.composite
def mutated_fans(draw):
    """A fan of blown_up_fans() with one mutation: a cone dropped, a ray
    perturbed, a ray added, one cone entry re-indexed (out of range
    included), or all cones replaced by random cones of the right size."""
    f = draw(blown_up_fans())
    rays = [r.vector for r in f.rays]
    cones = [list(c) for c in f.max_cones]
    kind = draw(st.sampled_from(["drop cone", "perturb ray", "add ray", "re-index", "random cones"]))
    if kind == "drop cone":
        del cones[draw(st.integers(0, len(cones) - 1))]
    elif kind == "perturb ray":
        i = draw(st.integers(0, len(rays) - 1))
        d = draw(st.integers(0, f.rank - 1))
        v = list(rays[i])
        v[d] += draw(st.sampled_from([-2, -1, 1, 2]))
        rays[i] = tuple(v)
    elif kind == "add ray":
        rays.append(tuple(draw(st.lists(st.integers(-2, 2), min_size=f.rank, max_size=f.rank))))
    elif kind == "re-index":
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        cone[draw(st.integers(0, f.rank - 1))] = draw(st.integers(-1, len(rays)))
    else:
        subset = st.lists(st.integers(0, len(rays) - 1), min_size=f.rank, max_size=f.rank, unique=True)
        cones = draw(st.lists(subset, min_size=len(cones), max_size=len(cones)))
    return LatticeFan(f.rank, rays, cones)


class TestValidate:
    def test_p2_valid(self):
        assert validate(p2()).ok

    def test_missing_cone_breaks_completeness(self):
        f = LatticeFan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        report = validate(f)
        assert not report.ok
        assert any("wall" in msg for msg in report.failures)

    def test_non_primitive_ray(self):
        f = LatticeFan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        report = validate(f)
        assert not report.ok
        assert any("primitive" in msg for msg in report.failures)

    def test_non_unimodular_cone(self):
        f = LatticeFan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert not validate(f).ok

    def test_duplicate_ray(self):
        f = LatticeFan(2, [(1, 0), (1, 0), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert not validate(f).ok

    def test_folded_walls(self):
        # cones (r0, r1) and (r0, r2) overlap: every wall is shared by two
        # cones and the adjacency graph is connected, but across walls r0
        # and r2 both cones lie on the same side
        f = LatticeFan(2, [(1, 0), (0, 1), (-1, 1)], [(0, 1), (0, 2), (1, 2)])
        report = validate(f)
        assert not report.ok
        assert report.failures == (
            "wall ('r0',) is folded: both of its maximal cones lie on one side",
            "wall ('r2',) is folded: both of its maximal cones lie on one side",
        )
        with pytest.raises(FanValidationError, match="folded"):
            locate(f, (1, 1))

    def test_bad_walls_report_in_wall_order(self):
        # the cones meet their walls (r1, r2) before (r0, r3) and (r0, r4),
        # but the report lists failing walls in sorted order
        p3_rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        f = LatticeFan(3, p3_rays + [(1, 1, 0)], [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 4)])
        assert validate(f).failures == (
            "wall ('r0', 'r2') is folded: both of its maximal cones lie on one side",
            "wall ('r0', 'r3') appears in 1 maximal cone(s), expected 2",
            "wall ('r0', 'r4') appears in 1 maximal cone(s), expected 2",
            "wall ('r1', 'r2') is folded: both of its maximal cones lie on one side",
            "wall ('r1', 'r3') appears in 1 maximal cone(s), expected 2",
            "wall ('r1', 'r4') appears in 1 maximal cone(s), expected 2",
        )
        f = LatticeFan(3, p3_rays, [(0, 1, 2), (0, 1, 3)])
        assert validate(f).failures == (
            "wall ('r0', 'r2') appears in 1 maximal cone(s), expected 2",
            "wall ('r0', 'r3') appears in 1 maximal cone(s), expected 2",
            "wall ('r1', 'r2') appears in 1 maximal cone(s), expected 2",
            "wall ('r1', 'r3') appears in 1 maximal cone(s), expected 2",
        )

    def test_downstream_rejects_invalid(self):
        f = LatticeFan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        with pytest.raises(FanValidationError):
            locate(f, (1, 1))

    @pytest.mark.parametrize(
        "rank, rays, cones, expected",
        [
            # the fan of a point: the empty cone, det 1, no walls
            (0, [], [()], "valid"),
            (0, [], [], "invalid: no maximal cones"),
            (0, [()], [()], "invalid: ray 0 is zero"),
            (0, [], [(0,)], "invalid: cone (0,) has out-of-range ray indices"),
            (1, [(1,), (-1,)], [(0,), (1,)], "valid"),
            (
                1,
                [(1,), (-1,)],
                [(0,)],
                "invalid: wall () appears in 1 maximal cone(s), expected 2; ray 1 occurs in no maximal cone",
            ),
            (1, [(1,), (-1,)], [(0, 1)], "invalid: maximal cone (0, 1) has size 2, expected 1"),
            (1, [(1,), (-2,)], [(0,), (1,)], "invalid: ray 1 is not primitive: (-2,); cone ('r1',) is not unimodular (det -2)"),
        ],
    )
    def test_rank_zero_and_one(self, rank, rays, cones, expected):
        f = LatticeFan(rank, rays, cones)
        assert str(validate(f)) == expected
        if rank:
            assert validate(f) == oracles.validate_reference(f)

    def test_two_sheets_are_disconnected(self):
        # two complete fans on disjoint rays: every wall pairs on opposite
        # sides, but the cones form two components
        rays = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)]
        f = LatticeFan(2, rays, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert validate(f).failures == ("maximal-cone adjacency graph is disconnected",)
        assert validate(f) == oracles.validate_reference(f)

    def test_misshapen_ray_skips_determinants(self):
        f = LatticeFan(2, [(1, 0), (0, 1, 0), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert validate(f).failures == ("ray 1 has length 3, rank is 2",)
        assert not f._cone_dets

    @given(mutated_fans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_under_mutation(self, f):
        assert str(validate(f)) == str(oracles.validate_reference(f))


class TestSpansCone:
    def test_face_of_max_cone(self):
        assert spans_cone(p2(), {0, 1})

    def test_full_collection_is_not_a_cone(self):
        assert not spans_cone(p2(), {0, 1, 2})

    def test_zero_cone(self):
        assert spans_cone(p2(), ())

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            spans_cone(p2(), {7})


class TestFaceIndex:
    """Face queries on the fan's per-ray cone masks against scans over the
    maximal cones (tests/oracles.py)."""

    @given(blown_up_fans())
    @settings(max_examples=30, deadline=None)
    def test_matches_scans(self, f):
        for size in range(f.rank + 2):
            for s in combinations(range(f.n_rays), size):
                assert spans_cone(f, s) == oracles.spans_cone(f, s), s
        for rel in primitive_relations(f):
            assert is_contractible(f, rel) == oracles.is_contractible(f, rel), rel
        for wall in faces_of_dim(f, f.rank - 1):
            assert wall_neighbors(f, wall) == oracles.wall_neighbors(f, wall)

    def test_faces_are_the_cones(self):
        f = b3()
        cones = {sub for c in f.max_cones for d in range(f.rank + 1) for sub in combinations(c, d)}
        for size in range(f.n_rays + 1):
            for s in combinations(range(f.n_rays), size):
                assert spans_cone(f, s) == (s in cones), s

    @pytest.mark.parametrize("f", ZOO)
    def test_ray_cones_are_the_cone_positions(self, f):
        for u in range(f.n_rays):
            positions = [k for k, cone in enumerate(f.max_cones) if u in cone]
            assert f.ray_cones[u] == sum(1 << k for k in positions)


# a cone lists ray 7 on a 4-ray fan, or ray -1: both fail validation, and
# every face query on them raises instead of reading the malformed cones
OUT_OF_RANGE = LatticeFan(
    3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 7)]
)
NEGATIVE = LatticeFan(
    3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, -1)]
)


#: the face queries, each of which must raise on either fan above
MALFORMED_QUERIES = [
    lambda f: spans_cone(f, (0, 1)),
    lambda f: spans_cone(f, ()),
    lambda f: ch2_dot_invariant_surface(f, (0,)),
    lambda f: is_primitive_collection(f, (0, 1, 2, 3)),
    lambda f: wall_neighbors(f, (0, 1)),
    lambda f: spans_cone(f, (1, 2)),
    lambda f: spans_cone(f, (1, 2, 3)),
    lambda f: is_primitive_collection(f, (1, 2, 3)),
    lambda f: wall_neighbors(f, (1, 2)),
]


class TestMalformedConeIndices:
    @pytest.mark.parametrize("query", MALFORMED_QUERIES)
    def test_out_of_range_index(self, query):
        with pytest.raises(FanValidationError):
            query(fresh(OUT_OF_RANGE))

    @pytest.mark.parametrize("query", MALFORMED_QUERIES)
    def test_negative_index(self, query):
        with pytest.raises(FanValidationError):
            query(fresh(NEGATIVE))


class TestLocate:
    def test_b3_new_ray(self):
        assert locate(b3(), (0, 1, 1)) == ((4,), (1,))

    def test_origin(self):
        assert locate(p2(), (0, 0)) == ((), ())

    def test_first_quadrant(self):
        assert locate(p2(), (2, 1)) == ((0, 1), (2, 1))

    def test_rank_one(self):
        # the walk crosses the zero cone, the one wall of P1, which both
        # maximal cones contain
        assert locate(pn(1), (-3,)) == ((1,), (3,))
        assert locate(pn(1), (2,)) == ((0,), (2,))

    @given(st.lists(st.integers(-8, 8), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_coefficients_reproduce_point(self, p):
        f = b3()
        cone, coeffs = locate(f, p)
        total = [0, 0, 0]
        for i, c in zip(cone, coeffs):
            for d, x in enumerate(f.vector(i)):
                total[d] += c * x
        assert tuple(total) == tuple(p)
        assert all(c > 0 for c in coeffs)


    @pytest.mark.parametrize("f", ZOO)
    def test_every_ray_sum_matches_reference(self, f):
        for size in range(1, f.n_rays + 1):
            for subset in combinations(range(f.n_rays), size):
                p = lattice.vec_sum([f.vector(i) for i in subset], f.rank)
                assert locate(f, p) == locate_reference(f, p)

    @given(st.sampled_from(ZOO + [fivefold(550)]), st.data())
    @settings(max_examples=60)
    def test_random_points_match_reference(self, f, data):
        p = data.draw(st.lists(st.integers(-9, 9), min_size=f.rank, max_size=f.rank))
        assert locate(f, p) == locate_reference(f, p)

    def test_every_primitive_relation_of_a_product(self):
        # a blowup tower over P3 times (P1)^2: 12 rays, 48 maximal cones
        tower = p3()
        for _ in range(4):
            tower = star_subdivision(tower, tower.max_cones[0][:2])
        f = product_fan(product_fan(tower, pn(1)), pn(1))
        rels = primitive_relations(f)
        assert len(rels) == len(primitive_relations(tower)) + 2
        for rel in rels:
            p = lattice.vec_sum([f.vector(i) for i in rel.collection], f.rank)
            assert locate(f, p) == locate_reference(f, p)
            assert locate(f, p) == (rel.focus, rel.coefficients)

    @given(blown_up_fans())
    @settings(max_examples=40, deadline=None)
    def test_walks_on_blowup_sequences_match_reference(self, f):
        assert_walks_exact(f)

    @pytest.mark.parametrize(
        "f, warmed, pos, k, j, errors",
        [
            (b3(), False, 0, 0, 2, {FanValidationError}),
            (fivefold(550), False, 0, 1, 0, {ArithmeticError, FanValidationError}),
            (nonprojective_3fold(), False, 0, 0, 2, {ArithmeticError}),
            (b3(), True, 1, 0, 2, {ArithmeticError}),
            (nonprojective_3fold(), True, 2, 0, 1, {ArithmeticError}),
        ],
    )
    def test_corrupted_basis_on_the_path_is_caught(self, f, warmed, pos, k, j, errors):
        # mutation test: adding dual covector j of max_cones[pos] to covector
        # k gives wrong coordinates, in that cone and (unless every cone
        # already holds its basis) in every cone the walk derives from it.
        # Each primitive relation is then either right or rejected, by a
        # crossing's -1 check (FanValidationError) or the answer check on
        # the ray vectors (ArithmeticError), with nothing memoised
        raised = set()
        for s in primitive_collections(f):
            g = fresh(f)
            if warmed:
                warm(g)
            cone = g.max_cones[pos]
            duals = list(g.dual_basis(cone))
            duals[k] = tuple(a + b for a, b in zip(duals[k], duals[j]))
            g._dual_bases[cone] = tuple(duals)
            held = dict(g._dual_bases)
            try:
                rel = primitive_relation(g, s)
            except (ArithmeticError, FanValidationError) as e:
                raised.add(type(e))
                assert s not in g._primitive_relations
                assert g._dual_bases == held
            else:
                assert rel == primitive_relation(fresh(f), s)
        assert raised == errors


def rows(f, cone):
    return tuple(f.vector(i) for i in cone)


def assert_walks_exact(f):
    """On an equal fan with empty caches, locate answers as locate_reference
    for the sum of every primitive collection, and every dual basis its
    walks keep is lattice.unimodular_inverse's.  Returns how many maximal
    cones hold a dual basis afterwards (the walks' start and the cones they
    derived)."""
    g = fresh(f)
    for mask in g.minimal_nonfaces:
        p = lattice.vec_sum([g.vector(i) for i in range(g.n_rays) if mask >> i & 1], g.rank)
        assert locate(g, p) == locate_reference(g, p), p
    for cone, duals in g._dual_bases.items():
        assert duals == tuple(zip(*lattice.unimodular_inverse(rows(g, cone)))), cone
    return len(g._dual_bases)


def new_cones(parent, out):
    """The maximal cones of out whose ray vectors are not those of a
    maximal cone of parent."""
    old = {rows(parent, c) for c in parent.max_cones}
    return [c for c in out.max_cones if rows(out, c) not in old]


def warm(f):
    """Validate f and invert every maximal cone, so each has cone data to
    hand over."""
    assert validate(f).ok
    for cone in f.max_cones:
        f.dual_basis(cone)


def assert_entries_exact(out):
    """Every determinant and dual basis out holds belongs to one of its
    maximal cones and equals a recomputation on an equal fan with empty
    caches, and validate reports the same on both."""
    again = fresh(out)
    assert validate(out) == validate(again)
    assert set(out._cone_dets) <= set(out.max_cones)
    assert set(out._dual_bases) <= set(out.max_cones)
    for cone, det in out._cone_dets.items():
        assert det == lattice.determinant(rows(again, cone)) == again._cone_dets[cone], cone
    for cone, duals in out._dual_bases.items():
        assert duals == again.dual_basis(cone), cone


def assert_cone_data_exact(parent, out):
    """assert_entries_exact, and each maximal cone of out with the ray
    vectors of an inverted maximal cone of parent holds that cone's dual
    basis object: handed over, not recomputed."""
    assert_entries_exact(out)
    by_rows = {rows(parent, c): c for c in parent.max_cones}
    for cone in out.max_cones:
        source = by_rows.get(rows(out, cone))
        if source in parent._dual_bases:
            assert out._dual_bases.get(cone) is parent._dual_bases[source], cone


@contextmanager
def counting_determinants():
    """Collect every cone handed to lattice.cone_determinants (validate's
    only way to compute determinants) while the block runs."""
    cones = []
    compute = lattice.cone_determinants

    def counting(vectors, todo):
        cones.extend(todo)
        return compute(vectors, todo)

    with mock.patch.object(lattice, "cone_determinants", counting):
        yield cones


class TestStarSubdivision:
    def test_p3_to_b3(self):
        sub = star_subdivision(p3(), (1, 2), label="b")
        assert sub == b3()

    def test_p2_point_blowup(self):
        sub = star_subdivision(p2(), (0, 1))
        assert sub.rays[-1].vector == (1, 1)
        assert validate(sub).ok
        assert len(sub.max_cones) == 4

    def test_center_size_one_rejected(self):
        with pytest.raises(PreconditionError):
            star_subdivision(p2(), (0,))

    def test_non_cone_center_rejected(self):
        with pytest.raises(PreconditionError):
            star_subdivision(p2(), (0, 1, 2))

    @pytest.mark.parametrize("fan", [p2(), p1xp1(), p3(), b3()])
    def test_output_valid_and_counts(self, fan):
        for cone in fan.max_cones:
            for size in (2, fan.rank):
                center = cone[:size]
                sub = star_subdivision(fan, center)
                assert validate(sub).ok
                assert sub.n_rays == fan.n_rays + 1
                through = sum(1 for c in fan.max_cones if set(center) <= set(c))
                assert len(sub.max_cones) == len(fan.max_cones) + through * (len(center) - 1)


class TestInheritedConeData:
    @pytest.mark.parametrize("fan", ZOO + [fivefold(550), sixfold(333)])
    def test_star_subdivision_hands_over_kept_cones(self, fan):
        warm(fan)
        for cone in fan.max_cones[:4]:
            for size in range(2, fan.rank + 1):
                with counting_determinants() as det:
                    sub = star_subdivision(fan, cone[:size])
                # validate computed only the cones the subdivision made
                assert len(det) == len(new_cones(fan, sub)) > 0
                assert set(sub._cone_dets) == set(sub.max_cones)
                assert_cone_data_exact(fan, sub)

    def test_changed_vectors_are_not_handed_over(self):
        # same indices, same cones, one ray doubled: every cone through it
        # must be recomputed, and validate must see its determinant
        f = b3()
        warm(f)
        rays = [r.vector for r in f.rays]
        rays[2] = tuple(2 * x for x in rays[2])
        child = LatticeFan(f.rank, rays, f.max_cones)
        _inherit_cone_data(child, f)
        assert set(child._cone_dets) == {c for c in f.max_cones if 2 not in c}
        assert set(child._dual_bases) == set(child._cone_dets)
        report = validate(child)
        assert not report.ok and "is not unimodular (det" in str(report)
        assert report == validate(fresh(child))

    def test_permuted_rays_move_entries_by_vector(self):
        # children whose rays are the parent's, permuted: an entry moves only
        # to the child cone with the same vectors in the same order, whether
        # the cones follow the rays or keep the parent's index tuples
        f = fivefold(550)
        warm(f)
        n = f.n_rays
        for perm in ([(i + 1) % n for i in range(n)], [n - 1 - i for i in range(n)]):
            rays = sorted(f.rays, key=lambda r: perm[r.index])
            for cones in (f.max_cones, [[perm[i] for i in c] for c in f.max_cones]):
                child = LatticeFan(f.rank, rays, cones)
                _inherit_cone_data(child, f)
                images = (tuple(perm[i] for i in c) for c in f.max_cones)
                assert set(child._cone_dets) == set(images) & set(child.max_cones)
                assert_entries_exact(child)
                assert validate(child) == validate(fresh(child))
        child = fresh(f)
        _inherit_cone_data(child, f)
        assert_cone_data_exact(f, child)
        assert set(child._dual_bases) == set(f.max_cones)

    def test_invalid_child_reports_as_fresh(self):
        f = b3()
        warm(f)
        missing = LatticeFan(f.rank, f.rays, f.max_cones[1:])
        _inherit_cone_data(missing, f)
        assert len(missing._cone_dets) == len(f.max_cones) - 1
        assert not validate(missing).ok
        assert validate(missing) == validate(fresh(missing))


class TestFaces:
    def test_p2_dims(self):
        assert faces_of_dim(p2(), 1) == [(0,), (1,), (2,)]
        assert len(faces_of_dim(p2(), 2)) == 3
        assert faces_of_dim(p2(), 0) == [()]

    def test_b3_codim_one(self):
        assert len(faces_of_dim(b3(), 2)) == 9

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            faces_of_dim(p2(), 3)

    def test_every_ray_in_a_max_cone(self):
        for f in (p2(), p1xp1(), b3(), pn(4)):
            rays_seen = {i for c in f.max_cones for i in c}
            assert rays_seen == set(range(f.n_rays))


class TestWalls:
    def test_wall_neighbors_b3(self):
        # wall <v1, v2> joins the cones <v1,v2,v0> and <v1,v2,b>
        assert wall_neighbors(b3(), (0, 1)) == (3, 4)

    def test_not_a_wall(self):
        with pytest.raises(PreconditionError):
            wall_neighbors(b3(), (1, 2))  # a primitive collection, not a face

    @pytest.mark.parametrize("f", [b3(), fivefold(550), nonprojective_3fold()])
    def test_wall_order_does_not_matter(self, f):
        for wall in faces_of_dim(f, f.rank - 1):
            assert wall_relation(fresh(f), wall[::-1]) == wall_relation(f, wall) == wall_relation_reference(f, wall)

    @pytest.mark.parametrize("f", ZOO + [fivefold(550)])
    def test_memoised_relation_matches_fresh(self, f):
        for wall in faces_of_dim(f, f.rank - 1):
            alpha = wall_relation(f, wall)
            assert wall_relation(f, wall) is alpha  # served from the per-fan memo
            assert wall_relation(fresh(f), wall) == alpha == wall_relation_reference(f, wall)
            check_wall_relation(f, wall, alpha)

    @pytest.mark.parametrize(
        "f",
        [
            # the cone (r0, r1) has det 2
            LatticeFan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
            # unimodular overlapping cones: walls r0 and r2 each have both
            # their cones on one side
            LatticeFan(2, [(1, 0), (0, 1), (-1, 1)], [(0, 1), (0, 2), (1, 2)]),
        ],
    )
    def test_invalid_fan_is_rejected(self, f):
        report = validate(f)
        assert not report.ok
        for wall in faces_of_dim(f, 1):
            with pytest.raises(FanValidationError) as got:
                wall_relation(f, wall)
            assert str(got.value) == str(report)
        assert "wall_relations" not in f.__dict__

    @pytest.mark.parametrize("wall", [(0, 1, 0), (-1, 2), (0, 99), (1, 1)])
    def test_malformed_wall_is_rejected(self, wall):
        # b3 has rank 3 and 5 rays: a wall is 2 distinct indices in 0..4
        for query in (wall_relation, wall_neighbors):
            with pytest.raises(PreconditionError, match="distinct ray indices"):
                query(b3(), wall)

    @given(blown_up_fans())
    @settings(max_examples=30, deadline=None)
    def test_sweep_matches_per_host_relations(self, f):
        walls = faces_of_dim(f, f.rank - 1)
        assert f.wall_relations == {
            ray_mask(w): oracles.wall_relation_by_host(f, w) for w in walls
        } == {ray_mask(w): wall_relation_reference(f, w) for w in walls}

    @pytest.mark.parametrize(
        "f, k, j, error",
        [
            (b3(), 0, 1, ArithmeticError),
            (b3(), 1, 0, FanValidationError),
            (fivefold(550), 0, 3, ArithmeticError),
            (nonprojective_3fold(), 0, 2, ArithmeticError),
            (nonprojective_3fold(), 1, 0, FanValidationError),
        ],
    )
    def test_corrupted_start_inverse_fails_sweep_check(self, f, k, j, error):
        # mutation test: adding dual covector j of the one cone the sweep
        # starts from to covector k gives wrong coordinates; a crossing's -1
        # check or the closing check on the ray vectors rejects them, and
        # nothing is cached
        f = fresh(f)
        cone = f.max_cones[0]
        duals = list(f.dual_basis(cone))
        duals[k] = tuple(a + b for a, b in zip(duals[k], duals[j]))
        f._dual_bases[cone] = tuple(duals)
        with pytest.raises(error):
            f.wall_relations
        assert "wall_relations" not in f.__dict__

    def test_dual_basis_is_the_cone_inverse(self):
        f = fivefold(550)
        for cone in f.max_cones:
            duals = f.dual_basis(cone)
            assert f.dual_basis(cone) is duals
            for k, m in enumerate(duals):
                assert [lattice.dot(m, f.vector(j)) for j in cone] == [int(i == k) for i in range(f.rank)]

    def test_corrupted_cached_inverse_fails_check(self):
        # mutation test: the check that runs when an inverse is built
        # rejects a corrupted copy of a cached one
        f = b3()
        cone = f.max_cones[0]
        basis = [f.vector(i) for i in cone]
        inverse = [list(row) for row in zip(*f.dual_basis(cone))]
        lattice.check_inverse(basis, inverse)
        inverse[1][2] += 1
        with pytest.raises(ArithmeticError):
            lattice.check_inverse(basis, inverse)


class TestGLInvariance:
    """Metamorphic: a unimodular change of lattice basis is an isomorphism
    of toric varieties, so intersection numbers, wall classes and
    projectivity must not move."""

    @given(st.sampled_from(ZOO + [fivefold(550)]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_change_of_basis(self, f, data):
        g = transformed(f, data.draw(unimodular(f.rank, steps=10)))
        assert validate(g).ok
        walls = faces_of_dim(f, f.rank - 1)
        assert [wall_relation(g, w) for w in walls] == [wall_relation(f, w) for w in walls]
        assert is_projective(g) == is_projective(f)
        assert screen_2fano(g) == screen_2fano(f)
        projective, relations, witness = projectivity_witness(f)
        lattice.check_gordan_witness(projectivity_witness(g)[1], not projective, witness)

    @given(st.sampled_from(ZOO + [fivefold(550)]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_ray_permutation(self, f, data):
        new = data.draw(st.permutations(range(f.n_rays)))  # ray i of f is ray new[i] of g
        g = permuted(f, new)
        projective, relations, witness = projectivity_witness(f)
        g_relations = projectivity_witness(g)[1]
        assert is_projective(g) == projective

        def moved(vec):
            out = [0] * f.n_rays
            for i, x in enumerate(vec):
                out[new[i]] = x
            return tuple(out)

        assert set(g_relations) == {moved(a) for a in relations}
        if projective:
            moved_witness = moved(witness)
        else:
            position = {a: k for k, a in enumerate(g_relations)}
            moved_witness = [0] * len(g_relations)
            for a, c in zip(relations, witness):
                moved_witness[position[moved(a)]] = c
        lattice.check_gordan_witness(g_relations, not projective, moved_witness)


def relation_rows(f):
    return [(r.collection, r.focus, r.coefficients, r.degree, r.alpha) for r in primitive_relations(f)]


class TestRelationInvariance:
    """Metamorphic: the primitive relations are intrinsic to the fan, so a
    change of lattice basis keeps them, a ray permutation moves them by the
    permutation, and neither moves Fano-ness or m."""

    fans = st.one_of(st.sampled_from(ZOO + [fivefold(550)]), blown_up_fans())

    @given(fans, st.data())
    @settings(max_examples=40, deadline=None)
    def test_change_of_basis(self, f, data):
        g = transformed(f, data.draw(unimodular(f.rank, steps=10)))
        assert relation_rows(g) == relation_rows(f)
        assert is_fano(g) == is_fano(f)
        assert minimal_p_dimension(g) == minimal_p_dimension(f)

    @given(fans, st.data())
    @settings(max_examples=40, deadline=None)
    def test_ray_permutation(self, f, data):
        new = data.draw(st.permutations(range(f.n_rays)))
        g = permuted(f, new)

        def moved(r):
            alpha = [0] * f.n_rays
            for i, x in enumerate(r.alpha):
                alpha[new[i]] = x
            focus = sorted((new[i], mu) for i, mu in zip(r.focus, r.coefficients))
            return (
                tuple(sorted(new[i] for i in r.collection)),
                tuple(i for i, _ in focus),
                tuple(mu for _, mu in focus),
                r.degree,
                tuple(alpha),
            )

        assert sorted(relation_rows(g)) == sorted(moved(r) for r in primitive_relations(f))
        assert is_fano(g) == is_fano(f)
        assert minimal_p_dimension(g) == minimal_p_dimension(f)


class TestProjectivity:
    def test_projective_examples(self):
        assert is_projective(p2())
        assert is_projective(b3())
        assert is_projective(hirzebruch(2))

    def test_fan_of_a_point_is_projective(self):
        # no walls, so nothing to pair with: the empty divisor is ample
        assert projectivity_witness(LatticeFan(0, [], [()])) == (True, (), ())

    @pytest.mark.parametrize("f", ZOO + [hirzebruch(3)])
    def test_verdict_matches_fourier_motzkin(self, f):
        # every wall row, duplicates included, goes to the independent oracle
        rows = [wall_relation(f, w) for w in faces_of_dim(f, f.rank - 1)]
        assert is_projective(f) == fm_feasible(rows)

    @pytest.mark.parametrize("f", ZOO + [fivefold(550), sixfold(333)])
    def test_projected_and_full_rows_agree(self, f):
        projective, relations, witness = projectivity_witness(f)
        assert lattice.has_nonnegative_kernel(relations) == (not projective)
        off = [v for v in range(f.n_rays) if v not in f.max_cones[0]]
        projected = [tuple(a[v] for v in off) for a in relations]
        assert len(set(projected)) == len(relations)
        assert lattice.has_nonnegative_kernel(projected) == (not projective)
        lattice.check_gordan_witness(relations, not projective, witness)
        if projective:
            assert all(witness[v] == 0 for v in f.max_cones[0])
            walls = faces_of_dim(f, f.rank - 1)
            assert all(lattice.dot(wall_relation(f, w), witness) >= 1 for w in walls)

    @pytest.mark.parametrize("f", [b3(), nonprojective_3fold()])
    def test_full_relations_check_the_lp(self, f, monkeypatch):
        # an LP answer that is wrong on the full wall relations is caught by
        # is_projective's own check, not returned
        real = lattice.gordan_witness

        def corrupted(rows):
            kernel, witness = real(rows)
            if kernel:
                return True, tuple(c + 1 for c in witness)
            return False, (0,) * len(witness)

        monkeypatch.setattr(lattice, "gordan_witness", corrupted)
        with pytest.raises(ArithmeticError):
            is_projective(f)

    def test_appendix_fivefold_projective(self):
        assert is_projective(fivefold(550))

    def test_nonprojective_threefold(self):
        from fixtures import nonprojective_3fold

        f = nonprojective_3fold()
        assert validate(f).ok
        assert not is_projective(f)

    def test_nonprojective_certificate_by_hand(self):
        # independent of the LP: the classes of the three twisted wall curves
        # sum to zero, and an ample divisor would pair positively with each
        from fixtures import nonprojective_3fold
        from oracles import wall_curve_class

        f = nonprojective_3fold()
        lab = f.label_index
        walls = [
            (lab["v3"], lab["w1"]),
            (lab["v1"], lab["w2"]),
            (lab["v2"], lab["w3"]),
        ]
        alphas = [wall_curve_class(f, tuple(sorted(w))).alpha for w in walls]
        total = [sum(col) for col in zip(*alphas)]
        assert all(t == 0 for t in total)

    def test_flops_of_projective_tower_stay_detectable(self):
        # the fixture is reachable from a projective blowup tower by flops;
        # its flop partner obtained by reversing one twist is projective again
        from fixtures import nonprojective_3fold
        from toricfans.birational import FlipSpec, flip
        from toricfans.primitive import primitive_relation

        f = nonprojective_3fold()
        rel = primitive_relation(f, tuple(sorted((f.label_index["v1"], f.label_index["w3"]))))
        assert rel.degree == 0
        g = flip(f, FlipSpec(rel))
        assert validate(g).ok and is_projective(g)


def test_fan_equality_and_labels():
    f = b3()
    assert f == b3()
    assert f != p3()
    relabeled = LatticeFan(f.rank, [r.vector for r in f.rays], f.max_cones, ["a"] * 5)
    assert relabeled != f
    assert relabeled.ray_label(0) == "a"
