import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from toricfans.birational import (
    BlowdownSpec,
    FlipSpec,
    blowup,
    contract,
    flip,
    is_contractible,
    multi_flip,
    reverse_spec,
    _flip_by_surgery,
)
from toricfans import birational
from toricfans.errors import ContractionError, DisjointnessError, FlipError, PreconditionError
from toricfans.fan import spans_cone, star_subdivision, validate
from toricfans.primitive import (
    primitive_collections,
    primitive_relation,
    primitive_relations,
    relevant_collections,
)

from fixtures import (
    b3,
    bl_pt_p2,
    blowdown_tower,
    fan_2170,
    fan_2268,
    fivefold,
    flip_fixture_4d,
    flip_fixture_6d,
    p1xp1,
    p2,
    p3,
    pn,
    product_fan,
    rel_of,
)
from oracles import pc_after_blowdown, pc_after_blowup
from test_enumerator import blown_up_fans
from test_fan import assert_cone_data_exact, counting_determinants, fresh, new_cones, warm


class TestContractible:
    def test_bl_pt_p2(self):
        f = bl_pt_p2()
        assert is_contractible(f, primitive_relation(f, (0, 1)))

    def test_p2_centered(self):
        f = p2()
        assert is_contractible(f, primitive_relation(f, (0, 1, 2)))

    def test_2170_not_contractible(self):
        f = fan_2170()
        assert not is_contractible(f, rel_of(f, ("x0", "x1", "b")))
        assert not is_contractible(f, rel_of(f, ("x2", "x3", "a")))

    def test_2268_r8_not_contractible(self):
        f = fan_2268()
        assert not is_contractible(f, rel_of(f, ("x0", "x1", "x2", "b")))

    def test_appendix_extremal_contractible(self):
        f = fivefold(550)
        for labels in (("x0", "c"), ("x1", "a"), ("x2", "b"), ("u", "v"), ("b", "y1", "y2")):
            assert is_contractible(f, rel_of(f, labels)), labels


class TestContract:
    def test_b3_to_p3(self):
        f = b3()
        out = contract(f, BlowdownSpec(primitive_relation(f, (1, 2))))
        assert out == p3()

    def test_bl_pt_p2_to_p2(self):
        f = bl_pt_p2()
        out = contract(f, BlowdownSpec(primitive_relation(f, (0, 1))))
        assert out.max_cones == p2().max_cones
        assert tuple(r.vector for r in out.rays) == tuple(r.vector for r in p2().rays)

    def test_centered_relation_is_not_a_blowdown(self):
        f = p2()
        with pytest.raises(PreconditionError):
            BlowdownSpec(primitive_relation(f, (0, 1, 2)))


class TestBlowup:
    def test_p3_to_b3(self):
        out, rel = blowup(p3(), (1, 2), label="b")
        assert out == b3()
        assert rel.degree == 1

    def test_b3_secondary(self):
        out, rel = blowup(b3(), (1, 3))
        assert out.rays[-1].vector == (-1, 0, -1)
        pcs = {out.cone_labels(p) for p in primitive_collections(out)}
        assert ("v2", "v0") in pcs

    def test_size_one_error(self):
        with pytest.raises(PreconditionError):
            blowup(p3(), (1,))


def _random_centers(fan, rng, count):
    out = []
    for _ in range(count):
        cone = rng.choice(fan.max_cones)
        size = rng.randint(2, fan.rank)
        out.append(tuple(sorted(rng.sample(cone, size))))
    return out


class TestRoundTripsAndTransfer:
    def test_contract_blowup_identity_randomized(self):
        rng = random.Random(20240811)
        fans = [p2(), p1xp1(), p3(), b3(), pn(4), bl_pt_p2(), fivefold(550)]
        done = 0
        while done < 50:
            fan = rng.choice(fans)
            (center,) = _random_centers(fan, rng, 1)
            up, rel = blowup(fan, center)
            down = contract(up, BlowdownSpec(rel))
            assert down == fan
            done += 1

    def test_pc_transfer_matches_both_rules(self):
        rng = random.Random(99)
        fans = [p3(), b3(), pn(4), fivefold(550), fivefold(708)]
        for fan in fans:
            for center in _random_centers(fan, rng, 4):
                up, rel = blowup(fan, center)
                z = up.n_rays - 1
                pcs_up = {frozenset(p) for p in primitive_collections(up)}
                pcs_down = {frozenset(p) for p in primitive_collections(fan)}
                assert pcs_up == pc_after_blowup(pcs_down, center, z)
                # and back down again via the blowdown rule
                recovered = pc_after_blowdown(pcs_up, set(center), z)
                assert recovered == pcs_down

    def test_alpha_contract_transfer(self):
        # contracting the exceptional relation of the 2268 fan matches the rule
        f = fan_2268()
        alpha = rel_of(f, ("y0", "b"))
        out = contract(f, BlowdownSpec(alpha))
        z = alpha.focus[0]
        tbar = set(alpha.collection)
        names_out = {frozenset(out.cone_labels(p)) for p in primitive_collections(out)}
        expected = pc_after_blowdown(
            [frozenset(f.cone_labels(p)) for p in primitive_collections(f)],
            frozenset(f.cone_labels(tuple(tbar))),
            f.ray_label(z),
        )
        assert names_out == expected


class TestFlip:
    def test_4d_fixture_round_trip(self):
        y, xp, cent = flip_fixture_4d()
        rel = next(r for _, _, r in relevant_collections(xp, cent))
        spec = FlipSpec(rel)
        flipped = flip(xp, spec)
        assert flipped == y
        # reverse flip returns to xp
        assert flip(flipped, reverse_spec(flipped, spec)) == xp

    def test_flip_preserves_rays(self):
        y, xp, cent = flip_fixture_4d()
        rel = next(r for _, _, r in relevant_collections(xp, cent))
        out = flip(xp, FlipSpec(rel))
        assert tuple(r.vector for r in out.rays) == tuple(r.vector for r in xp.rays)

    def test_surgery_equals_blowup_contract(self):
        y, xp, cent = flip_fixture_4d()
        rel = next(r for _, _, r in relevant_collections(xp, cent))
        assert _flip_by_surgery(xp, FlipSpec(rel)) == flip(xp, FlipSpec(rel))

    def test_2268_r8_flip(self):
        f = fan_2268()
        x1 = contract(f, BlowdownSpec(rel_of(f, ("y0", "b"))))
        r8 = rel_of(x1, ("x0", "x1", "x2", "b"))
        x2 = flip(x1, FlipSpec(r8))
        rels = {r.describe(x2) for r in primitive_relations(x2)}
        assert rels == {
            "x0 + x1 + x2 + x3 = 0",
            "y0 + y1 = x0 + x1 + x2 + b",
            "y2 + y3 + b = x3",
        }
        assert is_contractible(x2, rel_of(x2, ("x0", "x1", "x2", "x3")))
        # flip of the reversed relation recovers x1
        assert flip(x2, reverse_spec(x2, FlipSpec(r8))) == x1

    def test_coefficient_two_rejected(self):
        f = fan_2268()
        r6 = rel_of(f, ("x0", "x1", "x2", "a"))  # rhs coefficient 2
        with pytest.raises(PreconditionError):
            FlipSpec(r6)


class TestMultiFlip:
    def test_empty_is_identity(self):
        y, xp, cent = flip_fixture_4d()
        assert multi_flip(xp, []) == xp

    def test_singleton_equals_flip(self):
        y, xp, cent = flip_fixture_4d()
        rel = next(r for _, _, r in relevant_collections(xp, cent))
        assert multi_flip(xp, [FlipSpec(rel)]) == flip(xp, FlipSpec(rel))

    def test_permutation_invariance(self):
        y, xp, cent = flip_fixture_6d()
        specs = [FlipSpec(r) for _, _, r in relevant_collections(xp, cent)]
        assert len(specs) == 2
        results = {multi_flip(xp, list(order)) for order in permutations(specs)}
        assert len(results) == 1
        assert results.pop() == y

    def test_overlapping_centers_rejected(self):
        _, xp, _ = flip_fixture_4d()
        prod = product_fan(xp, xp)
        left = primitive_relation(
            prod, tuple(sorted(prod.label_index[t] for t in ("x0L", "x1L", "aL")))
        )
        right = primitive_relation(
            prod, tuple(sorted(prod.label_index[t] for t in ("x0R", "x1R", "aR")))
        )
        assert spans_cone(prod, set(left.focus) | set(right.focus))
        with pytest.raises(DisjointnessError):
            multi_flip(prod, [FlipSpec(left), FlipSpec(right)])


def test_contractibility_descends_through_blowup():
    # a collection contractible upstairs and present on both sides stays
    # contractible downstairs, spot-checked on the b3 tower
    f = b3()
    up, _ = blowup(f, (0, 1))
    up_pcs = {frozenset(p) for p in primitive_collections(up)}
    down_pcs = {frozenset(p) for p in primitive_collections(f)}
    for p in up_pcs & down_pcs:
        rel_up = primitive_relation(up, tuple(sorted(p)))
        if is_contractible(up, rel_up):
            rel_down = primitive_relation(f, tuple(sorted(p)))
            assert is_contractible(f, rel_down)


def _blowdowns(f):
    return [
        r for r in primitive_relations(f)
        if len(r.focus) == 1 and r.coefficients == (1,) and is_contractible(f, r)
    ]


def _flips(f):
    return [
        r for r in primitive_relations(f)
        if len(r.collection) >= 2 and len(r.focus) >= 2 and set(r.coefficients) == {1}
        and is_contractible(f, r)
    ]


class TestInheritedConeData:
    """Surgery outputs start with the determinants and dual bases of the
    cones they keep; each must be the value of a fresh fan."""

    # fan_2268, fivefold(550) and the tower have blowdowns of a ray below
    # others, so the kept cones' indices shift
    @pytest.mark.parametrize(
        "fan", [b3(), bl_pt_p2(), fan_2268(), fivefold(550), blowdown_tower()[1]]
    )
    def test_every_blowdown_hands_over_kept_cones(self, fan):
        rels = _blowdowns(fan)
        assert rels
        for rel in rels:
            warm(fan)
            with counting_determinants() as det:
                out = contract(fan, BlowdownSpec(rel))
            assert len(det) == len(new_cones(fan, out))
            assert_cone_data_exact(fan, out)

    @pytest.mark.parametrize("name", ["4d", "6d", "2268"])
    def test_flip_outputs_hand_over_kept_cones(self, name):
        if name == "2268":
            f = fan_2268()
            f = contract(f, BlowdownSpec(rel_of(f, ("y0", "b"))))
            rels = [rel_of(f, ("x0", "x1", "x2", "b"))]
        else:
            _, f, cent = flip_fixture_4d() if name == "4d" else flip_fixture_6d()
            rels = [r for _, _, r in relevant_collections(f, cent)]
        for rel in rels:
            warm(f)
            mid = star_subdivision(f, rel.focus)
            with counting_determinants() as det:
                out = flip(f, FlipSpec(rel))
            # the new cones of the blowup, of the blowdown and of the
            # surgery output, which reads only its kept cones' from f
            assert len(det) == len(new_cones(f, mid)) + len(new_cones(mid, out)) + len(new_cones(f, out))
            assert_cone_data_exact(f, out)
            surgery = _flip_by_surgery(f, FlipSpec(rel))
            assert set(surgery._cone_dets) == set(surgery.max_cones)
            assert_cone_data_exact(f, surgery)

    @given(
        blown_up_fans(),
        st.lists(
            st.tuples(st.sampled_from(["blowup", "contract", "flip"]), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_surgery_sequences(self, fan, steps):
        cur = fan
        for kind, pick, size_pick in steps:
            if size_pick % 3:
                warm(cur)  # otherwise only what earlier steps left behind
            if kind == "blowup":
                if cur.n_rays >= 16:
                    continue
                cone = cur.max_cones[pick % len(cur.max_cones)]
                out = star_subdivision(cur, cone[: 2 + size_pick % (cur.rank - 1)])
            else:
                rels = _blowdowns(cur) if kind == "contract" else _flips(cur)
                if not rels:
                    continue
                rel = rels[pick % len(rels)]
                out = contract(cur, BlowdownSpec(rel)) if kind == "contract" else flip(cur, FlipSpec(rel))
            assert_cone_data_exact(cur, out)
            cur = out

    def test_invalid_contraction_output_reports_as_fresh(self, monkeypatch):
        # drop one merged cone before the output is built: the output is
        # invalid, and its report is that of a fan with empty caches
        built = []
        drop_ray = birational._drop_ray

        def dropping(f, removed, cones):
            built.append(drop_ray(f, removed, sorted(cones)[1:]))
            return built[-1]

        monkeypatch.setattr(birational, "_drop_ray", dropping)
        f, _ = blowup(b3(), (0, 1))
        warm(f)
        with pytest.raises(ContractionError) as err:
            contract(f, BlowdownSpec(primitive_relation(f, (0, 1))))
        (out,) = built
        assert out._cone_dets
        assert str(err.value) == f"contraction output invalid: {validate(fresh(out))}"

    def test_invalid_surgery_output_reports_as_fresh(self, monkeypatch):
        _, xp, cent = flip_fixture_4d()
        rel = next(r for _, _, r in relevant_collections(xp, cent))
        warm(xp)
        built = []
        fan_class = birational.LatticeFan

        def short(rank, rays, cones):
            built.append(fan_class(rank, rays, cones[:-1]))
            return built[-1]

        monkeypatch.setattr(birational, "LatticeFan", short)
        with pytest.raises(FlipError) as err:
            _flip_by_surgery(xp, FlipSpec(rel))
        (out,) = built
        assert out._cone_dets
        assert str(err.value) == f"surgery output invalid: {validate(fresh(out))}"
