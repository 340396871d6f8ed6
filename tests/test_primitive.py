from itertools import combinations

import pytest
from hypothesis import given, settings

from toricfans.errors import FanValidationError, PreconditionError
from toricfans.fan import spans_cone
from toricfans.primitive import (
    bundle_locus,
    centered_collections,
    decompose_relation,
    is_fano,
    is_primitive_collection,
    minimal_p_dimension,
    opponents,
    primitive_collections,
    primitive_relation,
    primitive_relations,
    relevant_collections,
)

from fixtures import (
    B3_CENTERED,
    b3,
    centered_of,
    double_cover_surface,
    fan_2268,
    fivefold,
    hirzebruch,
    p1xp1,
    p2,
    pn,
    rel_of,
    small_zoo,
)
import oracles
from test_enumerator import blown_up_fans
from test_fan import fresh


class TestCollections:
    def test_p2(self):
        assert primitive_collections(p2()) == [(0, 1, 2)]

    def test_b3(self):
        f = b3()
        got = [f.cone_labels(p) for p in primitive_collections(f)]
        assert got == [("v2", "v3"), ("v1", "v0", "b")]

    def test_p1xp1(self):
        assert primitive_collections(p1xp1()) == [(0, 1), (2, 3)]

    @pytest.mark.parametrize(
        "name,fan",
        [(n, f) for n, f, _, __ in small_zoo()]
        + [("(5,550)", fivefold(550)), ("(6,2268)", fan_2268())],
    )
    def test_duality(self, name, fan):
        # a set spans a cone iff it contains no primitive collection,
        # exhaustively in both directions (all fans here have <= 12 rays)
        pcs = [set(p) for p in primitive_collections(fan)]
        for size in range(1, fan.n_rays + 1):
            for sub in combinations(range(fan.n_rays), size):
                expected = not any(pc <= set(sub) for pc in pcs)
                assert spans_cone(fan, sub) == expected


class TestRelations:
    def test_p2_centered(self):
        r = primitive_relation(p2(), (0, 1, 2))
        assert r.focus == () and r.degree == 3 and r.alpha == (1, 1, 1)

    def test_b3_exceptional_pair(self):
        f = b3()
        r = primitive_relation(f, (1, 2))  # v2 + v3
        assert f.cone_labels(r.focus) == ("b",)
        assert r.coefficients == (1,) and r.degree == 1
        assert r.alpha == (0, 1, 1, 0, -1)

    def test_b3_centered(self):
        r = primitive_relation(b3(), B3_CENTERED)
        assert r.focus == () and r.degree == 3

    def test_rejects_non_collection(self):
        with pytest.raises(PreconditionError):
            primitive_relation(p2(), (0, 1))

    @pytest.mark.parametrize("f", [b3(), fivefold(550), fan_2268()])
    def test_memoised_per_fan(self, f):
        for p in primitive_collections(f):
            rel = primitive_relation(f, p)
            assert primitive_relation(f, reversed(p)) is rel  # served from the per-fan memo
            assert primitive_relation(fresh(f), p) == rel
        assert [r.collection for r in primitive_relations(f)] == primitive_collections(f)
        with pytest.raises(PreconditionError):  # a non-collection is never memoised
            primitive_relation(f, f.max_cones[0])

    @pytest.mark.parametrize("name,fan,_,__", small_zoo())
    def test_invariants(self, name, fan, _, __):
        for r in primitive_relations(fan):
            # weighted ray sum vanishes
            total = [0] * fan.rank
            for i, c in enumerate(r.alpha):
                for d, x in enumerate(fan.vector(i)):
                    total[d] += c * x
            assert all(t == 0 for t in total)
            assert set(r.collection).isdisjoint(r.focus)
            assert r.degree == sum(r.alpha)


class TestFano:
    @pytest.mark.parametrize("name,fan,fano,_", small_zoo())
    def test_zoo(self, name, fan, fano, _):
        assert is_fano(fan) == fano, name

    def test_f2_degree_zero(self):
        f = hirzebruch(2)
        degs = sorted(r.degree for r in primitive_relations(f))
        assert degs[0] == 0


class TestMinimalPDimension:
    @pytest.mark.parametrize("name,fan,_,m", small_zoo())
    def test_zoo(self, name, fan, _, m):
        assert minimal_p_dimension(fan) == m, name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_projective_space(self, n):
        assert minimal_p_dimension(pn(n)) == n

    def test_none_without_centered_collection(self):
        # proper non-projective fans may have no centered collection at all;
        # the signal is None, not an exception
        from fixtures import nonprojective_3fold

        f = nonprojective_3fold()
        assert centered_collections(f) == []
        assert minimal_p_dimension(f) is None


class TestOpponents:
    def test_p1xp1(self):
        assert opponents(p1xp1(), 0) == [1]

    def test_p2_none(self):
        assert all(opponents(p2(), i) == [] for i in range(3))

    def test_fivefold_x1(self):
        f = fivefold(550)
        assert opponents(f, f.label_index["x1"]) == [f.label_index["a"]]

    @given(blown_up_fans())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_spans_cone_scan(self, f):
        for ray in range(f.n_rays):
            assert opponents(f, ray) == oracles.opponents(f, ray)

    def test_at_most_one_opponent_on_fano_m2(self):
        for f in (b3(), fivefold(550), fivefold(659), fivefold(708)):
            assert is_fano(f) and minimal_p_dimension(f) >= 2
            for i in range(f.n_rays):
                assert len(opponents(f, i)) <= 1

    def test_no_double_focus_shape_on_fano_m2(self):
        # on a Fano fan of minimal P-dimension 2, no relevant relation has a
        # doubled focus ray (shape x_i + x_j + a = 2b)
        for f in (b3(), fivefold(550), fivefold(659), fivefold(708)):
            assert minimal_p_dimension(f) == 2
            for cent in centered_collections(f):
                if len(cent) != 3:
                    continue
                for _, tag, _rel in relevant_collections(f, cent):
                    assert tag != "type4"


class TestBundleLocus:
    def test_b3_empty(self):
        cones, codim = bundle_locus(b3(), B3_CENTERED)
        assert cones == [] and codim is None

    def test_fivefold_divisorial(self):
        f = fivefold(550)
        cones, codim = bundle_locus(f, centered_of(f, ("x0", "x1", "x2")))
        assert codim == 1
        names = {f.cone_labels(c) for c in cones if len(c) == 1}
        assert {("a",), ("b",), ("c",)} <= names

    def test_rejects_non_centered(self):
        with pytest.raises(PreconditionError):
            bundle_locus(b3(), (1, 2))


class TestRelevant:
    def test_fivefold_type1(self):
        f = fivefold(550)
        rels = relevant_collections(f, centered_of(f, ("x0", "x1", "x2")))
        tags = sorted((f.cone_labels(q), tag) for q, tag, _ in rels)
        assert tags == [
            (("x0", "c"), "type1"),
            (("x1", "a"), "type1"),
            (("x2", "b"), "type1"),
        ]

    def test_b3_empty(self):
        assert relevant_collections(b3(), B3_CENTERED) == []

    @pytest.mark.parametrize(
        "f,labels", [(fivefold(550), ("x0", "x1", "x2")), (fan_2268(), ("x0", "x1", "x2", "x3"))]
    )
    def test_memoised_per_fan(self, f, labels):
        cent = centered_of(f, labels)
        rels = relevant_collections(f, cent)
        rels.clear()  # the caller's list; the memo keeps its own
        again = relevant_collections(f, tuple(reversed(cent)))
        assert again and again == relevant_collections(fresh(f), cent)
        assert relevant_collections(f, cent) is not again
        with pytest.raises(PreconditionError):  # checked again on a miss
            relevant_collections(f, cent[1:])

    def test_cover_of_degree_two_is_not_memoised(self):
        f = double_cover_surface()
        for _ in range(2):
            with pytest.raises(FanValidationError, match="wind more than once"):
                relevant_collections(f, (0, 2))
        assert f._relevant_collections == {}

    def test_2268_tags(self):
        f = fan_2268()
        rels = relevant_collections(f, centered_of(f, ("x0", "x1", "x2", "x3")))
        tags = {tuple(sorted(f.cone_labels(q))): tag for q, tag, _ in rels}
        assert tags == {
            ("a", "x0", "x1", "x2"): "type6",
            ("b", "x0", "x1", "x2"): "type8",
        }

    def test_generic_descriptor_above_m3(self):
        # an order-5 centered collection falls back to the shape descriptor
        f = pn(4)
        rels = relevant_collections(f, tuple(range(5)))
        assert rels == []  # no relevant collections on P4, but the tagger is
        # exercised through lower-m fans; descriptor format checked directly:
        from toricfans.primitive import relevant_type_tag, PrimitiveRelation

        fake = PrimitiveRelation((0, 1), (2,), (2,), 0, (1, 1, -2, 0, 0))
        assert relevant_type_tag(4, fake) == "order2:rhs(2)"


class TestDecompose:
    def test_unit_vector(self):
        f = fivefold(550)
        s0 = rel_of(f, ("x0", "c"))
        lam = decompose_relation(f, s0, [s0])
        assert lam == (1,)

    def test_appendix_decompositions(self):
        f = fivefold(550)
        basis = [rel_of(f, p) for p in (("x0", "c"), ("x1", "a"), ("x2", "b"), ("u", "v"), ("b", "y1", "y2"))]
        assert decompose_relation(f, rel_of(f, ("x0", "x1", "x2")), basis) == (1, 1, 1, 0, 0)
        assert decompose_relation(f, rel_of(f, ("c", "y1", "y2")), basis) == (1, 1, 0, 0, 1)
        assert decompose_relation(f, rel_of(f, ("a", "y1", "y2")), basis) == (0, 1, 0, 0, 1)

    def test_2268_with_coefficient_two(self):
        f = fan_2268()
        extremal = [rel_of(f, p) for p in (
            ("x3", "y1", "a"), ("y2", "y3", "a"),
            ("x0", "x1", "x2", "a"), ("y0", "b"),
        )]
        sx = rel_of(f, ("x0", "x1", "x2", "x3"))
        lam = decompose_relation(f, sx, extremal)
        # s_x = r6 + p + 2*alpha
        assert lam == (1, 0, 1, 2)

    def test_none_when_impossible(self):
        f = p1xp1()
        r0 = primitive_relation(f, (0, 1))
        r1 = primitive_relation(f, (2, 3))
        assert decompose_relation(f, r1, [r0]) is None


def test_is_primitive_collection_direct():
    f = b3()
    assert is_primitive_collection(f, (1, 2))
    assert not is_primitive_collection(f, (0, 1))
    assert not is_primitive_collection(f, (0, 1, 2))
