import pytest
from hypothesis import assume, given, settings, strategies as st

from toricfans import birational, pipeline
from toricfans.birational import BlowdownSpec, contract, blowup
from toricfans.fan import LatticeFan
from toricfans.errors import PipelineError, PreconditionError, UnsupportedError
from toricfans.pipeline import (
    detect_exceptional,
    diagnose_m3,
    replay,
    run_step1,
    verify_output,
)
from toricfans.primitive import (
    centered_collections,
    is_fano,
    primitive_collections,
    primitive_relations,
    relevant_collections,
)

from fixtures import (
    B3_CENTERED,
    b3,
    centered_of,
    fan_2170,
    fan_2268,
    fivefold,
    flip_fixture_4d,
    flip_fixture_6d,
    m3_exceptional,
    p2,
    rel_of,
    sixfold,
)
from test_enumerator import blown_up_fans


#: every PipelineError.kind that run_step1 raises
KINDS = {
    "dimension", "m-dimension", "not-fano", "contractibility", "contraction", "opponents",
    "stability", "type", "blowdown-budget", "disjointness", "flip", "verification",
}


class TestDetectExceptional:
    def test_fivefold_cycle(self):
        f = fivefold(550)
        exc = detect_exceptional(f, centered_of(f, ("x0", "x1", "x2")))
        assert exc is not None and exc.pattern == "cyclic3"
        assert [r.describe(f) for r in exc.relations] == [
            "x0 + c = a",
            "x1 + a = b",
            "x2 + b = c",
        ]
        assert exc.positions == (0, 1, 2)

    def test_b3_none(self):
        assert detect_exceptional(b3(), B3_CENTERED) is None

    def test_chains_need_distinct_positions(self):
        from toricfans.pipeline import _chains

        # (position, aux, rhs, relation): 0: x0 + a = b, 1: x0 + b = c,
        # 2: x1 + c = a, 3: x2 + b = c; only 0 -> 3 -> 2 uses three x's
        ones = [(0, 10, 11, 0), (0, 11, 12, 1), (1, 12, 10, 2), (2, 11, 12, 3)]
        assert [tuple(t[3] for t in c) for c in _chains(ones, 3)] == [(0, 3, 2), (2, 0, 3), (3, 2, 0)]
        assert [tuple(t[3] for t in c) for c in _chains(ones, 2, aux=12, used=(2,))] == [(2, 0)]

    def test_sixfold_cycle(self):
        f = sixfold(276)
        assert detect_exceptional(f, centered_of(f, ("x0", "x1", "x2"))).pattern == "cyclic3"

    def test_unsupported_order(self):
        from fixtures import pn

        f = pn(5)
        with pytest.raises(UnsupportedError):
            detect_exceptional(f, tuple(range(6)))

    def test_m3_cyclic_pattern(self):
        from fixtures import m3_exceptional

        f = m3_exceptional("cyclic4")
        exc = detect_exceptional(f, centered_of(f, ("x0", "x1", "x2", "x3")))
        assert exc is not None and exc.pattern == "cyclic4"
        assert [r.describe(f) for r in exc.relations] == [
            "x0 + d = a",
            "x1 + a = b",
            "x2 + b = c",
            "x3 + c = d",
        ]

    def test_m3_pair_pattern(self):
        # relation multiset {x1+x2+a=b, x3+b=c, x0+c=a} matches the
        # order-3-plus-two-cycles pattern
        from fixtures import m3_exceptional

        f = m3_exceptional("pair4")
        exc = detect_exceptional(f, centered_of(f, ("x0", "x1", "x2", "x3")))
        assert exc is not None and exc.pattern == "pair4"
        shapes = sorted(len(r.collection) for r in exc.relations)
        assert shapes == [2, 2, 3]


def relabelled(f, order):
    """f with ray i moved to index order[i]."""
    rays = [None] * f.n_rays
    for i, ray in enumerate(f.rays):
        rays[order[i]] = ray
    return LatticeFan(f.rank, rays, [[order[i] for i in c] for c in f.max_cones])


def labelled(f, rel):
    """A relation as (collection labels, focus labels with coefficients),
    each sorted by label."""
    lhs = sorted(f.ray_label(i) for i in rel.collection)
    return lhs, sorted((f.ray_label(i), mu) for i, mu in zip(rel.focus, rel.coefficients))


EXCEPTIONAL_FIXTURES = [
    (fivefold(550), ("x0", "x1", "x2")),
    (m3_exceptional("cyclic4"), ("x0", "x1", "x2", "x3")),
    (m3_exceptional("pair4"), ("x0", "x1", "x2", "x3")),
]


@pytest.mark.parametrize("f,labels", EXCEPTIONAL_FIXTURES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_exceptional_pattern_survives_relabelling(f, labels, data):
    # a random ray permutation that keeps the centered rays in their order,
    # so that positions inside the centered collection keep their meaning
    order = data.draw(st.permutations(range(f.n_rays)))
    xs = centered_of(f, labels)
    for i, target in zip(xs, sorted(order[i] for i in xs)):
        order[i] = target
    g = relabelled(f, order)
    want = detect_exceptional(f, xs)
    got = detect_exceptional(g, centered_of(g, labels))
    assert got.pattern == want.pattern
    assert got.positions == want.positions
    if got.pattern == "cyclic3":
        # the first closed chain in sorted order already starts at its
        # smallest position, with no rotation
        assert got.positions[0] == min(got.positions)
    # the same relations in the same order; describe() lists terms by index
    assert [labelled(g, r) for r in got.relations] == [labelled(f, r) for r in want.relations]


class TestRunStep1:
    def test_non_contractible_blowdown_keeps_its_kind(self, monkeypatch):
        # no corpus fan reaches this branch: contract's own contractibility
        # precondition surfaces as the pipeline's "contractibility" kind
        monkeypatch.setattr(birational, "is_contractible", lambda f, rel: False)
        f = fivefold(550)
        with pytest.raises(PipelineError) as err:
            run_step1(f, centered_of(f, ("x0", "x1", "x2")))
        assert err.value.kind == "contractibility"
        assert "is not contractible" in str(err.value)

    def test_later_flip_not_contractible_keeps_its_kind(self, monkeypatch):
        # the second flip's relation stops being contractible once the first
        # flip has been made: flip's own precondition, raised inside
        # multi_flip, surfaces as the pipeline's "contractibility" kind
        _, xp, cent = flip_fixture_6d()
        second = sorted(relevant_collections(xp, cent), key=lambda t: t[0])[1][2]
        real = birational.is_contractible

        def patched(f, rel):
            if f != xp and rel.alpha == second.alpha:
                return False
            return real(f, rel)

        monkeypatch.setattr(birational, "is_contractible", patched)
        with pytest.raises(PipelineError) as err:
            run_step1(xp, cent)
        assert err.value.kind == "contractibility"
        assert "is not contractible" in str(err.value)

    def test_flip_phase_moving_a_ray_is_a_verification_error(self, monkeypatch):
        # flip itself rejects a moved ray first, so the pipeline's own check
        # is reached through a multi_flip that swaps the first two rays
        _, xp, cent = flip_fixture_6d()
        real = pipeline.multi_flip

        def moved(f, specs):
            y = real(f, specs)
            swap = [1, 0] + list(range(2, y.n_rays))
            return LatticeFan(y.rank, [y.vector(i) for i in swap], [[swap[i] for i in c] for c in y.max_cones])

        monkeypatch.setattr(pipeline, "multi_flip", moved)
        with pytest.raises(PipelineError) as err:
            run_step1(xp, cent)
        assert err.value.kind == "verification"
        assert "flip phase changed the ray set" in str(err.value)

    def test_log_keeps_the_passed_report(self):
        _, xp, cent = flip_fixture_6d()
        out, log = run_step1(xp, cent)
        assert log.report.ok
        assert log.report == verify_output(out, tuple(out.vector_index[v] for v in log.x_vectors))

    def test_b3_identity(self):
        f = b3()
        y, log = run_step1(f, B3_CENTERED)
        assert y == f and log.steps == ()

    @pytest.mark.parametrize("mid", [550, 659, 708])
    def test_fivefolds_exceptional(self, mid):
        f = fivefold(mid)
        cent = centered_of(f, ("x0", "x1", "x2"))
        y, log = run_step1(f, cent)
        kinds = [s.kind for s in log.steps]
        assert kinds == ["exceptional_pair"]
        step = log.steps[0]
        assert (step.i, step.j) == (1, 0)
        assert step.parameter_ray_label == "c"
        rep = verify_output(y, tuple(y.vector_index[v] for v in log.x_vectors))
        assert rep.ok
        assert replay(log) == y

    @pytest.mark.parametrize("mid", [276, 333, 338])
    def test_sixfolds_exceptional(self, mid):
        f = sixfold(mid)
        y, log = run_step1(f, centered_of(f, ("x0", "x1", "x2")))
        assert [s.kind for s in log.steps] == ["exceptional_pair"]
        assert is_fano(y)

    def test_blowup_of_b3_round_trip(self):
        base = b3()
        up, _ = blowup(base, (1, 3))  # center <v2, v0>
        assert not is_fano(up)  # every such blowup carries a degree-0 relation
        cent = tuple(sorted(up.label_index[x] for x in ("v1", "v0", "b")))
        with pytest.raises(PipelineError):
            run_step1(up, cent)  # default requires a Fano input
        y, log = run_step1(up, cent, require_fano=False)
        assert y == base
        assert [s.kind for s in log.steps] == ["blowdown"]

    def test_flip_fixture_single(self):
        y, xp, cent = flip_fixture_4d()
        out, log = run_step1(xp, cent)
        assert out == y
        assert [s.kind for s in log.steps] == ["flip"]
        assert (log.steps[0].i, log.steps[0].j) == (0, 1)
        assert log.steps[0].parameter_ray_label == "a"

    def test_flip_fixture_double(self):
        y, xp, cent = flip_fixture_6d()
        out, log = run_step1(xp, cent)
        assert out == y
        assert [s.kind for s in log.steps] == ["flip", "flip"]
        assert {(s.i, s.j) for s in log.steps} == {(0, 1), (0, 2)}

    def test_three_blowdowns_non_exceptional(self):
        from fixtures import blowdown_tower

        y0, f, cent = blowdown_tower()
        assert is_fano(f)
        assert detect_exceptional(f, cent) is None
        rels = relevant_collections(f, cent)
        assert sorted(tag for _, tag, _ in rels) == ["type1"] * 3 + ["type3"] * 3
        y, log = run_step1(f, cent)
        assert y == y0
        assert [s.kind for s in log.steps] == ["blowdown"] * 3
        # deterministic order: ascending index of the auxiliary ray
        assert [s.i for s in log.steps] == [0, 1, 2]
        assert [s.parameter_ray_label for s in log.steps] == ["r0w", "r1w", "r2w"]
        assert replay(log) == y

    def test_replay_determinism(self):
        f = fivefold(550)
        cent = centered_of(f, ("x0", "x1", "x2"))
        y1, log1 = run_step1(f, cent)
        y2, log2 = run_step1(f, cent)
        assert y1 == y2 and log1 == log2
        assert replay(log1) == y1

    def test_rejects_non_centered(self):
        with pytest.raises(PreconditionError):
            run_step1(b3(), (1, 2))  # a primitive collection, but not centered

    def test_rejects_dim_2(self):
        with pytest.raises(PipelineError) as err:
            run_step1(p2(), (0, 1, 2))
        assert err.value.kind == "dimension"

    def test_not_fano_diagnostic_kind(self):
        up, _ = blowup(b3(), (1, 3))
        cent = tuple(sorted(up.label_index[x] for x in ("v1", "v0", "b")))
        with pytest.raises(PipelineError) as err:
            run_step1(up, cent)
        assert err.value.kind == "not-fano"

    def test_order_2_centered_rejected(self):
        from fixtures import p2, pn, product_fan

        f = product_fan(pn(1), p2())  # the P1 factor gives an order-2 centered
        with pytest.raises(PipelineError) as err:
            run_step1(f, (0, 1))
        assert err.value.kind == "m-dimension"

    def test_bundle_with_order_2_centered_reports_its_dimension(self):
        from toricfans.fanio import build_bundle_over_p1

        f = build_bundle_over_p1([0, 0, 0])  # P1 x P2: m = 1 from the base
        with pytest.raises(PipelineError) as err:
            run_step1(f, tuple(sorted(f.label_index[x] for x in ("p0", "p1", "p2"))))
        assert err.value.kind == "m-dimension"
        assert str(err.value) == "m-dimension: minimal P-dimension is 1, need 2"

    @pytest.mark.parametrize(
        "centers,kind,message",
        [
            (["v1,v2", "v2,b", "b,v1+v2", "v2,v0"], "stability",
             "relevant relation changed across blowdown: v1 + v2+b = b + v1+v2"),
            (["v1,v3,b", "v1,v3", "v1,v2"], "type",
             "an order-2 relevant relation survived the exceptional pair"),
            (["v1,v3", "v1,v2", "v2,v0,b", "v3,v0,b"], "blowdown-budget",
             "more than three order-2 relevant relations"),
        ],
    )
    def test_blowups_of_b3_reach_each_kind(self, centers, kind, message):
        f = b3()
        for center in centers:
            f, _ = blowup(f, tuple(f.label_index[x] for x in center.split(",")))
        cent = tuple(sorted(f.label_index[x] for x in ("v1", "v0", "b")))
        with pytest.raises(PipelineError) as err:
            run_step1(f, cent, require_fano=False)
        assert err.value.kind == kind
        assert str(err.value) == f"{kind}: {message}"


class TestPipelineSweep:
    def test_single_blowups_of_bundle_products(self):
        # every Fano m=2 one-step blowup of a product whose center meets the
        # centered collection in one ray must reduce back to the product
        from fixtures import pn, product_fan
        from toricfans.certificate import build_certificate
        from toricfans.fan import faces_of_dim
        from toricfans.primitive import minimal_p_dimension

        # both factors need order >= 3 centered collections, else m(X) = 1
        seeds = [
            product_fan(p2(), p2(), suffixes=("x", "w")),
            product_fan(p2(), pn(3), suffixes=("x", "w")),
        ]
        ran = 0
        undone = 0
        for y0 in seeds:
            cent0 = min(
                c
                for c in primitive_collections(y0)
                if len(c) == 3
                and all(x == 0 for x in
                        [sum(y0.vector(i)[d] for i in c) for d in range(y0.rank)])
            )
            for dim in (2, 3):
                for center in faces_of_dim(y0, dim):
                    if not set(center) & set(cent0) or set(cent0) <= set(center):
                        continue
                    up, _ = blowup(y0, center)
                    if not is_fano(up) or minimal_p_dimension(up) != 2:
                        continue
                    cent = tuple(sorted(up.vector_index[y0.vector(i)] for i in cent0))
                    rels = relevant_collections(up, cent)
                    y, log = run_step1(up, cent)
                    cert = build_certificate(log)
                    assert cert.proven
                    assert replay(log) == y
                    if not rels:
                        assert y == up  # nothing relevant: identity run
                    elif len(center) == 2:
                        # the single order-2 relation undoes the blowup
                        assert y == y0, (center,)
                        undone += 1
                    ran += 1
        assert ran >= 25 and undone >= 12, (ran, undone)

    @given(st.lists(st.tuples(st.sampled_from([2, 3]), st.integers(0, 99)), max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_random_blowups_of_b3_reduce_and_replay_or_name_the_failure(self, centers):
        # at most 7 blowups of the 5-ray b3: at most 12 rays
        from toricfans.fan import faces_of_dim
        from toricfans.primitive import centered_collections, minimal_p_dimension

        f = b3()
        for dim, k in centers:
            faces = faces_of_dim(f, dim)
            f, _ = blowup(f, faces[k % len(faces)])
        assume(minimal_p_dimension(f) == 2)
        cent = min(c for c in centered_collections(f) if len(c) == 3)
        try:
            y, log = run_step1(f, cent, require_fano=False)
        except PipelineError as e:
            assert e.kind in KINDS, e
            return
        assert log.report.ok
        assert replay(log) == y

    def test_contract_s2_first_sees_degree_zero(self):
        # contracting x2 + b = c first produces the degree-0 relation
        # u + v = x2 + b downstream
        f = fivefold(550)
        s2 = rel_of(f, ("x2", "b"))
        g = contract(f, BlowdownSpec(s2))
        assert not is_fano(g)
        bad = [r for r in primitive_relations(g) if r.degree == 0]
        assert len(bad) == 1
        assert bad[0].describe(g) == "u + v = x2 + b"


class TestVerifyOutput:
    def test_b3_passes(self):
        assert verify_output(b3(), B3_CENTERED).ok

    def test_unprocessed_fivefold_fails(self):
        f = fivefold(550)
        rep = verify_output(f, centered_of(f, ("x0", "x1", "x2")))
        assert not rep.ok
        failing = {c.name for c in rep.checks if not c.ok}
        assert "rpc-empty" in failing and "bundle-locus-codim" in failing

    @given(blown_up_fans())
    @settings(max_examples=40, deadline=None)
    def test_rpc_empty_iff_bundle_locus_codim(self, fan):
        # a relevant collection is exactly a bundle-locus cone of dimension 1
        cents = centered_collections(fan)
        assume(cents)
        for cent in cents:
            assert_rpc_items_agree(verify_output(fan, cent))


def assert_rpc_items_agree(report):
    items = {c.name: c.ok for c in report.checks}
    assert items["rpc-empty"] == items["bundle-locus-codim"], str(report)


class TestStepInvariants:
    def test_no_new_opponents_along_pipeline(self):
        # re-check the per-step invariant wholesale on the exceptional runs
        for mid in (550, 659, 708):
            f = fivefold(mid)
            cent = centered_of(f, ("x0", "x1", "x2"))
            y, log = run_step1(f, cent)
            pairs_before = {
                frozenset(f.vector(i) for i in p)
                for p in primitive_collections(f)
                if len(p) == 2
            }
            pairs_after = {
                frozenset(y.vector(i) for i in p)
                for p in primitive_collections(y)
                if len(p) == 2
            }
            assert pairs_after <= pairs_before

    def test_no_type1_or_other_shapes_after_blowdowns(self):
        for mid in (550, 659, 708):
            f = fivefold(mid)
            cent = centered_of(f, ("x0", "x1", "x2"))
            y, _ = run_step1(f, cent)
            cent_y = tuple(sorted(y.label_index[x] for x in ("x0", "x1", "x2")))
            assert relevant_collections(y, cent_y) == []


class TestDiagnoseM3:
    def test_2268(self):
        f = fan_2268()
        rep = diagnose_m3(f, centered_of(f, ("x0", "x1", "x2", "x3")))
        by_tag = {r.tag: r for r in rep.rows}
        assert set(by_tag) == {"type6", "type8"}
        assert by_tag["type6"].contractible and by_tag["type6"].singular_if_transformed
        assert not by_tag["type8"].contractible
        assert "y0 + b = a" in rep.auxiliaries

    def test_2170(self):
        f = fan_2170()
        rep = diagnose_m3(f, centered_of(f, ("x0", "x1", "x2", "x3")))
        tags = sorted(r.tag for r in rep.rows)
        assert tags == ["type3", "type3", "type4", "type4"]
        for row in rep.rows:
            if row.tag == "type4":
                assert not row.contractible
            if row.tag == "type3":
                assert row.singular_if_transformed
        assert "a + b = t" in rep.auxiliaries

    def test_empty_report(self):
        from fixtures import p3, pn, product_fan

        f = product_fan(p3(), pn(1))  # order-4 centered, nothing relevant
        rep = diagnose_m3(f, (0, 1, 2, 3))
        assert rep.rows == () and rep.auxiliaries == ()

    def test_wrong_order_rejected(self):
        with pytest.raises(UnsupportedError):
            diagnose_m3(b3(), B3_CENTERED)

    def test_exceptional_fixture_reports(self):
        from fixtures import m3_exceptional

        f = m3_exceptional("cyclic4")
        rep = diagnose_m3(f, centered_of(f, ("x0", "x1", "x2", "x3")))
        assert [r.tag for r in rep.rows] == ["type1"] * 4
        assert all(r.contractible and not r.singular_if_transformed for r in rep.rows)
        assert rep.exceptional is not None and rep.exceptional.pattern == "cyclic4"

        g = m3_exceptional("pair4")
        repg = diagnose_m3(g, centered_of(g, ("x0", "x1", "x2", "x3")))
        assert sorted(r.tag for r in repg.rows) == ["type1", "type1", "type4"]
        assert repg.exceptional is not None and repg.exceptional.pattern == "pair4"
