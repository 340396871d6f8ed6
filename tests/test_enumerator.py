"""The face walk behind ``LatticeFan.minimal_nonfaces`` (the primitive
collections) against the submask construction and a brute-force subset
search, against closed forms, under ray relabelling, on products past 25
rays, and across its split at the join factors of the face complex."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from toricfans.birational import blowup
from toricfans.fan import LatticeFan, ray_mask, spans_cone, star_subdivision
from toricfans.primitive import primitive_collections

from fixtures import b3, bl_pt_p2, fan_2170, fan_2268, p1xp1, p2, p3, pn, product_fan
from oracles import faces_by_submasks, minimal_nonfaces_brute_force


def _assert_matches_oracle(fan):
    masks = [ray_mask(c) for c in fan.max_cones]
    assert list(fan.minimal_nonfaces) == minimal_nonfaces_brute_force(masks, fan.n_rays)


@pytest.mark.parametrize("fan", [p2(), p1xp1(), bl_pt_p2(), b3(), pn(5)])
def test_matches_brute_force(fan):
    _assert_matches_oracle(fan)


@st.composite
def blown_up_fans(draw):
    """A zoo fan after a random sequence of star subdivisions at faces of
    its maximal cones, stopping at 14 rays."""
    fan = draw(st.sampled_from([p2(), p1xp1(), p3(), b3(), pn(4), bl_pt_p2()]))
    picks = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=8))
    for cone_pick, face_pick in picks:
        if fan.n_rays >= 14:
            break
        cone = fan.max_cones[cone_pick % len(fan.max_cones)]
        size = 2 + face_pick % (fan.rank - 1)
        fan, _ = blowup(fan, cone[:size])
    return fan


@given(blown_up_fans())
@settings(max_examples=40, deadline=None)
def test_blowup_sequences_match_brute_force(fan):
    _assert_matches_oracle(fan)


@given(blown_up_fans())
@settings(max_examples=60, deadline=None)
def test_walk_matches_submasks(fan):
    faces, nonfaces = faces_by_submasks(fan)
    assert fan.minimal_nonfaces == nonfaces
    # the face predicate the walk reads holds on every face and fails on
    # every non-face one ray above a face; being monotone, it then agrees
    # with the face set on every subset
    for face in faces:
        rays = [i for i in range(fan.n_rays) if face >> i & 1]
        assert spans_cone(fan, rays)
        for u in range(fan.n_rays):
            if not face >> u & 1 and face | 1 << u not in faces:
                assert not spans_cone(fan, rays + [u])


@pytest.mark.parametrize("k", range(1, 11))
def test_p1_power_closed_form(k):
    # (P1)^k: 3^k faces, and the k pairs of opposite rays are its collections
    fan = pn(1)
    for _ in range(k - 1):
        fan = product_fan(fan, pn(1))
    assert len(faces_by_submasks(fan)[0]) == 3**k
    assert len(fan.minimal_nonfaces) == k
    for mask in fan.minimal_nonfaces:
        pair = [i for i in range(fan.n_rays) if mask >> i & 1]
        assert len(pair) == 2
        assert all(a + b == 0 for a, b in zip(fan.vector(pair[0]), fan.vector(pair[1])))


@given(blown_up_fans(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_relabelling_keeps_collections(fan, rng):
    new = list(range(fan.n_rays))  # ray i of fan is ray new[i] of the relabelled fan
    rng.shuffle(new)
    rays = [None] * fan.n_rays
    for i, j in enumerate(new):
        rays[j] = fan.vector(i)
    relabelled = LatticeFan(fan.rank, rays, [[new[i] for i in cone] for cone in fan.max_cones])
    def move(masks):
        return {ray_mask(new[i] for i in range(fan.n_rays) if m >> i & 1) for m in masks}

    assert set(relabelled.minimal_nonfaces) == move(fan.minimal_nonfaces)
    assert faces_by_submasks(relabelled)[0] == move(faces_by_submasks(fan)[0])


def test_product_past_old_ray_cap():
    # a blowup tower over P4 (17 rays) times (P1)^5 (10 rays): 27 rays
    tower = pn(4)
    for _ in range(12):
        tower = star_subdivision(tower, tower.max_cones[0][:2])
    p1_power = pn(1)
    for _ in range(4):
        p1_power = product_fan(p1_power, pn(1))
    fan = product_fan(tower, p1_power)
    assert fan.n_rays == 27
    fan.require_valid()

    start = time.perf_counter()
    pcs = primitive_collections(fan)
    elapsed = time.perf_counter() - start

    shift = tower.n_rays
    expected = primitive_collections(tower) + [
        tuple(i + shift for i in p) for p in primitive_collections(p1_power)
    ]
    assert pcs == sorted(expected, key=lambda p: (len(p), p))
    assert elapsed < 5.0, f"27-ray enumeration took {elapsed:.2f}s"


@given(blown_up_fans(), st.sampled_from([p2(), p1xp1(), pn(1)]))
@settings(max_examples=40, deadline=None)
def test_product_walks_its_factors(fan, other):
    # a product's face complex is the join of its factors': the walk splits
    # at the factors and finds each factor's collections, the right one's
    # shifted past the left one's rays
    product = product_fan(fan, other)
    assert product.minimal_nonfaces == faces_by_submasks(product)[1]
    shifted = [m << fan.n_rays for m in other.minimal_nonfaces]
    assert product.minimal_nonfaces == tuple(sorted(list(fan.minimal_nonfaces) + shifted))


def _is_join_factor(fan, rays):
    cones = {ray_mask(c) for c in fan.max_cones}
    return len({c & rays for c in cones}) * len({c & ~rays for c in cones}) == len(cones)


@pytest.mark.parametrize("fan,pair", [(fan_2170(), (5, 6)), (fan_2268(), (4, 9))])
def test_pair_that_is_no_factor(fan, pair):
    # the two rays share no cone and every other ray shares one with both
    # (a component of the non-adjacency graph), but the fan is no join over
    # the pair, so the walk keeps it in the remaining part
    rays = ray_mask(pair)
    assert rays in fan.minimal_nonfaces and not _is_join_factor(fan, rays)
    for u in set(range(fan.n_rays)) - set(pair):
        assert all(spans_cone(fan, (u, v)) for v in pair)
    _assert_matches_oracle(fan)


@pytest.mark.parametrize("fan", [bl_pt_p2(), p1xp1()])
def test_four_cycles_are_joins_of_pairs(fan):
    # a 4-cycle of rays is the join of its two opposite pairs, whether the
    # fan is a product (P1 x P1) or not (the blowup of P2 at a point)
    assert fan.minimal_nonfaces == (0b0011, 0b1100)
    assert _is_join_factor(fan, 0b0011) and _is_join_factor(fan, 0b1100)


def test_p1_power_14():
    # (P1)^14: 28 rays, 16,384 cones and 3^14 faces in one walk; split into
    # its 14 factors, the walk visits 14 * 3 faces
    fan = pn(1)
    for _ in range(13):
        fan = product_fan(fan, pn(1))
    assert (fan.n_rays, len(fan.max_cones)) == (28, 2**14)
    assert fan.minimal_nonfaces == tuple(0b11 << 2 * k for k in range(14))
    for mask in fan.minimal_nonfaces:
        u, v = (i for i in range(fan.n_rays) if mask >> i & 1)
        assert all(a + b == 0 for a, b in zip(fan.vector(u), fan.vector(v)))
