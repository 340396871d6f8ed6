"""The face-extension enumerator of primitive collections (the per-fan
``LatticeFan.minimal_nonfaces``) against a brute-force subset search, and on
products past 25 rays."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from toricfans.birational import blowup
from toricfans.fan import ray_mask, star_subdivision
from toricfans.primitive import primitive_collections

from fixtures import b3, bl_pt_p2, p1xp1, p2, p3, pn, product_fan
from oracles import minimal_nonfaces_brute_force


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
