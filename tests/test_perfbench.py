"""Tests that read the benchmark under perfbench/ (loaded from its files,
never changed): the functions it traces must exist, and its corpora serve
as larger input sets for the oracles and for a pin of the full ch2 screen."""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from toricfans import pipeline, primitive
from toricfans.birational import is_contractible
from toricfans.chern import ch2_dot_invariant_surface, screen_2fano
from toricfans.fan import LatticeFan, faces_of_dim, ray_mask, validate, wall_neighbors
from toricfans.primitive import opponents, primitive_relations

import oracles
from test_fan import assert_walks_exact, wall_relation_reference
from test_pipeline import assert_rpc_items_agree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # a renamed function would break `perfbench/run.py --trace 1` at install
    traced = _load("spans").TRACED
    for mod_name, funcs in traced.items():
        module = importlib.import_module(f"toricfans.{mod_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"toricfans.{mod_name}.{func}"


@pytest.fixture(scope="module")
def reduce_corpus():
    names = set(json.loads((PERFBENCH / "expected.json").read_text())["corpus"]["reduce"]["names"])
    corpus = _load("corpus")
    fans = [f for name, f in corpus.classify_corpus() if name in names]
    assert len(fans) == len(names)
    return fans


def test_relevant_collections_derived_once_per_fan(monkeypatch):
    # each fan's relevant collections are a memo on the fan: run_step1's
    # cycle search, its steps and the output check share one derivation
    assert not hasattr(pipeline, "_order2_vector_pairs")
    fans = dict(_load("corpus").classify_corpus())
    tagged, pinned = [], []
    tag = primitive.relevant_type_tag

    def counted(m, rel):
        f = sys._getframe(1).f_locals["f"]  # the fan relevant_collections derives for
        pinned.append(f)  # keeps the ids distinct
        tagged.append((id(f), rel.collection))
        return tag(m, rel)

    monkeypatch.setattr(primitive, "relevant_type_tag", counted)
    for name, kinds in [
        ("fivefold550", "exceptional_pair"),
        ("tower-x", "blowdown+blowdown+blowdown"),
        ("flip6-x", "flip+flip"),
    ]:
        f = fans[name]
        y, log = pipeline.run_step1(f, primitive.minimal_centered_collection(f))
        assert "+".join(s.kind for s in log.steps) == kinds
        assert pipeline.verify_output(y, tuple(y.vector_index[v] for v in log.x_vectors)).ok
    assert tagged and len(set(tagged)) == len(tagged)


def test_report_items_agree_on_the_reduce_corpus(reduce_corpus):
    for f in reduce_corpus:
        cent = primitive.minimal_centered_collection(f)
        assert_rpc_items_agree(pipeline.verify_output(f, cent))
        y, log = pipeline.run_step1(f, cent)
        assert_rpc_items_agree(pipeline.verify_output(y, tuple(y.vector_index[v] for v in log.x_vectors)))


def test_contractibility_on_the_reduce_corpus(reduce_corpus):
    checked = 0
    for f in reduce_corpus:
        for rel in primitive_relations(f):
            assert is_contractible(f, rel) == oracles.is_contractible(f, rel), rel
            checked += 1
    assert checked > len(reduce_corpus)


@pytest.fixture(scope="module")
def benchmark_fans():
    corpus = _load("corpus")
    fans = corpus.classify_corpus() + corpus.large_fans()
    assert len(fans) == 224
    return fans


def test_face_walk_on_every_benchmark_fan(benchmark_fans):
    # the walk prunes by neighbours; the submask build tries every ray
    for name, f in benchmark_fans:
        assert f.minimal_nonfaces == oracles.faces_by_submasks(f)[1], name


def test_opponents_on_every_benchmark_fan(benchmark_fans):
    # read off the order-2 minimal non-faces; the oracle scans every ray
    for name, f in benchmark_fans:
        for ray in range(f.n_rays):
            assert opponents(f, ray) == oracles.opponents(f, ray), (name, ray)


def test_validate_on_every_benchmark_fan(benchmark_fans):
    for name, f in benchmark_fans:
        fresh = LatticeFan(f.rank, f.rays, f.max_cones)  # computes every determinant
        assert str(validate(fresh)) == str(oracles.validate_reference(f)) == "valid", name


def test_wall_table_on_every_benchmark_fan(benchmark_fans):
    for name, f in benchmark_fans:
        for wall in faces_of_dim(f, f.rank - 1):
            assert wall_neighbors(f, wall) == oracles.wall_neighbors(f, wall), (name, wall)


def test_wall_relations_on_every_benchmark_fan(benchmark_fans):
    # one sweep over the maximal cones against one inverse or one solve per wall
    for name, f in benchmark_fans:
        walls = faces_of_dim(f, f.rank - 1)
        assert f.wall_relations == {ray_mask(w): oracles.wall_relation_by_host(f, w) for w in walls}, name
        assert f.wall_relations == {ray_mask(w): wall_relation_reference(f, w) for w in walls}, name


def test_locate_walks_on_every_benchmark_fan(benchmark_fans):
    # every primitive-collection sum against the cone-by-cone scan, and every
    # dual basis the walks derive against the cone's inverse
    held = sum(assert_walks_exact(f) for _, f in benchmark_fans)
    assert held > len(benchmark_fans)


def test_screen_matches_link_scan_on_every_benchmark_fan(benchmark_fans):
    for name, f in benchmark_fans:
        scanned = LatticeFan(f.rank, f.rays, f.max_cones)  # derives its own relations
        rows, _ = screen_2fano(f)
        faces = faces_of_dim(f, f.rank - 2)
        assert rows == [(tau, oracles.ch2_by_link_scan(scanned, tau)) for tau in faces], name
        # the screen skips the public function's checks on the faces it builds
        assert rows == [(tau, ch2_dot_invariant_surface(f, tau)) for tau in faces], name


# sha256 over every row of the screen on the seed-0 classify corpus, one
# "<name> <tau> <value>" line per row in corpus and faces_of_dim order
# (10,743 rows, no fan rejected)
SCREEN_ROWS_SHA256 = "8b1edbe350d406ddf665adf5283afde74e454d971c83d665967218f3efd92c59"


def test_full_screen_pin():
    corpus = _load("corpus")
    fans = corpus.seeded(corpus.classify_corpus(), 0)
    assert len(fans) == 215
    h, count = hashlib.sha256(), 0
    for name, f in fans:
        for tau, value in screen_2fano(f)[0]:
            h.update(f"{name} {tau} {value}\n".encode())
            count += 1
    assert count == 10743
    assert h.hexdigest() == SCREEN_ROWS_SHA256
