"""Tests that read the benchmark under perfbench/ (loaded from its files,
never changed): the functions it traces must exist, and the reduce-certify
corpus serves as a larger input set for the contractibility oracle."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from toricfans.birational import is_contractible
from toricfans.primitive import primitive_relations

import oracles

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


def test_contractibility_on_the_reduce_corpus(reduce_corpus):
    checked = 0
    for f in reduce_corpus:
        for rel in primitive_relations(f):
            assert is_contractible(f, rel) == oracles.is_contractible(f, rel), rel
            checked += 1
    assert checked > len(reduce_corpus)


def test_face_walk_on_every_benchmark_fan():
    # the walk prunes by neighbours; the submask build tries every ray
    corpus = _load("corpus")
    fans = corpus.classify_corpus() + corpus.large_fans()
    assert len(fans) == 224
    for name, f in fans:
        assert (f.faces, f.minimal_nonfaces) == oracles.faces_by_submasks(f), name
