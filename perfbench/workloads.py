"""The four workloads: how each generates its inputs, what one pass of
operations does, and how the outputs are checked.

Each workload is a closed loop driven by one process: the next operation
starts when the previous one has returned.  One pass runs every input once,
in one fixed shuffled order, so every pass does the same mix of work.  Library calls go
through module attributes (``fanio.classify_file``, not a copy bound at
import), so that a ``spans.Tracer`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from toricfans import certificate, cli, fan, fanio, pipeline, primitive

import corpus
from spans import reset_caches


@dataclass
class Inputs:
    """What a set-up produced: the TORICFAN files in sorted-file order, and
    the order a serial pass runs them in."""

    names: list[str]
    paths: list[str]
    order: list[int]
    directory: str
    base_hash: str
    seeded_hash: str


@dataclass
class PassResult:
    """One pass: per-operation seconds (in input order), failed operations
    and the reasons."""

    op_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ops: int = 0

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_name(name: str) -> str:
    return f"{name}.fan"


def _write(fans, directory: Path) -> list[str]:
    directory.mkdir(parents=True)
    paths = []
    for name, f in fans:
        path = directory / _file_name(name)
        fanio.write_fan(f, path)
        paths.append(str(path))
    return paths


class Workload:
    name = ""
    why = ""
    pins_key = ""  # which corpus pins in expected.json apply
    pooled = False  # whether run_pass hands the work to worker processes

    def __init__(self, expected: dict, workers: int):
        self.expected = expected
        self.workers = workers

    def base_fans(self):
        raise NotImplementedError

    def setup(self, seed: int, directory: Path) -> tuple[Inputs, float]:
        """Build the fans, apply the seed and write the files; returns the
        inputs and the seconds this took.  The pin hashes are computed after
        the clock stops."""
        start = time.perf_counter()
        base = self.base_fans()
        # sorted-file order, the order batch_classify reports rows in
        fans = sorted(corpus.seeded(base, seed), key=lambda nf: _file_name(nf[0]))
        paths = _write(fans, directory)
        elapsed = time.perf_counter() - start
        # A fixed shuffle spreads each family of similar fans over the whole
        # pass, so that its latencies sample the shared host's speed over the
        # whole run instead of over one stretch of it.
        order = random.Random("op-order").sample(range(len(paths)), len(paths))
        inputs = Inputs(
            names=[n for n, _ in fans],
            paths=paths,
            order=order,
            directory=str(directory),
            base_hash=corpus.corpus_hash(base),
            seeded_hash=corpus.corpus_hash(fans),
        )
        return inputs, elapsed

    def check_inputs(self, inputs: Inputs, seed: int, default_seed: int) -> list[str]:
        pins = self.expected["corpus"][self.pins_key]
        problems = []
        if inputs.base_hash != pins["base_sha256"]:
            problems.append(f"{self.name}: corpus hash {inputs.base_hash} differs from the pin")
        if seed == default_seed and inputs.seeded_hash != pins["default_seed_sha256"]:
            problems.append(f"{self.name}: default-seed corpus hash {inputs.seeded_hash} differs from the pin")
        return problems

    def run_pass(self, inputs: Inputs) -> PassResult:
        raise NotImplementedError

    def trace_pass(self, inputs: Inputs) -> PassResult:
        """The pass a traced run records: the same work in this process."""
        return self.run_pass(inputs)


# -- classification ----------------------------------------------------------------


class ClassifySerial(Workload):
    name = "classify-serial"
    why = (
        "the batch user's path, one fan at a time: the ch2 screen dominates and "
        "enumeration is negligible, so screen, fan and lattice work shows here"
    )
    pins_key = "classify"

    def base_fans(self):
        return corpus.classify_corpus()

    def expected_rows(self) -> list[str]:
        return self.expected["classify_csv"].split("\n")[1:-1]

    def run_pass(self, inputs):
        res = PassResult()
        reset_caches()  # one pass is one fresh batch run
        rows = [None] * len(inputs.paths)
        res.op_seconds = [0.0] * len(inputs.paths)
        for i in inputs.order:
            start = time.perf_counter()
            try:
                rows[i] = fanio.classify_file(inputs.paths[i])
            except Exception as e:  # an escaped exception is a failed operation
                res.fail(f"{inputs.names[i]}: {type(e).__name__}: {e}")
            res.op_seconds[i] = time.perf_counter() - start
        res.ops = len(rows)
        _check_rows(res, rows, self.expected_rows())
        if not res.failed:
            csv = fanio.batch_csv(rows)
            if _sha(csv) != self.expected["classify_csv_sha256"]:
                res.fail("batch CSV sha256 differs from the pin", count=0)
        return res


def _check_rows(res: PassResult, rows, expected_rows: list[str]) -> None:
    if len(rows) != len(expected_rows):
        res.fail(f"{len(rows)} rows, expected {len(expected_rows)}", count=abs(len(rows) - len(expected_rows)))
    for row, want in zip(rows, expected_rows):
        if row is None:
            continue
        got = row.csv()
        if row.error or got != want:
            res.fail(f"row {got!r} differs from {want!r}")


class ClassifyPool(ClassifySerial):
    name = "classify-pool"
    why = (
        "the same corpus through the batch process pool (one worker per CPU): "
        "adds pickling, chunked scheduling of a heavy-tailed corpus and worker start-up"
    )
    pooled = True

    def trace_pass(self, inputs):
        # spans cannot leave the workers, so the modules are traced serially
        return ClassifySerial.run_pass(self, inputs)

    def run_pass(self, inputs):
        res = PassResult()
        reset_caches()  # forked workers inherit the parent's caches
        start = time.perf_counter()
        try:
            rows, _ = fanio.batch_classify(inputs.directory, workers=self.workers)
        except Exception as e:  # the whole batch failed
            res.op_seconds.append(time.perf_counter() - start)
            res.ops = len(inputs.paths)
            res.fail(f"batch_classify: {type(e).__name__}: {e}", count=res.ops)
            return res
        res.op_seconds.append(time.perf_counter() - start)
        res.ops = len(rows)
        _check_rows(res, rows, self.expected_rows())
        if not res.failed and fanio.batch_csv(rows) != self.expected["classify_csv"]:
            res.fail("pool CSV is not byte-identical to the serial CSV", count=0)
        return res


# -- reduction and certificates --------------------------------------------------------


class ReduceCertify(Workload):
    name = "reduce-certify"
    why = (
        "the pipeline command's path on m=2 Fano fans: every blowdown and flip "
        "builds and validates a new short-lived fan, then projectivity and certificates"
    )
    pins_key = "reduce"

    def base_fans(self):
        wanted = set(self.expected["corpus"][self.pins_key]["names"])
        return [(n, f) for n, f in corpus.classify_corpus() if n in wanted]

    def run_pass(self, inputs):
        res = PassResult()
        kinds: dict[str, int] = {}
        res.op_seconds = [0.0] * len(inputs.paths)
        for i in inputs.order:
            name = inputs.names[i]
            reset_caches()  # one operation is one pipeline command
            start = time.perf_counter()
            try:
                f = fanio.read_fan(inputs.paths[i])
                f.require_valid()
                m = primitive.minimal_p_dimension(f)
                cent = min(c for c in primitive.centered_collections(f) if len(c) == m + 1)
                y, log = pipeline.run_step1(f, cent)
                report = pipeline.verify_output(y, tuple(y.vector_index[v] for v in log.x_vectors))
                projective = fan.is_projective(y)
                certs = [certificate.build_certificate(log, fiber_dim=2, cut_out=k) for k in (0, 1, 2)]
                verdicts = [certificate.check_certificate(c) for c in certs]
            except Exception as e:  # an escaped exception is a failed operation
                res.op_seconds[i] = time.perf_counter() - start
                res.fail(f"{name}: {type(e).__name__}: {e}")
                continue
            res.op_seconds[i] = time.perf_counter() - start
            kind = "+".join(s.kind for s in log.steps) or "identity"
            kinds[kind] = kinds.get(kind, 0) + 1
            bad = []
            if not report.ok:
                bad.append("output verification failed")
            if not projective:
                bad.append("output not projective")
            if not all(c.proven and v.proven for c, v in zip(certs, verdicts)):
                bad.append("certificate not proven")
            if pipeline.replay(log) != y:
                bad.append("replay(log) != output")
            if bad:
                res.fail(f"{name}: {', '.join(bad)}")
        res.ops = len(inputs.paths)
        if kinds != self.expected["reduce_step_kinds"]:
            res.fail(f"step-kind histogram {kinds} differs from the pin", count=0)
        return res


# -- analyze on large fans ------------------------------------------------------------


class AnalyzeLarge(Workload):
    name = "analyze-large"
    why = (
        "the analyze command on 12-21 ray fans, either side of the 15-ray kernel "
        "switch: the only workload where primitive-collection enumeration dominates"
    )
    pins_key = "large"

    def base_fans(self):
        return corpus.large_fans()

    def run_pass(self, inputs):
        res = PassResult()
        pins = self.expected["analyze"]
        res.op_seconds = [0.0] * len(inputs.paths)
        for i in inputs.order:
            name = inputs.names[i]
            reset_caches()  # one operation is one analyze command
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(["analyze", inputs.paths[i]])
            except Exception as e:  # an escaped exception is a failed operation
                res.op_seconds[i] = time.perf_counter() - start
                res.fail(f"{name}: {type(e).__name__}: {e}")
                continue
            res.op_seconds[i] = time.perf_counter() - start
            text = out.getvalue()
            got = {"exit": code, "primitive_collections": count_relations(text), "stdout_sha256": _sha(text)}
            if got != pins[name]:
                res.fail(f"{name}: analyze output {got} differs from the pin {pins[name]}")
        res.ops = len(inputs.paths)
        return res


def count_relations(text: str) -> int:
    """Number of relation lines under 'primitive relations:' in analyze output."""
    lines = text.split("\n")
    try:
        start = lines.index("primitive relations:") + 1
    except ValueError:
        return -1
    count = 0
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        count += 1
    return count


WORKLOADS = {w.name: w for w in (ClassifySerial, ClassifyPool, ReduceCertify, AnalyzeLarge)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
