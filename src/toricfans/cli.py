"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid fan, failed pipeline, bad
certificate, ...), 2 usage error.  There is no randomness anywhere, so every
command is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import certificate as certmod
from . import fanio
from .chern import screen_2fano
from .errors import CertificateError, PreconditionError, ToricError
from .fan import LatticeFan, is_projective
from .pipeline import detect_exceptional, diagnose_m3, run_step1
from .primitive import (
    is_fano,
    minimal_centered_collection,
    minimal_p_dimension,
    opponents,
    primitive_relations,
    relevant_collections,
    require_centered,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _load_fan(path: str) -> LatticeFan:
    f = fanio.read_fan(path)
    f.require_valid()
    return f


def _resolve_centered(f: LatticeFan, spec: str | None):
    if spec is not None:
        idx = []
        for p in filter(None, (p.strip() for p in spec.split(","))):
            i = f.label_index.get(p)
            if i is None:
                i = int(p) if p.isdecimal() else -1
            elif sum(r.label == p for r in f.rays) > 1:
                raise PreconditionError(f"label {p!r} names more than one ray")
            if not 0 <= i < f.n_rays:
                raise PreconditionError(f"unknown ray {p!r}")
            if i in idx:
                raise PreconditionError(f"ray {p!r} is given twice")
            idx.append(i)
        return require_centered(f, idx)
    cent = minimal_centered_collection(f)
    if cent is None:
        raise PreconditionError("fan has no centered primitive collection")
    return cent


def _cmd_analyze(args) -> int:
    f = _load_fan(args.fan)
    cent = None if args.centered is None else _resolve_centered(f, args.centered)
    rho = f.n_rays - f.rank
    print(f"dim {f.rank}  rays {f.n_rays}  maxcones {len(f.max_cones)}  picard_rank {rho}")
    print(f"fano: {is_fano(f)}")
    m = minimal_p_dimension(f)
    print(f"minimal_p_dimension: {m if m is not None else 'none'}")
    print("primitive relations:")
    for rel in primitive_relations(f):
        print(f"  {rel.describe(f)}   (degree {rel.degree})")
    opp_lines = []
    for i in range(f.n_rays):
        opp = opponents(f, i)
        if opp:
            opp_lines.append(f"  {f.ray_label(i)}: {', '.join(f.ray_label(w) for w in opp)}")
    print("opponents:" if opp_lines else "opponents: none")
    for line in opp_lines:
        print(line)
    if m is not None:
        if cent is None:
            cent = _resolve_centered(f, None)
        print(f"centered collection: {', '.join(f.cone_labels(cent))}")
        rels = relevant_collections(f, cent)
        print(f"relevant collections: {len(rels)}")
        for q, tag, rel in rels:
            print(f"  {rel.describe(f)}   [{tag}]")
        if len(cent) - 1 in (2, 3):
            exc = detect_exceptional(f, cent)
            if exc is None:
                print("exceptional decomposition: none")
            else:
                print(f"exceptional decomposition: {exc.pattern}")
                for rel in exc.relations:
                    print(f"  {rel.describe(f)}")
    return 0


def _cmd_pipeline(args) -> int:
    f = _load_fan(args.fan)
    cent = _resolve_centered(f, args.centered)
    y, log = run_step1(f, cent, require_fano=not args.allow_non_fano)
    print(f"steps: {len(log.steps)}")
    for step in log.steps:
        rels = "; ".join(r.text for r in step.relations)
        print(f"  {step.kind} (i={step.i}, j={step.j}): {rels}")
    print(log.report)
    print(f"output: rays {y.n_rays}, maxcones {len(y.max_cones)}, fano {is_fano(y)}, "
          f"projective {is_projective(y)}")
    cert = certmod.build_certificate(log, fiber_dim=2, cut_out=args.cut_out)
    print(cert.describe())
    print(f"certificate verdict: {'proven' if cert.proven else 'unproven'}")
    if args.cert:
        doc = certmod.certificate_to_dict(cert, log)
        Path(args.cert).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"certificate written to {args.cert}")
    if args.out:
        fanio.write_fan(y, args.out)
        print(f"output fan written to {args.out}")
    return 0 if cert.proven else 1


def _cmd_screen(args) -> int:
    f = _load_fan(args.fan)
    rows, minimum = screen_2fano(f)
    for tau, value in rows:
        label = ",".join(f.cone_labels(tau)) if tau else "<zero cone>"
        print(f"  ch2 . V({label}) = {value}")
    print(f"minimum: {minimum}")
    print("not 2-Fano (invariant surface witness)" if minimum <= 0 else
          "2-Fano if the fan is Fano (invariant surfaces generate the effective cycles)")
    return 0


def _cmd_reconstruct(args) -> int:
    pres = fanio.parse_relations(fanio.read_text(args.relations))
    f = fanio.reconstruct_fan(pres, args.dim)
    fanio.write_fan(f, args.out)
    print(f"reconstructed fan: rays {f.n_rays}, maxcones {len(f.max_cones)} -> {args.out}")
    return 0


def _cmd_bundle(args) -> int:
    f = fanio.build_bundle_over_p1(args.degrees)
    fanio.write_fan(f, args.out)
    print(f"bundle fan: dim {f.rank}, rays {f.n_rays} -> {args.out}")
    return 0


def _cmd_batch(args) -> int:
    rows, histogram = fanio.batch_classify(args.directory, workers=args.workers)
    Path(args.out).write_text(fanio.batch_csv(rows), encoding="utf-8")
    errors = [r for r in rows if r.error]
    print(f"classified {len(rows)} file(s), {len(errors)} error(s) -> {args.out}")
    for dim in sorted(histogram):
        counts = histogram[dim]
        parts = " ".join(f"m={m}:{counts[m]}" for m in sorted(counts))
        print(f"dim {dim}: {parts}")
    for r in errors:
        print(f"  error {r.file}: {r.error}", file=sys.stderr)
    return 1 if any(r.internal for r in errors) else 0


def _cmd_check_cert(args) -> int:
    doc = json.loads(fanio.read_text(args.cert, CertificateError))
    cert = certmod.certificate_from_dict(doc)
    result = certmod.check_certificate(cert)
    print(replace(cert, proven=result.proven).describe())
    for reason in result.reasons:
        print(f"  {reason}")
    print(f"verdict: {'proven' if result.proven else 'unproven'}")
    return 0 if result.proven else 1


def _cmd_diagnose_m3(args) -> int:
    f = _load_fan(args.fan)
    cent = _resolve_centered(f, args.centered)
    report = diagnose_m3(f, cent)
    print(f"centered collection: {', '.join(f.cone_labels(cent))}")
    print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfans",
        description="Primitive collections, fan surgery and ch2 screening for smooth proper toric varieties",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="primitive relations, degrees, opponents, relevant collections")
    p.add_argument("fan")
    p.add_argument("--centered", help="comma-separated ray labels or indices")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pipeline", help="run the blowdown/flip reduction and emit a certificate")
    p.add_argument("fan")
    p.add_argument("--centered", help="comma-separated ray labels or indices")
    p.add_argument("--cert", help="write the certificate JSON here")
    p.add_argument("--out", help="write the output fan here")
    p.add_argument("--cut-out", type=int, choices=(0, 1, 2), default=None,
                   help="centered position cut out by the surface (default 2)")
    p.add_argument("--allow-non-fano", action="store_true",
                   help="run on non-Fano inputs (structural checks still apply)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("screen", help="ch2 against every invariant surface")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("reconstruct", help="rebuild a fan from a relation list")
    p.add_argument("relations")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("bundle", help="fan of a split projective bundle over P1")
    p.add_argument("-a", "--degrees", required=True, type=_int_list,
                   help="comma-separated integers a0,...,am; write a list that starts with a negative number as -a=-1,2")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("batch", help="classify a directory of TORICFAN files")
    p.add_argument("directory")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("check-cert", help="validate a certificate JSON")
    p.add_argument("cert")
    p.set_defaults(func=_cmd_check_cert)

    p = sub.add_parser("diagnose-m3", help="classification-only report for order-4 centered collections")
    p.add_argument("fan")
    p.add_argument("--centered", help="comma-separated ray labels or indices")
    p.set_defaults(func=_cmd_diagnose_m3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToricError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"error: bad JSON: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
