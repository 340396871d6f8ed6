"""Machine-checkable nonpositivity certificates for ch2 against the traced
surface.

A certificate asserts ch2(X) . S0 = base(a_0..a_m) - sum_l c_l * m_l where
base = (m-1)/2 (a_0 + a_1) - (a_2 + ... + a_m) over ordered symbols
a_0 <= ... <= a_m, the c_l are the per-step correction coefficients, and the
m_l are free nonnegative intersection counts.  Coefficients are exact
half-integers stored as doubled ints; the verdict is decided symbolically
(coefficient comparisons under the ordering), never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateError, PreconditionError, UnsupportedError
from .pipeline import TransformLog

#: allowed correction coefficients, doubled
ALLOWED_DOUBLED = (0, 1, 2, 3, 5)

CERT_VERSION = 1


def _fmt_half(doubled: int) -> str:
    return str(Fraction(doubled, 2))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise CertificateError(f"bad rational literal {text!r}: {e}")


@dataclass(frozen=True)
class Correction:
    step_index: int
    kind: str
    doubled_coefficient: int
    parameter: str
    parameter_ray: str
    case: str
    i: int
    j: Optional[int]

    @property
    def coefficient(self) -> Fraction:
        return Fraction(self.doubled_coefficient, 2)


@dataclass(frozen=True)
class Certificate:
    fiber_dim: int
    cut_out: int
    base_doubled: tuple[int, ...]  # doubled coefficients of a_0 .. a_m
    corrections: tuple[Correction, ...]
    proven: bool

    def describe(self) -> str:
        """The held formula: the canonical base in its closed form, any
        other base term by term (never longer than the base it holds)."""
        m, held = self.fiber_dim, self.base_doubled
        if len(held) == m + 1 and held == _canonical_base(m):
            base = f"{_fmt_half(m - 1)}*(a0+a1) - (" + " + ".join(f"a{i}" for i in range(2, m + 1)) + ")"
        else:
            base = " + ".join(f"{_fmt_half(c)}*a{i}" for i, c in enumerate(held)).replace("+ -", "- ") or "0"
        parts = [base]
        for c in self.corrections:
            parts.append(f"- {_fmt_half(c.doubled_coefficient)}*{c.parameter}")
        verdict = "proven nonpositive" if self.proven else "NOT proven"
        return " ".join(parts) + f"   [{verdict}]"


@dataclass(frozen=True)
class CheckResult:
    proven: bool
    reasons: tuple[str, ...]


def _canonical_base(m: int) -> tuple[int, ...]:
    return ((m - 1), (m - 1)) + (-2,) * (m - 1)


_CASE_TABLE = {
    # (kind, role of the cut-out index) -> (doubled coefficient, case tag)
    ("blowdown", "cut"): (2, "blowdown-cut"),
    ("blowdown", "off"): (3, "blowdown-offcut"),
    ("exceptional_pair", "j"): (5, "exceptional-second-cut"),
    ("exceptional_pair", "i"): (1, "exceptional-first-cut"),
    ("exceptional_pair", "off"): (3, "exceptional-offcut"),
    ("flip", "cut"): (5, "flip-cut"),
    ("flip", "off"): (0, "flip-offcut"),
}


def _role(kind: str, i: int, j: int | None, cut_out: int) -> str:
    """Role of the cut-out index in a step with x-indices i (and j)."""
    if kind == "blowdown":
        return "cut" if i == cut_out else "off"
    if kind == "exceptional_pair":
        return "j" if j == cut_out else "i" if i == cut_out else "off"
    if kind == "flip":
        return "cut" if cut_out in (i, j) else "off"
    raise CertificateError(f"unknown step kind {kind!r}")


def build_certificate(
    log: TransformLog, fiber_dim: int = 2, cut_out: int | None = None
) -> Certificate:
    """One correction per logged step, with the coefficient selected by the
    step kind and by whether the step's x-indices include the cut-out index
    (the centered position removed when slicing the surface).  The default
    cut-out is the last centered position; the choice is recorded for audit.
    """
    if fiber_dim != 2:
        raise UnsupportedError(f"certificates are built for fiber dimension 2, got {fiber_dim}")
    if cut_out is None:
        cut_out = fiber_dim
    corrections = []
    for idx, step in enumerate(log.steps):
        doubled, case = _CASE_TABLE[(step.kind, _role(step.kind, step.i, step.j, cut_out))]
        corrections.append(
            Correction(
                step_index=idx,
                kind=step.kind,
                doubled_coefficient=doubled,
                parameter=f"m{idx + 1}",
                parameter_ray=step.parameter_ray_label,
                case=case,
                i=step.i,
                j=step.j,
            )
        )
    draft = Certificate(
        fiber_dim=fiber_dim,
        cut_out=cut_out,
        base_doubled=_canonical_base(fiber_dim),
        corrections=tuple(corrections),
        proven=False,
    )
    return replace(draft, proven=check_certificate(draft).proven)


def check_certificate(cert: Certificate) -> CheckResult:
    """Symbolic verdict.  Every correction must carry the coefficient and
    case that the case table assigns to its step kind and to the role of the
    cut-out index among its x-indices (anything else, an out-of-set
    coefficient included, is an invalid certificate), and the base term must
    be nonpositive for every ordered tuple a_0 <= ... <= a_m.

    Nonpositivity is decided by rewriting the base in the difference basis
    a_0, d_j = a_j - a_{j-1} >= 0: it holds for all ordered integer tuples
    iff the a_0-coefficient (the full coefficient sum) vanishes and every
    d_j-coefficient (a suffix sum) is <= 0.  For the canonical base this is
    exactly the chain sum_{i>=2} a_i >= (m-1) a_2 >= (m-1)(a_0+a_1)/2."""
    reasons = []
    if not (0 <= cert.cut_out <= cert.fiber_dim):
        raise CertificateError(f"cut-out index {cert.cut_out} out of range 0..{cert.fiber_dim}")
    for c in cert.corrections:
        doubled, case = _CASE_TABLE[(c.kind, _role(c.kind, c.i, c.j, cert.cut_out))]
        if (c.doubled_coefficient, c.case) != (doubled, case):
            raise CertificateError(
                f"correction {c.parameter} ({c.kind}, i={c.i}, j={c.j}, cut-out {cert.cut_out}) has "
                f"coefficient {_fmt_half(c.doubled_coefficient)} and case {c.case!r}; the case table "
                f"gives {_fmt_half(doubled)} and {case!r}"
            )
    m = cert.fiber_dim
    if m < 1 or len(cert.base_doubled) != m + 1:
        reasons.append("base term has the wrong arity")
    else:
        if sum(cert.base_doubled) != 0:
            reasons.append("base term does not vanish on constant tuples (unbounded above)")
        for j in range(1, m + 1):
            if sum(cert.base_doubled[j:]) > 0:
                reasons.append(
                    f"base term increases with a_{j} - a_{j - 1}; not nonpositive under ordering"
                )
    return CheckResult(proven=not reasons, reasons=tuple(reasons))


def evaluate_certificate(
    cert: Certificate, a: Sequence[int], ms: Sequence[int]
) -> Fraction:
    """Numeric instantiation: base(a) - sum c_l * ms_l, exact."""
    if len(a) != cert.fiber_dim + 1:
        raise PreconditionError(f"need {cert.fiber_dim + 1} bundle degrees, got {len(a)}")
    if any(a[i] > a[i + 1] for i in range(len(a) - 1)):
        raise PreconditionError("bundle degrees must be ascending")
    if len(ms) != len(cert.corrections):
        raise PreconditionError(f"need {len(cert.corrections)} parameters, got {len(ms)}")
    if any(v < 0 for v in ms):
        raise PreconditionError("intersection counts must be nonnegative")
    value = sum(Fraction(c, 2) * ai for c, ai in zip(cert.base_doubled, a))
    for corr, count in zip(cert.corrections, ms):
        value -= corr.coefficient * count
    return value


def base_value(m: int, a: Sequence[int]) -> Fraction:
    """Closed-form base term (m-1)/2 (a_0 + a_1) - (a_2 + ... + a_m)."""
    if len(a) != m + 1:
        raise PreconditionError(f"need {m + 1} bundle degrees, got {len(a)}")
    return Fraction(m - 1, 2) * (a[0] + a[1]) - sum(a[2:])


# -- serialization -------------------------------------------------------------


def certificate_to_dict(cert: Certificate, log: TransformLog) -> dict:
    return {
        "cert_version": CERT_VERSION,
        "fiber_dim": cert.fiber_dim,
        "cut_out": cert.cut_out,
        "base": {f"a{i}": _fmt_half(c) for i, c in enumerate(cert.base_doubled)},
        "corrections": [
            {
                "step": c.step_index,
                "kind": c.kind,
                "coefficient": _fmt_half(c.doubled_coefficient),
                "parameter": c.parameter,
                "parameter_ray": c.parameter_ray,
                "case": c.case,
                "i": c.i,
                "j": c.j,
            }
            for c in cert.corrections
        ],
        "verdict": "proven" if cert.proven else "unproven",
        "steps": [
            {
                "kind": s.kind,
                "i": s.i,
                "j": s.j,
                "relations": [r.text for r in s.relations],
                "removed_rays": [list(v) for v in s.removed],
                "parameter_ray": s.parameter_ray_label,
            }
            for s in log.steps
        ],
        "centered": [log.initial.ray_label(i) for i in log.centered],
    }


def certificate_from_dict(doc: dict) -> Certificate:
    if not isinstance(doc, dict):
        raise CertificateError(f"a certificate is a JSON object, not {type(doc).__name__}")
    if doc.get("cert_version") != CERT_VERSION:
        raise CertificateError(f"unsupported cert_version {doc.get('cert_version')!r}")
    try:
        fiber_dim = int(doc["fiber_dim"])
        cut_out = int(doc["cut_out"])
        base_map = doc["base"]
        base = []
        for i in range(len(base_map)):
            val = _parse_rational(base_map[f"a{i}"]) * 2
            if val.denominator != 1:
                raise CertificateError(f"base coefficient for a{i} is not a half-integer")
            base.append(int(val))
        corrections = []
        for c in doc["corrections"]:
            coeff = _parse_rational(c["coefficient"]) * 2
            if coeff.denominator != 1:
                raise CertificateError(f"coefficient {c['coefficient']!r} is not a half-integer")
            corrections.append(
                Correction(
                    step_index=int(c["step"]),
                    kind=str(c["kind"]),
                    doubled_coefficient=int(coeff),
                    parameter=str(c["parameter"]),
                    parameter_ray=str(c.get("parameter_ray", "")),
                    case=str(c.get("case", "")),
                    i=int(c["i"]),
                    j=None if c.get("j") is None else int(c["j"]),
                )
            )
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"malformed certificate document: {e}")
    cert = Certificate(
        fiber_dim=fiber_dim,
        cut_out=cut_out,
        base_doubled=tuple(base),
        corrections=tuple(corrections),
        proven=doc.get("verdict") == "proven",
    )
    return cert
