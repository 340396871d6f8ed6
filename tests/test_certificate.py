from fractions import Fraction

import pytest

from toricfans.certificate import (
    ALLOWED_DOUBLED,
    _CASE_TABLE,
    Certificate,
    Correction,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_certificate,
    evaluate_certificate,
)
from toricfans.errors import CertificateError, PreconditionError, UnsupportedError
from toricfans.pipeline import run_step1

from fixtures import (
    B3_CENTERED,
    b3,
    centered_of,
    fivefold,
    flip_fixture_4d,
    flip_fixture_6d,
)


def _cert_for(fan, centered, **kwargs):
    _, log = run_step1(fan, centered)
    return build_certificate(log, **kwargs)


class TestBuild:
    def test_b3_empty_log(self):
        cert = _cert_for(b3(), B3_CENTERED)
        assert cert.corrections == ()
        assert cert.base_doubled == (1, 1, -2)
        assert cert.proven

    def test_fivefold_exceptional_offcut(self):
        f = fivefold(550)
        cert = _cert_for(f, centered_of(f, ("x0", "x1", "x2")))
        (c,) = cert.corrections
        assert c.coefficient == Fraction(3, 2)
        assert c.case == "exceptional-offcut"
        assert c.parameter_ray == "c"
        assert cert.proven

    def test_exceptional_cut_cases(self):
        f = fivefold(550)
        _, log = run_step1(f, centered_of(f, ("x0", "x1", "x2")))
        # steps recorded (i, j) = (1, 0)
        by_cut = {
            cut: build_certificate(log, cut_out=cut).corrections[0]
            for cut in (0, 1, 2)
        }
        assert by_cut[0].coefficient == Fraction(5, 2)  # j cut out
        assert by_cut[0].case == "exceptional-second-cut"
        assert by_cut[1].coefficient == Fraction(1, 2)  # i cut out
        assert by_cut[1].case == "exceptional-first-cut"
        assert by_cut[2].coefficient == Fraction(3, 2)

    def test_flip_cases(self):
        y, xp, cent = flip_fixture_4d()
        _, log = run_step1(xp, cent)
        # single flip with (i, j) = (0, 1)
        assert build_certificate(log).corrections[0].coefficient == 0
        assert build_certificate(log, cut_out=0).corrections[0].coefficient == Fraction(5, 2)
        assert build_certificate(log, cut_out=1).corrections[0].case == "flip-cut"

    def test_double_flip(self):
        y, xp, cent = flip_fixture_6d()
        _, log = run_step1(xp, cent)
        cert = build_certificate(log)
        coeffs = sorted(c.coefficient for c in cert.corrections)
        assert coeffs == [0, Fraction(5, 2)]
        assert cert.proven

    def test_blowdown_cases(self):
        from toricfans.birational import blowup

        up, _ = blowup(b3(), (1, 3))
        cent = tuple(sorted(up.label_index[x] for x in ("v1", "v0", "b")))
        _, log = run_step1(up, cent, require_fano=False)
        (step,) = log.steps
        assert step.kind == "blowdown"
        cut_hits = build_certificate(log, cut_out=step.i).corrections[0]
        cut_misses = build_certificate(log, cut_out=(step.i + 1) % 3).corrections[0]
        assert cut_hits.coefficient == 1 and cut_hits.case == "blowdown-cut"
        assert cut_misses.coefficient == Fraction(3, 2)

    def test_three_blowdown_tower(self):
        from fixtures import blowdown_tower

        _, f, cent = blowdown_tower()
        _, log = run_step1(f, cent)
        cert = build_certificate(log)
        # one contraction per centered index: exactly one hits the cut-out
        coeffs = sorted(c.coefficient for c in cert.corrections)
        assert coeffs == [1, Fraction(3, 2), Fraction(3, 2)]
        assert cert.proven
        assert evaluate_certificate(cert, (0, 0, 0), (1, 1, 1)) == -4

    def test_fiber_dim_guard(self):
        f = fivefold(550)
        _, log = run_step1(f, centered_of(f, ("x0", "x1", "x2")))
        with pytest.raises(UnsupportedError):
            build_certificate(log, fiber_dim=3)


class TestCheck:
    def test_every_table_entry_verifies(self):
        # x-indices giving each role to the cut-out index 2
        indices = {"cut": (2, 0), "off": (0, 1), "i": (2, 0), "j": (0, 2)}
        for (kind, role), (doubled, case) in _CASE_TABLE.items():
            i, j = indices[role]
            cert = Certificate(
                fiber_dim=2,
                cut_out=2,
                base_doubled=(1, 1, -2),
                corrections=(Correction(0, kind, doubled, "m1", "a", case, i, None if kind == "blowdown" else j),),
                proven=False,
            )
            assert check_certificate(cert).proven, (kind, role)

    @pytest.mark.parametrize("doubled", ALLOWED_DOUBLED)
    def test_coefficient_must_match_the_step(self, doubled):
        # an allowed coefficient is not enough: a blowdown that misses the
        # cut-out index takes 3/2 and nothing else
        cert = Certificate(
            fiber_dim=2,
            cut_out=2,
            base_doubled=(1, 1, -2),
            corrections=(Correction(0, "blowdown", doubled, "m1", "a", "blowdown-offcut", 0, None),),
            proven=False,
        )
        if doubled == 3:
            assert check_certificate(cert).proven
        else:
            with pytest.raises(CertificateError):
                check_certificate(cert)

    def test_edited_flip_cut_coefficient_rejected(self):
        y, xp, cent = flip_fixture_4d()
        _, log = run_step1(xp, cent)
        doc = certificate_to_dict(build_certificate(log, cut_out=0), log)
        assert doc["corrections"][0]["coefficient"] == "5/2"
        doc["corrections"][0]["coefficient"] = "0"
        with pytest.raises(CertificateError):
            check_certificate(certificate_from_dict(doc))

    def test_edited_case_or_indices_rejected(self):
        y, xp, cent = flip_fixture_4d()
        _, log = run_step1(xp, cent)
        doc = certificate_to_dict(build_certificate(log, cut_out=0), log)
        for field, value in (("case", "flip-offcut"), ("i", 2), ("kind", "blowup")):
            edited = {**doc, "corrections": [{**doc["corrections"][0], field: value}]}
            with pytest.raises(CertificateError):
                check_certificate(certificate_from_dict(edited))

    @pytest.mark.parametrize("cut_out", (-1, 3))
    def test_cut_out_out_of_range(self, cut_out):
        cert = Certificate(fiber_dim=2, cut_out=cut_out, base_doubled=(1, 1, -2), corrections=(), proven=True)
        with pytest.raises(CertificateError):
            check_certificate(cert)
        with pytest.raises(CertificateError):
            _cert_for(b3(), B3_CENTERED, cut_out=cut_out)

    def test_negative_coefficient_invalid(self):
        cert = Certificate(
            fiber_dim=2,
            cut_out=2,
            base_doubled=(1, 1, -2),
            corrections=(Correction(0, "blowdown", -1, "m1", "a", "case", 0, None),),
            proven=False,
        )
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_disallowed_positive_coefficient_invalid(self):
        cert = Certificate(
            fiber_dim=2,
            cut_out=2,
            base_doubled=(1, 1, -2),
            corrections=(Correction(0, "blowdown", 4, "m1", "a", "case", 0, None),),
            proven=False,
        )
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_bad_base_not_proven(self):
        cert = Certificate(
            fiber_dim=2, cut_out=2, base_doubled=(1, 1, 2), corrections=(), proven=False
        )
        result = check_certificate(cert)
        assert not result.proven and result.reasons

    def test_base_with_nonzero_total_not_proven(self):
        cert = Certificate(
            fiber_dim=2, cut_out=2, base_doubled=(1, 1, -1), corrections=(), proven=False
        )
        assert not check_certificate(cert).proven


class TestEvaluate:
    def _plain(self, corrections=()):
        return Certificate(
            fiber_dim=2, cut_out=2, base_doubled=(1, 1, -2), corrections=corrections, proven=True
        )

    def test_balanced_bundle(self):
        assert evaluate_certificate(self._plain(), (0, 0, 0), ()) == 0

    def test_spec_value(self):
        cert = self._plain(
            (Correction(0, "exceptional_pair", 3, "m1", "c", "case", 1, 0),)
        )
        assert evaluate_certificate(cert, (1, 1, 2), (1,)) == Fraction(-5, 2)

    def test_base_only(self):
        assert evaluate_certificate(self._plain(), (0, 0, 1), ()) == -1

    def test_monotone_in_counts(self):
        cert = self._plain(
            (Correction(0, "flip", 5, "m1", "a", "case", 0, 1),)
        )
        values = [evaluate_certificate(cert, (0, 0, 1), (k,)) for k in range(5)]
        assert values == sorted(values, reverse=True)

    def test_rejects_unordered_degrees(self):
        with pytest.raises(PreconditionError):
            evaluate_certificate(self._plain(), (1, 0, 2), ())

    def test_rejects_negative_counts(self):
        cert = self._plain(
            (Correction(0, "flip", 5, "m1", "a", "case", 0, 1),)
        )
        with pytest.raises(PreconditionError):
            evaluate_certificate(cert, (0, 0, 1), (-1,))


class TestSerialization:
    def test_round_trip(self):
        f = fivefold(550)
        _, log = run_step1(f, centered_of(f, ("x0", "x1", "x2")))
        cert = build_certificate(log)
        doc = certificate_to_dict(cert, log)
        assert doc["cert_version"] == 1
        assert doc["corrections"][0]["coefficient"] == "3/2"
        back = certificate_from_dict(doc)
        assert back == cert

    def test_bad_version(self):
        with pytest.raises(CertificateError):
            certificate_from_dict({"cert_version": 99})

    def test_bad_coefficient_literal(self):
        doc = {
            "cert_version": 1,
            "fiber_dim": 2,
            "cut_out": 2,
            "base": {"a0": "1/2", "a1": "1/2", "a2": "-1"},
            "corrections": [
                {"step": 0, "kind": "blowdown", "coefficient": "x", "parameter": "m1", "i": 0, "j": None}
            ],
            "verdict": "proven",
        }
        with pytest.raises(CertificateError):
            certificate_from_dict(doc)

    def test_negative_half_coefficient_rejected_on_check(self):
        doc = {
            "cert_version": 1,
            "fiber_dim": 2,
            "cut_out": 2,
            "base": {"a0": "1/2", "a1": "1/2", "a2": "-1"},
            "corrections": [
                {"step": 0, "kind": "blowdown", "coefficient": "-1/2", "parameter": "m1", "i": 0, "j": None}
            ],
            "verdict": "proven",
        }
        cert = certificate_from_dict(doc)
        with pytest.raises(CertificateError):
            check_certificate(cert)
