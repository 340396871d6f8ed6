import json
import time

import pytest

from toricfans.cli import main
from toricfans.fan import LatticeFan
from toricfans.fanio import write_fan
from toricfans.pipeline import run_step1, verify_output

from fixtures import b3, double_cover_surface, fivefold, fan_2268, flip_fixture_4d, p2, small_zoo


@pytest.fixture()
def fan_file(tmp_path):
    def make(fan, name="fan.fan"):
        path = tmp_path / name
        write_fan(fan, path)
        return str(path)

    return make


class TestAnalyze:
    def test_b3(self, fan_file, capsys):
        assert main(["analyze", fan_file(b3())]) == 0
        out = capsys.readouterr().out
        assert "minimal_p_dimension: 2" in out
        assert "v2 + v3 = b" in out
        assert "fano: True" in out

    def test_fivefold_lists_exceptional(self, fan_file, capsys):
        assert main(["analyze", fan_file(fivefold(550))]) == 0
        out = capsys.readouterr().out
        assert "exceptional decomposition: cyclic3" in out
        assert out.count("type1") == 3
        assert "picard_rank 5" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.fan"]) == 1

    @pytest.mark.parametrize("command", ["analyze", "pipeline", "diagnose-m3"])
    def test_cover_of_degree_two_is_a_domain_error(self, fan_file, capsys, command):
        # these meet the cover in a primitive relation whose focus meets it
        assert main([command, fan_file(double_cover_surface())]) == 1
        assert "meets its focus" in capsys.readouterr().err

    def test_fan_without_centered_collection(self, fan_file, capsys):
        from fixtures import nonprojective_3fold

        assert main(["analyze", fan_file(nonprojective_3fold())]) == 0
        out = capsys.readouterr().out
        assert "minimal_p_dimension: none" in out

    def test_repeated_centered_ray(self, fan_file, capsys):
        f = b3()
        spec = f"{f.ray_label(0)},0,1"  # ray 0 by its label, then by its index
        assert main(["analyze", fan_file(f), "--centered", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ray '0' is given twice\n"
        assert "centered collection" not in captured.out

    @pytest.mark.parametrize("spec", ["99", "0,0,1", "0,1"])
    def test_bad_centered_spec_prints_nothing(self, fan_file, capsys, spec):
        # an unknown or repeated ray, or rays that are not a centered
        # collection, are rejected before the report starts
        assert main(["analyze", fan_file(b3()), "--centered", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_ambiguous_centered_label(self, fan_file, capsys):
        # rays 0 and 1 are both labelled x; the default centered collection
        # is rays 0 and 2, which reads "x, y" too
        f = LatticeFan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)], ["x", "x", "y", "z"])
        path = fan_file(f)
        assert main(["analyze", path]) == 0
        assert "centered collection: x, y\n" in capsys.readouterr().out
        assert main(["analyze", path, "--centered", "x,y"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: label 'x' names more than one ray\n"
        assert captured.out == ""

    def test_invalid_fan_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.fan"
        path.write_text("TORICFAN 1\ndim 2 rays 3 maxcones 2\n1 0\n0 1\n-1 -1\n0 1\n1 2\n")
        assert main(["analyze", str(path)]) == 1


class TestPipeline:
    def test_b3_trivial(self, fan_file, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["pipeline", fan_file(b3()), "--cert", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "steps: 0" in out
        assert "verdict: proven" in out
        doc = json.loads(cert.read_text())
        assert doc["verdict"] == "proven" and doc["corrections"] == []

    def test_fivefold(self, fan_file, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        out_fan = tmp_path / "y.fan"
        code = main([
            "pipeline", fan_file(fivefold(550)),
            "--centered", "x0,x1,x2",
            "--cert", str(cert), "--out", str(out_fan),
        ])
        assert code == 0
        doc = json.loads(cert.read_text())
        assert doc["corrections"][0]["coefficient"] == "3/2"
        assert out_fan.exists()

    def test_flip_fixture(self, fan_file, capsys):
        _, xp, _ = flip_fixture_4d()
        assert main(["pipeline", fan_file(xp), "--centered", "x0,x1,x2"]) == 0
        out = capsys.readouterr().out
        assert "flip" in out

    def test_centered_by_indices(self, fan_file, capsys):
        _, xp, _ = flip_fixture_4d()
        assert main(["pipeline", fan_file(xp), "--centered", "0,1,2"]) == 0

    @pytest.mark.parametrize(
        "fan,labels", [(b3(), "v1,v0,b"), (fivefold(550), "x0,x1,x2")], ids=["B3", "fivefold550"]
    )
    def test_prints_the_verification_report(self, fan_file, capsys, fan, labels):
        # the report printed is run_step1's own, and reads exactly as a
        # fresh verify_output on the output fan
        assert main(["pipeline", fan_file(fan), "--centered", labels]) == 0
        out = capsys.readouterr().out
        cent = tuple(sorted(fan.label_index[x] for x in labels.split(",")))
        y, log = run_step1(fan, cent)
        report = str(verify_output(y, tuple(y.vector_index[v] for v in log.x_vectors)))
        lines = out.splitlines()
        start = 1 + len(log.steps)
        assert "\n".join(lines[start:start + len(report.splitlines())]) == report
        assert lines[start + len(report.splitlines())].startswith("output: ")

    def test_unknown_centered_ray(self, fan_file):
        assert main(["pipeline", fan_file(b3()), "--centered", "nope,x1,x2"]) == 1


class TestScreen:
    def test_p2(self, fan_file, capsys):
        assert main(["screen", fan_file(p2())]) == 0
        out = capsys.readouterr().out
        assert "minimum: 3/2" in out
        assert out.splitlines()[-1] == "2-Fano if the fan is Fano (invariant surfaces generate the effective cycles)"

    def test_b3_flags_non_2fano(self, fan_file, capsys):
        assert main(["screen", fan_file(b3())]) == 0
        assert "not 2-Fano" in capsys.readouterr().out

    def test_link_winding_twice_is_a_domain_error(self, fan_file, capsys):
        assert main(["screen", fan_file(double_cover_surface())]) == 1
        captured = capsys.readouterr()
        assert "winds more than once" in captured.err and "minimum" not in captured.out


class TestReconstructAndBundle:
    def test_reconstruct(self, tmp_path, capsys):
        rel = tmp_path / "rels.txt"
        rel.write_text("x0 + x1 + x2 = 0\n")
        out = tmp_path / "p2.fan"
        assert main(["reconstruct", str(rel), "-d", "2", "-o", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0

    def test_reconstruct_failure_exit_code(self, tmp_path):
        from fixtures import fivefold_text

        rel = tmp_path / "rels.txt"
        lines = [l for l in fivefold_text(550).strip().split("\n") if "u + v" not in l]
        rel.write_text("\n".join(lines) + "\n")
        assert main(["reconstruct", str(rel), "-d", "5", "-o", str(tmp_path / "x.fan")]) == 1

    def test_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle.fan"
        assert main(["bundle", "-a", "0,0,1", "-o", str(out)]) == 0
        assert main(["screen", str(out)]) == 0
        assert "minimum: -1" in capsys.readouterr().out

    def test_bundle_with_negative_first_degree(self, tmp_path, capsys):
        out = tmp_path / "bundle.fan"
        assert main(["bundle", "-a=-1,2", "-o", str(out)]) == 0
        assert "bundle fan: dim 2, rays 4" in capsys.readouterr().out


class TestBatch:
    def test_batch(self, tmp_path, capsys):
        for name, fan, _, __ in small_zoo():
            write_fan(fan, tmp_path / f"{name}.fan")
        csv = tmp_path / "out.csv"
        assert main(["batch", str(tmp_path), "-o", str(csv)]) == 0
        body = csv.read_text()
        assert body.startswith("file,dim,")
        assert len(body.strip().split("\n")) == 7
        out = capsys.readouterr().out
        assert "dim 2" in out and "dim 3" in out


class TestCheckCert:
    def test_valid(self, fan_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["pipeline", fan_file(fivefold(550)), "--cert", str(cert)])
        assert main(["check-cert", str(cert)]) == 0

    def test_negative_coefficient_fails(self, tmp_path):
        doc = {
            "cert_version": 1,
            "fiber_dim": 2,
            "cut_out": 2,
            "base": {"a0": "1/2", "a1": "1/2", "a2": "-1"},
            "corrections": [
                {"step": 0, "kind": "blowdown", "coefficient": "-1/2",
                 "parameter": "m1", "i": 0, "j": None}
            ],
            "verdict": "proven",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check-cert", str(path)]) == 1

    @staticmethod
    def write(tmp_path, fiber_dim=2, base=("1/2", "1/2", "-1"), verdict="proven"):
        doc = {
            "cert_version": 1,
            "fiber_dim": fiber_dim,
            "cut_out": 2,
            "base": {f"a{i}": c for i, c in enumerate(base)},
            "corrections": [],
            "verdict": verdict,
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_prints_the_base_it_checked(self, tmp_path, capsys):
        # the document claims a proof of a base that grows with a_0 and a_1
        assert main(["check-cert", self.write(tmp_path, base=("1", "1", "0"))]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1*a0 + 1*a1 + 0*a2   [NOT proven]"
        assert lines[-1] == "verdict: unproven"

    def test_prints_the_verdict_it_reached(self, tmp_path, capsys):
        # the canonical base reads as it always has, with the checked verdict
        assert main(["check-cert", self.write(tmp_path, verdict="unproven")]) == 0
        out = capsys.readouterr().out
        assert out == "1/2*(a0+a1) - (a2)   [proven nonpositive]\nverdict: proven\n"

    def test_huge_fiber_dim_is_rejected_quickly(self, tmp_path, capsys):
        path = self.write(tmp_path, fiber_dim=10**12)
        start = time.perf_counter()
        assert main(["check-cert", path]) == 1
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert out.startswith("1/2*a0 + 1/2*a1 - 1*a2   [NOT proven]\n")
        assert "base term has the wrong arity" in out


class TestDiagnose:
    def test_2268(self, fan_file, capsys):
        assert main(["diagnose-m3", fan_file(fan_2268())]) == 0
        out = capsys.readouterr().out
        assert "type6" in out and "type8" in out
        assert "auxiliary candidates" in out

    def test_wrong_m(self, fan_file):
        assert main(["diagnose-m3", fan_file(b3())]) == 1


@pytest.mark.parametrize(
    "argv,code",
    [
        ("analyze {b3} --centered 99", 1),
        ("analyze {b3} --centered 0,0,1", 1),
        ("pipeline {b3} --centered -1", 1),
        ("diagnose-m3 {fan2268} --centered 0,1,2,99", 1),
        ("reconstruct {binary} -d 2 -o {out}", 1),
        ("check-cert {binary}", 1),
        ("check-cert {list}", 1),
        ("batch {b3} -o {out}", 1),
        ("bundle -a 1,x -o {out}", 2),
        ("pipeline {b3} --cut-out 5", 2),
        ("pipeline {b3} --cut-out -1", 2),
        ("batch {dir} -o {out} --workers 0", 2),
        ("batch {dir} -o {out} --workers -3", 2),
        ("batch {dir} -o {out} --workers x", 2),
    ],
)
def test_odd_arguments_exit_without_a_traceback(tmp_path, fan_file, capsys, argv, code):
    binary, listed = tmp_path / "binary.txt", tmp_path / "list.json"
    binary.write_bytes(b"\xff\xfe\x00")
    listed.write_text("[1, 2]")
    paths = {"b3": fan_file(b3()), "fan2268": fan_file(fan_2268(), "2268.fan"), "binary": binary,
             "list": listed, "out": tmp_path / "out", "dir": tmp_path}
    try:
        got = main(argv.format(**paths).split())
    except SystemExit as e:  # argparse's usage error
        got = e.code
    out, err = capsys.readouterr()
    assert got == code and out == ""
    assert "Traceback" not in err and err.startswith("usage: " if code == 2 else "error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
