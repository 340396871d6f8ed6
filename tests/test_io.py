import pytest
from hypothesis import given, settings

from toricfans.errors import ParseError, PreconditionError, ReconstructionError
from toricfans.fan import LatticeFan, validate
from toricfans.fanio import (
    batch_classify,
    batch_csv,
    build_bundle_over_p1,
    emit_fan,
    parse_fan,
    parse_relations,
    reconstruct_fan,
    relations_of_fan,
    write_fan,
)
from toricfans.primitive import (
    is_fano,
    minimal_p_dimension,
    primitive_relations,
)

from fixtures import (
    b3,
    fivefold,
    fivefold_text,
    p1xp1,
    p2,
    pn,
    sixfold,
    small_zoo,
)
from test_enumerator import blown_up_fans


class TestToricfanFormat:
    @pytest.mark.parametrize("name,fan,_,__", small_zoo())
    def test_round_trip(self, name, fan, _, __):
        text = emit_fan(fan)
        back = parse_fan(text)
        assert back == fan
        assert emit_fan(back) == text  # canonical emission is byte-stable

    @given(blown_up_fans())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_after_blowups(self, fan):
        # blowups label their rays by joining the center's labels with "+"
        text = emit_fan(fan)
        back = parse_fan(text)
        assert back == fan
        assert [r.label for r in back.rays] == [r.label for r in fan.rays]
        assert emit_fan(back) == text

    def test_b3_with_labels(self):
        text = emit_fan(b3())
        assert "# v1" in text and text.startswith("TORICFAN 1\ndim 3 rays 5 maxcones 6\n")
        assert parse_fan(text) == b3()

    def test_point_round_trip(self):
        # the one cone of the fan of a point has no indices: a blank line
        point = LatticeFan(0, [], [()])
        text = emit_fan(point)
        assert text == "TORICFAN 1\ndim 0 rays 0 maxcones 1\n\n"
        back = parse_fan(text)
        assert back == point and back.validation.ok
        assert emit_fan(back) == text
        with pytest.raises(ParseError):
            parse_fan("TORICFAN 1\ndim 0 rays 0 maxcones 2\n\n\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_fan("NOTAFAN 1\ndim 2 rays 0 maxcones 0\n")

    def test_rank_mismatch(self):
        text = "TORICFAN 1\ndim 2 rays 3 maxcones 3\n1 0 0\n0 1\n-1 -1\n0 1\n1 2\n0 2\n"
        with pytest.raises(ParseError) as err:
            parse_fan(text)
        assert err.value.line == 3

    def test_index_overflow(self):
        text = "TORICFAN 1\ndim 2 rays 3 maxcones 1\n1 0\n0 1\n-1 -1\n0 7\n"
        with pytest.raises(ParseError):
            parse_fan(text)

    def test_wrong_counts(self):
        text = "TORICFAN 1\ndim 2 rays 3 maxcones 3\n1 0\n0 1\n"
        with pytest.raises(ParseError):
            parse_fan(text)

    def test_comments_and_blank_lines_tolerated(self):
        text = emit_fan(p2())
        with_noise = "# leading comment\n\n" + text + "\n# trailing\n"
        assert parse_fan(with_noise) == p2()


class TestRelationsFormat:
    def test_basic(self):
        pres = parse_relations("x0 + x1 + x2 = 0\nx1 + a = b\nu + v = 2 b + c\n")
        assert pres.names == ("x0", "x1", "x2", "a", "b", "u", "v", "c")
        assert pres.relations[0].rhs == ()
        assert pres.relations[2].rhs == (("b", 2), ("c", 1))

    def test_juxtaposed_coefficient(self):
        pres = parse_relations("u + v = 2b\n")
        assert pres.relations[0].rhs == (("b", 2),)

    def test_lhs_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_relations("2 u + v = b\n")

    def test_overlap_rejected(self):
        with pytest.raises(ParseError):
            parse_relations("u + v = u\n")

    def test_no_relations(self):
        with pytest.raises(ParseError):
            parse_relations("# nothing here\n")


class TestReconstruct:
    def test_p2_forced(self):
        f = reconstruct_fan(parse_relations("x0 + x1 + x2 = 0\n"), 2)
        assert validate(f).ok and f.n_rays == 3
        assert minimal_p_dimension(f) == 2

    @pytest.mark.parametrize("mid", [550, 659, 708])
    def test_fivefolds(self, mid):
        f = fivefold(mid)
        assert validate(f).ok and is_fano(f)
        assert f.n_rays - f.rank == 5
        assert len(primitive_relations(f)) == 8

    @pytest.mark.parametrize("mid", [276, 333, 338])
    def test_sixfolds(self, mid):
        f = sixfold(mid)
        assert validate(f).ok and is_fano(f)
        assert f.n_rays - f.rank == 5
        assert len(primitive_relations(f)) == 8

    def test_deleted_relation_detected(self):
        # dropping one relation leaves the system solvable but the recomputed
        # collections no longer match the presentation
        lines = [l for l in fivefold_text(550).strip().split("\n") if "u + v" not in l]
        with pytest.raises(ReconstructionError):
            reconstruct_fan(parse_relations("\n".join(lines)), 5)

    def test_underdetermined(self):
        # rank-1 system for two unknown rays
        text = "x0 + x1 = u + v\nu + v = x0 + x1\n"
        with pytest.raises(ReconstructionError) as err:
            reconstruct_fan(parse_relations(text), 2)
        assert "underdetermined" in str(err.value)

    def test_round_trip_through_relations(self):
        for fan in (p2(), p1xp1(), b3(), pn(4), fivefold(550)):
            pres = relations_of_fan(fan)
            rebuilt = reconstruct_fan(pres, fan.rank)
            # same combinatorics up to the basis choice
            back = relations_of_fan(rebuilt)
            normal = lambda p: sorted(
                (tuple(sorted(r.lhs)), tuple(sorted(r.rhs))) for r in p.relations
            )
            assert normal(back) == normal(pres)
            assert len(rebuilt.max_cones) == len(fan.max_cones)


class TestBundleBuilder:
    def test_trivial_bundle_is_product(self):
        f = build_bundle_over_p1([0, 0, 0])
        assert validate(f).ok
        degs = sorted(r.degree for r in primitive_relations(f))
        assert degs == [2, 3]  # fiber and base relations of P2 x P1
        assert minimal_p_dimension(f) == 1

    def test_b3_up_to_relabeling(self):
        f = build_bundle_over_p1([0, 0, 1])
        degs = sorted((r.order, r.degree) for r in primitive_relations(f))
        b = b3()
        assert degs == sorted((r.order, r.degree) for r in primitive_relations(b))
        assert minimal_p_dimension(f) == minimal_p_dimension(b) == 2
        from toricfans.chern import screen_2fano

        assert screen_2fano(f)[1] == screen_2fano(b)[1]

    def test_f1(self):
        f = build_bundle_over_p1([0, 1])
        degs = sorted(r.degree for r in primitive_relations(f))
        assert degs == [1, 2]

    def test_degree_data(self):
        f = build_bundle_over_p1([1, 2, 4])
        by_order = {r.order: r.degree for r in primitive_relations(f)}
        assert by_order[3] == 3  # fiber relation, m + 1
        assert by_order[2] == 2 - ((2 - 1) + (4 - 1))  # base relation

    def test_bad_length(self):
        with pytest.raises(PreconditionError):
            build_bundle_over_p1([0])


class TestBatch:
    def test_single_p2(self, tmp_path):
        write_fan(p2(), tmp_path / "p2.fan")
        rows, hist = batch_classify(tmp_path)
        assert len(rows) == 1
        row = rows[0]
        assert (row.dim, row.rays, row.picard_rank) == (2, 3, 1)
        assert row.fano and row.m == 2 and row.rpc_count == 0
        assert str(row.min_ch2) == "3/2"
        assert hist == {2: {2: 1}}

    def test_histogram_and_csv_stability(self, tmp_path):
        for name, fan, _, _m in small_zoo():
            write_fan(fan, tmp_path / f"{name}.fan")
        rows1, hist = batch_classify(tmp_path, workers=1)
        rows2, _ = batch_classify(tmp_path, workers=3)
        assert batch_csv(rows1) == batch_csv(rows2)
        assert hist[2] == {1: 3, 2: 1}  # P1xP1, BlP2, F2 have m=1; P2 has m=2
        assert hist[3] == {2: 1, 3: 1}  # B3 and P3

    @pytest.mark.parametrize("n_files,workers,pool_size", [(3, 5000, 3), (6, 4, 4), (1, 8, None), (0, 8, None)])
    def test_pool_never_outnumbers_the_files(self, tmp_path, monkeypatch, n_files, workers, pool_size):
        # a fake pool records the size asked for, so no large pool is started
        from toricfans import fanio

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        for name, fan, _, _m in small_zoo()[:n_files]:
            write_fan(fan, tmp_path / f"{name}.fan")
        serial, _ = batch_classify(tmp_path, workers=1)
        monkeypatch.setattr(fanio, "ProcessPoolExecutor", FakePool)
        rows, _ = batch_classify(tmp_path, workers=workers)
        assert sizes == ([pool_size] if pool_size else [])
        assert batch_csv(rows) == batch_csv(serial)

    @pytest.mark.parametrize("n_files", [0, 2])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_is_an_error(self, tmp_path, n_files, workers):
        # checked before the pool is clamped to the file count, so an empty
        # directory rejects it too
        for name, fan, _, _m in small_zoo()[:n_files]:
            write_fan(fan, tmp_path / f"{name}.fan")
        with pytest.raises(PreconditionError, match="workers must be at least 1"):
            batch_classify(tmp_path, workers=workers)

    def test_unreadable_file_listed(self, tmp_path):
        (tmp_path / "broken.fan").write_text("not a fan\n")
        write_fan(p2(), tmp_path / "ok.fan")
        rows, _ = batch_classify(tmp_path)
        by_name = {r.file: r for r in rows}
        assert by_name["broken.fan"].error
        assert not by_name["ok.fan"].error
        assert batch_csv(rows).startswith("file,dim,")

    def test_bad_input_is_a_plain_row_error(self, tmp_path, capsys):
        from toricfans.cli import main

        (tmp_path / "binary.fan").write_bytes(b"\xff\xfe\x00")
        (tmp_path / "huge.fan").write_text("TORICFAN 1\ndim 1" + "0" * 5000 + " rays 1 maxcones 1\n")
        (tmp_path / "folder.fan").mkdir()
        (tmp_path / "line.fan").write_text("TORICFAN 1\ndim 1 rays 2 maxcones 2\n1\n-1\n0\n1\n")
        rows, _ = batch_classify(tmp_path)
        by_name = {r.file: r for r in rows}
        assert by_name["binary.fan"].error.startswith("not UTF-8 text")  # ParseError
        assert by_name["huge.fan"].error == "line 2: size line numbers are too large"
        assert "directory" in by_name["folder.fan"].error  # OSError
        assert by_name["line.fan"].error == "screening needs dimension >= 2"
        assert not any(r.internal for r in rows)
        assert main(["batch", str(tmp_path), "-o", str(tmp_path / "out.csv")]) == 0

    def test_internal_error_is_tagged_and_fails_the_run(self, tmp_path, monkeypatch, capsys):
        from toricfans import fanio
        from toricfans.cli import main

        def broken(f):
            raise IndexError("tuple index out of range")

        write_fan(p2(), tmp_path / "p2.fan")
        monkeypatch.setattr(fanio, "screen_2fano", broken)
        row = fanio.classify_file(str(tmp_path / "p2.fan"))
        assert row.error == "internal: IndexError: tuple index out of range" and row.internal
        out = tmp_path / "out.csv"
        assert main(["batch", str(tmp_path), "-o", str(out)]) == 1
        assert out.read_text().splitlines()[1] == "p2.fan,,,,,,,,,internal: IndexError: tuple index out of range"
        assert "internal: IndexError" in capsys.readouterr().err

    def test_cover_of_degree_two_is_an_error_row(self, tmp_path):
        from fixtures import double_cover_surface
        from toricfans import fanio

        write_fan(double_cover_surface(), tmp_path / "cover.fan")
        # classify meets the cover in the primitive relations, before the screen.
        # r0 + r9 = (0, -3) lies in both sheets: it is 3*r13 in cone (r0, r13),
        # and 3*r9 + 3*r10 in cone (r9, r10), where locate's walk finds it
        row = fanio.classify_file(str(tmp_path / "cover.fan"))
        assert row.error == (
            "primitive collection ('r0', 'r9') meets its focus ('r9', 'r10'): "
            "the cones wind more than once around the origin"
        )
        assert not row.internal

    def test_row_without_centered_collection(self, tmp_path):
        from fixtures import nonprojective_3fold

        write_fan(nonprojective_3fold(), tmp_path / "np.fan")
        rows, hist = batch_classify(tmp_path)
        (row,) = rows
        assert row.m is None and row.rpc_count is None
        assert row.bound_candidate is False and not row.error
        assert hist == {}
        assert ",,," in row.csv()  # empty m and rpc columns

    def test_comma_in_file_name_round_trips(self, tmp_path):
        import csv

        from toricfans.cli import main

        fans = tmp_path / "fans"
        fans.mkdir()
        write_fan(p2(), fans / "a,b.fan")
        write_fan(p2(), fans / "plain.fan")
        out = tmp_path / "out.csv"
        assert main(["batch", str(fans), "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        header, quoted, plain = csv.reader(text.splitlines())
        assert len(header) == len(quoted) == len(plain) == 10
        assert quoted[0] == "a,b.fan" and plain[0] == "plain.fan"
        assert quoted[1:] == plain[1:]
        assert text.splitlines()[2].startswith("plain.fan,2,3,1,")  # unquoted when no comma
