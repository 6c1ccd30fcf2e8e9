import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import aaatrig
from aaatrig import baselines, polezero, solver
from aaatrig.calculus import derivative_at
from aaatrig.cli import (
    TABLE_BLOCK,
    ingest,
    main,
    model_from_dict,
    model_to_dict,
    read_model,
    read_points,
    write_model,
    write_table,
)
from aaatrig.trigbary import Parity, SampleSet, TrigModel, TWO_PI, evaluate_batch, far_field


def write_csv(path, rows, header="re_z,im_z,re_f,im_f"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def constant_csv(path, n=8, value=3.0):
    xs = np.linspace(0.1, 6.0, n)
    write_csv(path, [(x, 0.0, value, 0.0) for x in xs])


class TestIngest:
    def test_csv_two_points(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(0.0, 0.0, 1.0, 0.0), (3.1415926535897932, 0.0, -1.0, 0.0)])
        ss = ingest(str(p))
        assert ss.size == 2
        assert ss.values[1] == -1.0

    def test_json_canonicalizes(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({
            "points": [[7.0, 0.1], [1.0, 0.0]],
            "values": [[1.0, 0.0], [2.0, 0.0]],
        }))
        ss = ingest(str(p), "json")
        assert abs(ss.points[0] - (7.0 - TWO_PI + 0.1j)) < 1e-14

    def test_duplicates_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 2.0, 0.0)])
        with pytest.raises(ValueError, match="duplicate"):
            ingest(str(p))

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("re_z,im_z,re_f,im_f\n1.0,0.0,1.0,0.0\n1.0,oops,2.0,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest(str(p))

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            ingest(str(p))


class TestModelFile:
    def test_round_trip_byte_identical(self, tmp_path):
        model = TrigModel.build(
            Parity.ODD,
            [0.0, np.pi, 1.234567890123456],
            [1.0 + 0.5j, -1.0, 0.25j],
            [0.3, 1.7 - 0.2j, 2.0],
            err_history=[1.0, 0.1, 1e-15],
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_model(str(p1), model)
        back = read_model(str(p1))
        write_model(str(p2), back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_evaluation_bitwise(self, tmp_path):
        model = TrigModel.build(
            Parity.EVEN, [0.5, 2.5, 4.5], [1.1, -0.7 + 1j, 0.3], [1.0, -1.0, 0.5j]
        )
        p = tmp_path / "m.json"
        write_model(str(p), model)
        back = read_model(str(p))
        zs = np.linspace(0.05, 6.2, 40).astype(complex)
        assert np.array_equal(evaluate_batch(model, zs), evaluate_batch(back, zs))

    def test_dict_schema_guard(self):
        doc = model_to_dict(TrigModel.build(Parity.ODD, [1.0], [1.0], [1.0]))
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            model_from_dict(doc)


class TestCommands:
    def test_fit_constant(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        constant_csv(data)
        out = tmp_path / "run"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
        model = read_model(str(out) + ".model.json")
        assert model.m == 1
        table = (out.parent / (out.name + ".errors.tsv")).read_text().splitlines()
        assert table[0] == "m\tmax_err"
        assert len(table) == 2

    def test_fit_deterministic(self, tmp_path):
        data = tmp_path / "d.csv"
        xs = np.linspace(0.0, 6.2, 64)
        write_csv(data, [(x, 0.0, np.exp(np.sin(x)), 0.0) for x in xs])
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["fit", "--data", str(data), "--out", str(out1)]) == 0
        assert main(["fit", "--data", str(data), "--out", str(out2)]) == 0
        assert (tmp_path / "r1.model.json").read_bytes() == (tmp_path / "r2.model.json").read_bytes()
        assert (tmp_path / "r1.errors.tsv").read_bytes() == (tmp_path / "r2.errors.tsv").read_bytes()

    def test_poles_worked_model(self, tmp_path):
        model = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])
        mp = tmp_path / "m.json"
        write_model(str(mp), model)
        out = tmp_path / "p"
        assert main(["poles", "--model", str(mp), "--out", str(out)]) == 0
        rows = (tmp_path / "p.poles.tsv").read_text().splitlines()
        assert rows[0] == "re_pole\tim_pole\tre_res\tim_res"
        vals = [float(v) for v in rows[1].split("\t")]
        assert abs(vals[0] - np.pi / 2) < 1e-10
        assert abs(vals[1]) < 1e-10
        assert abs(vals[2] + 2.0) < 1e-10
        assert abs(vals[3]) < 1e-10

    def test_even_fit_and_poles_near_pi(self, tmp_path, capsys):
        # A support point 1e-9 from pi must not stop an even fit or its poles.
        xs = TWO_PI * np.arange(400) / 400
        xs[200] = np.pi + 1e-9
        data = tmp_path / "near_pi.csv"
        write_csv(data, [(x, 0.0, 1.0 / (1.05 + np.cos(x)), 0.0) for x in xs])
        out = tmp_path / "run"
        assert main(["fit", "--data", str(data), "--parity", "even", "--out", str(out)]) == 0
        assert main(["poles", "--model", str(out) + ".model.json",
                     "--out", str(tmp_path / "p")]) == 0
        assert capsys.readouterr().err == ""
        rows = np.loadtxt(tmp_path / "p.poles.tsv", skiprows=1, ndmin=2)
        poles = rows[:, 0] + 1j * rows[:, 1]
        for target in (np.pi + 1j * np.arccosh(1.05), np.pi - 1j * np.arccosh(1.05)):
            assert np.min(np.abs(poles - target)) < 1e-6

    def test_eval_round_trip(self, tmp_path):
        model = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])
        mp = tmp_path / "m.json"
        write_model(str(mp), model)
        pts = tmp_path / "pts.csv"
        pts.write_text("re_z,im_z\n" + repr(np.pi / 3) + ",0.0\n")
        out = tmp_path / "e"
        assert main(["eval", "--model", str(mp), "--points", str(pts), "--out", str(out)]) == 0
        row = (tmp_path / "e.values.tsv").read_text().splitlines()[1].split("\t")
        assert abs(float(row[2]) - (2.0 + np.sqrt(3.0))) < 1e-12

    def test_diff_command(self, tmp_path):
        model = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])
        mp = tmp_path / "m.json"
        write_model(str(mp), model)
        pts = tmp_path / "pts.csv"
        pts.write_text("re_z,im_z\n" + repr(3 * np.pi / 2) + ",0.0\n")
        out = tmp_path / "d"
        assert main(["diff", "--model", str(mp), "--points", str(pts),
                     "--order", "1", "--out", str(out)]) == 0
        row = (tmp_path / "d.derivs.tsv").read_text().splitlines()[1].split("\t")
        assert abs(float(row[2]) - 0.5) < 1e-10

    def test_diff_command_matches_derivative_at(self, tmp_path):
        rng = np.random.default_rng(16)
        model = TrigModel.build(Parity.EVEN, [0.5, 2.0, 3.5, 5.0], [1.0, -1.0, 2.0, 0.5j],
                                [1.0, 0.5, -0.7, 0.2])
        mp = tmp_path / "m.json"
        write_model(str(mp), model)
        zs = rng.uniform(0.0, 1.0, 50) + 1j * rng.uniform(-0.1, 0.1, 50)
        pts = tmp_path / "pts.csv"
        write_csv(pts, [(z.real, z.imag) for z in zs], header="re_z,im_z")
        out = tmp_path / "d"
        assert main(["diff", "--model", str(mp), "--points", str(pts), "--order", "2",
                     "--period", "1.0", "--out", str(out)]) == 0
        rows = np.loadtxt(tmp_path / "d.derivs.tsv", skiprows=1)
        expected = [derivative_at(read_model(str(mp)), z * TWO_PI, 2) * TWO_PI**2 for z in zs]
        np.testing.assert_allclose(rows[:, 2] + 1j * rows[:, 3], expected, rtol=1e-14, atol=0.0)

    def test_period_rescaling(self, tmp_path):
        # Data periodic with period 1; the model must reproduce values.
        xs = np.linspace(0.0, 0.99, 50)
        data = tmp_path / "p.csv"
        write_csv(data, [(x, 0.0, np.sin(2 * np.pi * x), 0.0) for x in xs])
        out = tmp_path / "per"
        assert main(["fit", "--data", str(data), "--period", "1.0",
                     "--out", str(out)]) == 0
        model = read_model(str(out) + ".model.json")
        pts = tmp_path / "q.csv"
        pts.write_text("re_z,im_z\n0.125,0.0\n")
        assert main(["eval", "--model", str(out) + ".model.json", "--points",
                     str(pts), "--period", "1.0", "--out", str(tmp_path / "v")]) == 0
        row = (tmp_path / "v.values.tsv").read_text().splitlines()[1].split("\t")
        assert abs(float(row[2]) - np.sin(2 * np.pi * 0.125)) < 1e-10

    def test_clean_command(self, tmp_path):
        xs = TWO_PI * np.arange(64) / 64
        data = tmp_path / "s.csv"
        write_csv(data, [(x, 0.0, np.exp(np.sin(x)), 0.0) for x in xs])
        out = tmp_path / "f"
        assert main(["fit", "--data", str(data), "--no-cleanup", "--out", str(out)]) == 0
        out2 = tmp_path / "c"
        assert main(["clean", "--model", str(out) + ".model.json",
                     "--data", str(data), "--out", str(out2)]) == 0
        assert (tmp_path / "c.model.json").exists()

    @pytest.mark.parametrize("period, start, n", [
        (1.0, -0.5, 200), (10.0, 0.0, 200), (4 * np.pi, 0.0, 64), (100.0, 0.0, 200),
    ])
    def test_period_applied_before_projection(self, tmp_path, period, start, n):
        # Points outside [0, 2*pi) in user units: rescaled first, then
        # projected onto the strip and checked for duplicates.
        def f(x):
            return np.exp(np.sin(TWO_PI * x / period))
        xs = start + period * np.arange(n) / n
        data = tmp_path / "p.csv"
        write_csv(data, [(x, 0.0, f(x), 0.0) for x in xs])
        out = str(tmp_path / "per")
        assert main(["fit", "--data", str(data), "--period", repr(period), "--out", out]) == 0
        assert read_model(out + ".model.json").m <= 20
        zs = start + period * np.random.default_rng(0).uniform(-1.0, 2.0, 50)
        pts = tmp_path / "q.csv"
        write_csv(pts, [(z, 0.0) for z in zs], header="re_z,im_z")
        assert main(["eval", "--model", out + ".model.json", "--points", str(pts),
                     "--period", repr(period), "--out", str(tmp_path / "v")]) == 0
        rows = np.loadtxt(tmp_path / "v.values.tsv", skiprows=1)
        assert np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - f(zs))) <= 1e-12

    @pytest.mark.parametrize("period, start", [(1.0, -0.5), (10.0, 0.0)])
    def test_clean_period_applied_before_projection(self, tmp_path, period, start):
        xs = start + period * np.arange(200) / 200
        fs = np.exp(np.sin(TWO_PI * xs / period))
        data = tmp_path / "p.csv"
        write_csv(data, [(x, 0.0, v, 0.0) for x, v in zip(xs, fs)])
        samples = SampleSet.from_data(xs * (TWO_PI / period), fs)
        raw = solver.fit(samples, solver.FitConfig(rel_tol=0.0, max_order=30, cleanup=False))
        write_model(str(tmp_path / "raw.json"), raw)
        assert main(["clean", "--model", str(tmp_path / "raw.json"), "--data", str(data),
                     "--period", repr(period), "--out", str(tmp_path / "c")]) == 0
        cleaned = read_model(str(tmp_path / "c.model.json"))
        assert cleaned.m < raw.m
        assert np.max(np.abs(evaluate_batch(cleaned, samples.points) - fs)) <= 1e-12

    def test_clean_holds_far_field(self, tmp_path):
        # Model files do not record --finf, so clean takes it again; cleaned
        # without it, this model's far field drifts to about -1.32 -+ 0.14i.
        xs = TWO_PI * np.arange(1000) / 1000
        data = tmp_path / "s.csv"
        write_csv(data, [(x, 0.0, np.tanh(60.0 * np.cos(x)), 0.0) for x in xs])
        out = tmp_path / "f"
        assert main(["fit", "--data", str(data), "--finf", "0,0", "--no-cleanup",
                     "--out", str(out)]) == 0
        assert main(["clean", "--model", str(out) + ".model.json", "--data", str(data),
                     "--finf", "0,0", "--out", str(tmp_path / "c")]) == 0
        raw, cleaned = read_model(str(out) + ".model.json"), read_model(str(tmp_path / "c.model.json"))
        assert cleaned.m < raw.m
        ff = far_field(cleaned)
        assert max(abs(ff.f_plus), abs(ff.f_minus)) <= 1e-7

    def test_clean_judges_converged_by_rel_tol(self, tmp_path):
        # Fitted to 1e-11, this model's cleanup re-solve lands at 2.8e-12:
        # converged against the fit's tolerance, not against the default.
        xs = TWO_PI * np.arange(1000) / 1000
        data = tmp_path / "s.csv"
        write_csv(data, [(x, 0.0, np.tanh(60.0 * np.cos(x)), 0.0) for x in xs])
        out = tmp_path / "f"
        assert main(["fit", "--data", str(data), "--tol", "1e-11", "--no-cleanup",
                     "--out", str(out)]) == 0
        assert read_model(str(out) + ".model.json").converged
        cleaned = {}
        for name, extra in (("default", []), ("fit-tol", ["--rel-tol", "1e-11"])):
            assert main(["clean", "--model", str(out) + ".model.json", "--data", str(data),
                         *extra, "--out", str(tmp_path / name)]) == 0
            cleaned[name] = read_model(str(tmp_path / name) + ".model.json")
        err = cleaned["default"].err_history[-1]
        assert 1e-13 < err <= 1e-11
        assert not cleaned["default"].converged
        assert cleaned["fit-tol"].converged

    def test_compare_fft_small(self, tmp_path):
        out = tmp_path / "cf"
        assert main(["compare-fft", "--n", "200", "--mmax", "12", "--out", str(out)]) == 0
        for suffix in (".aaatrig.tsv", ".fft.tsv"):
            rows = (tmp_path / ("cf" + suffix)).read_text().splitlines()
            assert rows[0] == "m\tmax_err"
            assert len(rows) >= 2

    def test_compare_aaa_small(self, tmp_path):
        out = tmp_path / "ca"
        assert main(["compare-aaa", "--n", "200", "--mmax", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        assert (tmp_path / "ca.aaatrig.tsv").exists()
        assert (tmp_path / "ca.aaa.tsv").exists()

    def test_lightning_demo_small(self, tmp_path):
        out = tmp_path / "ld"
        assert main(["lightning-demo", "--per-corner", "12", "--runge", "10",
                     "--out", str(out)]) == 0
        field = (tmp_path / "ld.field.tsv").read_text().splitlines()
        assert field[0] == "re_z\tim_z\tre_f\tim_f"
        assert len(field) > 100
        assert (tmp_path / "ld.compressed.model.json").exists()

    def test_fit_with_far_field_constraint(self, tmp_path):
        xs = TWO_PI * (np.arange(80) + 0.5) / 80  # avoid the pole at pi/2
        data = tmp_path / "s.csv"
        # Data generated by a model with far field +-i.
        f = -1.0 / np.tan((xs - np.pi / 2) / 2.0)
        write_csv(data, [(x, 0.0, v, 0.0) for x, v in zip(xs, f)])
        out = tmp_path / "ff"
        assert main(["fit", "--data", str(data), "--finf", "0,1;0,-1",
                     "--out", str(out)]) == 0
        model = read_model(str(out) + ".model.json")
        ff = far_field(model)
        assert abs(ff.f_plus - 1j) < 1e-6
        assert abs(ff.f_minus + 1j) < 1e-6

    @pytest.mark.parametrize("finf, parity, message", [
        ("nope", "odd", "malformed --finf"),
        ("1", "odd", "malformed --finf"),
        ("1,2,3", "odd", "malformed --finf"),
        ("0,0;0,0;0,0", "odd", "--finf takes at most two values"),
        ("0,0;0,1", "even", "even parity takes a single far-field value"),
    ], ids=["nope", "one-number", "three-numbers", "three-pairs-odd", "two-pairs-even"])
    def test_bad_finf_rejected(self, tmp_path, capsys, finf, parity, message):
        data = tmp_path / "c.csv"
        constant_csv(data)
        assert main(["fit", "--data", str(data), "--finf", finf, "--parity", parity,
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aaatrig: error: ")
        assert message in err[0]

    @pytest.mark.parametrize("command", ["fit", "clean", "clean --rel-tol"])
    def test_nan_tolerance_rejected(self, tmp_path, capsys, command):
        data = tmp_path / "c.csv"
        constant_csv(data)
        command, _, flag = command.partition(" ")
        argv = [command, "--data", str(data), flag or "--tol", "nan", "--out", str(tmp_path / "x")]
        if command == "clean":
            mp = tmp_path / "m.json"
            write_model(str(mp), TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0]))
            argv += ["--model", str(mp)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aaatrig: error: ")
        assert "tol must be nonnegative" in err[0]
        assert not (tmp_path / "x.model.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        write_csv(data, [(0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 2.0, 0.0)])
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("model_doc, points_doc", [
        ({"schema_version": 1}, {"points": [[0.5, 0.0]]}),
        ([1, 2], {"points": [[0.5, 0.0]]}),
        (None, {"pts": []}),
        (None, [1, 2]),
    ])
    def test_malformed_json_files_exit_code(self, tmp_path, capsys, model_doc, points_doc):
        mp, pp = tmp_path / "m.json", tmp_path / "p.json"
        if model_doc is None:
            write_model(str(mp), TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0]))
        else:
            mp.write_text(json.dumps(model_doc))
        pp.write_text(json.dumps(points_doc))
        assert main(["eval", "--model", str(mp), "--format", "json", "--points", str(pp),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aaatrig: error: ")

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        from aaatrig import solver

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(solver, "fit", out_of_memory)
        data = tmp_path / "c.csv"
        constant_csv(data)
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == ["aaatrig: error: MemoryError"]

    @pytest.mark.parametrize("period", ["-1", "0", "nan", "inf", "1e-310"])
    def test_bad_period_is_usage_error(self, tmp_path, capsys, period):
        data = tmp_path / "c.csv"
        constant_csv(data)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data), "--period", period, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--period" in capsys.readouterr().err
        assert not (tmp_path / "x.model.json").exists()

    @pytest.mark.parametrize("command, where", [
        ("fit", "header"), ("fit", "row"), ("eval", "header"), ("eval", "row"),
    ])
    def test_overlong_csv_field_is_one_error_line(self, tmp_path, capsys, command, where):
        # A field beyond csv.field_size_limit() (131072 characters).
        long = "x" * 200_000
        path = tmp_path / "in.csv"
        if command == "fit":
            header, body = "re_z,im_z,re_f,im_f", "1.0,0.0,1.0,0.0\n2.0,0.0,1.0," + long
            argv = ["fit", "--data", str(path)]
        else:
            header, body = "re_z,im_z", "0.5,0.0\n1.5,0.0," + long
            write_model(str(tmp_path / "m.json"),
                        TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0]))
            argv = ["eval", "--model", str(tmp_path / "m.json"), "--points", str(path)]
        if where == "header":
            header = long + header
        path.write_text(header + "\n" + body + "\n")
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aaatrig: error: ")
        line = "line 1" if where == "header" else "line 3"
        assert str(path) in err[0] and line in err[0] and "field limit" in err[0]

    def test_derivative_scale_overflow_is_one_error_line(self, tmp_path, capsys):
        mp, pts = tmp_path / "m.json", tmp_path / "p.csv"
        write_model(str(mp), TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0]))
        # The point maps to 2*pi*i, clear of the support; the scale (2*pi*1e80)**4
        # overflows.
        pts.write_text("re_z,im_z\n0.0,1e-80\n")
        assert main(["diff", "--model", str(mp), "--points", str(pts), "--period", "1e-80",
                     "--order", "4", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aaatrig: error: ") and "--period" in err[0]
        assert not (tmp_path / "d.derivs.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "diff", "poles"])
    @pytest.mark.parametrize("field", ["support", "fvals", "weights"])
    def test_non_finite_model_is_one_error_line(self, tmp_path, capsys, command, field):
        doc = model_to_dict(TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0]))
        doc[field][1][0] = float("nan")
        mp, pts = tmp_path / "m.json", tmp_path / "p.csv"
        mp.write_text(json.dumps(doc))
        pts.write_text("re_z,im_z\n0.5,0.0\n")
        argv = [command, "--model", str(mp), "--out", str(tmp_path / "o")]
        if command != "poles":
            argv += ["--points", str(pts)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aaatrig: error: ") and "finite" in err[0]
        assert list(tmp_path.glob("o.*")) == []

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # missing required flags
        assert exc.value.code == 2

    def test_unread_option_is_usage_error(self, tmp_path, capsys):
        # compare-aaa reads no input file, so it takes no --period.
        with pytest.raises(SystemExit) as exc:
            main(["compare-aaa", "--period", "1", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert "--period" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Table bytes and points parsing, against cell-by-cell references


def reference_table(header, rows):
    """Table text by the per-cell rule: repr(float(v)), or str(int(v)) for ints."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row
        ))
    return "".join(line + "\n" for line in lines)


def complex_rows(a, b):
    return [(x.real, x.imag, y.real, y.imag) for x, y in zip(a, b)]


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, 2.0**53 + 2]


class TestWriteTable:
    n = 2 * TABLE_BLOCK + 3

    def test_float_array_across_blocks(self, tmp_path):
        rng = np.random.default_rng(30)
        data = rng.standard_normal((self.n, 4)) * 10.0 ** rng.integers(-300, 300, (self.n, 4))
        cells = data.reshape(-1)
        cells[::7] = np.resize(SPECIAL_FLOATS, len(cells[::7]))
        p = tmp_path / "t.tsv"
        write_table(str(p), ["a", "b", "c", "d"], data)
        assert p.read_text() == reference_table(["a", "b", "c", "d"], data)

    def test_int_column_across_blocks(self, tmp_path):
        errs = np.resize(SPECIAL_FLOATS, self.n)
        rows = [(m + 1, e) for m, e in enumerate(errs.tolist())]
        p = tmp_path / "t.tsv"
        write_table(str(p), ["m", "max_err"], rows)
        text = p.read_text()
        assert text == reference_table(["m", "max_err"], rows)
        assert text.splitlines()[1] == "1\t-0.0"


class TestCommandTableBytes:
    """Each table a command writes is the reference text of the model's outputs."""

    period = 3.5

    @pytest.fixture
    def fitted(self, tmp_path):
        xs = self.period * np.arange(64) / 64
        data = tmp_path / "d.csv"
        write_csv(data, [(x, 0.0, 1.0 / (2.0 + np.sin(TWO_PI * x / self.period)), 0.0)
                         for x in xs])
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data), "--period", str(self.period),
                     "--out", str(out)]) == 0
        rng = np.random.default_rng(31)
        zs = rng.uniform(-1.0, 7.0, 300) + 1j * rng.uniform(-50.0, 50.0, 300)
        zs[:20] = zs[:20].real
        pts = tmp_path / "pts.csv"
        write_csv(pts, [(z.real, z.imag) for z in zs], header="re_z,im_z")
        return str(out), read_model(str(out) + ".model.json"), str(pts), zs

    def test_errors_table(self, fitted):
        out, model, _, _ = fitted
        expected = reference_table(["m", "max_err"],
                                   [(m + 1, e) for m, e in enumerate(model.err_history)])
        assert Path(out + ".errors.tsv").read_text() == expected

    def test_eval_table(self, fitted, tmp_path):
        out, model, pts, zs = fitted
        assert main(["eval", "--model", out + ".model.json", "--points", pts,
                     "--period", str(self.period), "--out", str(tmp_path / "e")]) == 0
        vals = evaluate_batch(model, zs * (TWO_PI / self.period))
        expected = reference_table(["re_z", "im_z", "re_f", "im_f"], complex_rows(zs, vals))
        assert (tmp_path / "e.values.tsv").read_text() == expected

    def test_diff_table(self, fitted, tmp_path):
        out, model, pts, zs = fitted
        assert main(["diff", "--model", out + ".model.json", "--points", pts, "--order", "2",
                     "--period", str(self.period), "--out", str(tmp_path / "d")]) == 0
        derivs = derivative_at(model, zs * (TWO_PI / self.period), 2)
        derivs = derivs * (TWO_PI / self.period) ** 2
        expected = reference_table(["re_z", "im_z", "re_df", "im_df"], complex_rows(zs, derivs))
        assert (tmp_path / "d.derivs.tsv").read_text() == expected

    def test_poles_table(self, fitted, tmp_path):
        out, model, _, _ = fitted
        assert main(["poles", "--model", out + ".model.json", "--period", str(self.period),
                     "--out", str(tmp_path / "p")]) == 0
        report = polezero.poles_and_zeros(model)
        factor = self.period / TWO_PI
        assert len(report.poles) > 0
        rows = [((p * factor).real, (p * factor).imag, (r * factor).real, (r * factor).imag)
                for p, r in zip(report.poles, report.residues)]
        expected = reference_table(["re_pole", "im_pole", "re_res", "im_res"], rows)
        assert (tmp_path / "p.poles.tsv").read_text() == expected

    def test_fft_table(self, tmp_path):
        assert main(["compare-fft", "--n", "200", "--mmax", "12",
                     "--out", str(tmp_path / "cf")]) == 0
        x = TWO_PI * np.arange(200) / 200
        samples = SampleSet.from_data(x.astype(complex), np.tanh(60.0 * np.cos(x)).astype(complex))
        orders = np.arange(1, 13)
        errs = baselines.fft_least_squares_errors(samples, orders)
        expected = reference_table(["m", "max_err"], zip(orders, errs))
        assert (tmp_path / "cf.fft.tsv").read_text() == expected


def csv_read_points(path):
    """Points by the csv-module loop alone: the reference for read_points."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                points.append(complex(float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: line {lineno}: malformed point")
    return np.asarray(points, dtype=complex)


POINTS_CORPUS = {
    "blank_line": "1.0,2.0\n\n3.0,4.0\n",
    "whitespace_line": "1.0,2.0\n \t \n3.0,4.0\n",
    "crlf": "1.0,2.0\r\n3.0,4.0\r\n",
    "spaces": " 1.0 , 2.0 \n\t3.5\t,-4.0\n",
    "extra_column": "1.0,2.0,9.0\n3.0,4.0\n",
    "extra_columns_uniform": "1.0,2.0,9.0,8.0\n3.0,4.0,7.0,6.0\n",
    "extra_text_column": "1.0,2.0,a\n3.0,4.0,b\n",
    "quoted": '"1.0",2.0\n3.0,"4.0"\n',
    "quote_spans_lines": '1.0,2.0,"a\n3.0,4.0,"\n5.0,6.0\n',
    "underscore": "1_0,2.0\n",
    "nan": "nan,-nan\nNaN,1.0\n",
    "inf": "1.0,inf\n-inf,1.0\n",
    "negative_zero": "-0.0,-0.0\n0.0,-0.0\n",
    "subnormal": "5e-324,2.2250738585072014e-309\n",
    "no_final_newline": "1.0,2.0\n3.0,4.0",
    "header_only": "",
}


class TestReadPoints:
    @staticmethod
    def points_file(tmp_path, body):
        p = tmp_path / "pts.csv"
        header = "re_z,im_z\r\n" if "\r\n" in body else "re_z,im_z\n"
        with open(p, "w", newline="") as fh:
            fh.write(header + body)
        return str(p)

    @pytest.mark.parametrize("name", sorted(POINTS_CORPUS))
    def test_matches_csv_loop_bitwise(self, tmp_path, name):
        path = self.points_file(tmp_path, POINTS_CORPUS[name])
        got, want = read_points(path), csv_read_points(path)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body", [
        "1.0,2.0\n1.0,oops\n",
        "1.0,2.0\n1.0\n",
        "1.0,2.0\n#1.0,2.0\n",
        "0x10,2.0\n",
        "1.0,2.0\n3.0,4.0\n1d3,2.0\n",
        "1.0,2.0\n \n\"1.0\",oops\n",
    ])
    def test_malformed_line_matches_csv_loop(self, tmp_path, body):
        path = self.points_file(tmp_path, body)
        with pytest.raises(ValueError) as want:
            csv_read_points(path)
        with pytest.raises(ValueError) as got:
            read_points(path)
        assert str(got.value) == str(want.value)
        assert "malformed point" in str(got.value)

    def test_header_only_is_silent(self, tmp_path):
        path = self.points_file(tmp_path, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_points(path).shape == (0,)

    def test_eval_memory_is_arrays_plus_one_block(self, tmp_path):
        n = 200_000
        rng = np.random.default_rng(32)
        model = TrigModel.build(Parity.ODD, rng.uniform(0.0, TWO_PI, 8),
                                rng.standard_normal(8), rng.standard_normal(8))
        mp = tmp_path / "m.json"
        write_model(str(mp), model)
        pts = tmp_path / "pts.csv"
        xy = np.column_stack([rng.uniform(0.0, TWO_PI, n), rng.uniform(-1.0, 1.0, n)])
        np.savetxt(pts, xy, delimiter=",", header="re_z,im_z", comments="")
        argv = ["eval", "--model", str(mp), "--points", str(pts), "--out", str(tmp_path / "e")]
        assert main(argv) == 0  # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The point, value and output arrays take 16 MB of this.
        assert peak < 28 * 2**20


class TestModuleEntryPoint:
    """python -m aaatrig, across a real process boundary."""

    @staticmethod
    def run(args, cwd):
        src = str(Path(aaatrig.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "aaatrig", *args], cwd=cwd,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=300)

    @staticmethod
    def model_file(tmp_path):
        mp = tmp_path / "m.json"
        write_model(str(mp), TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0]))
        return str(mp)

    def test_eval_exits_0(self, tmp_path):
        mp = self.model_file(tmp_path)
        pts = tmp_path / "pts.csv"
        pts.write_text("re_z,im_z\n0.5,0.0\n1.5,-2.0\n")
        done = self.run(["eval", "--model", mp, "--points", str(pts), "--out", "e"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert main(["eval", "--model", mp, "--points", str(pts),
                     "--out", str(tmp_path / "ref")]) == 0
        assert (tmp_path / "e.values.tsv").read_bytes() == (tmp_path / "ref.values.tsv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["eval", "--points", "long.csv"],
        ["diff", "--points", "pts.csv", "--period", "1e-80", "--order", "4"],
    ])
    def test_cli_failure_is_one_error_line(self, tmp_path, argv):
        (tmp_path / "pts.csv").write_text("re_z,im_z\n0.0,1e-80\n")
        (tmp_path / "long.csv").write_text("re_z,im_z\n0.5,0.0," + "x" * 200_000 + "\n")
        done = self.run([*argv, "--model", self.model_file(tmp_path), "--out", "o"], tmp_path)
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1, done.stderr
        assert err[0].startswith("aaatrig: error: ")
        assert "Traceback" not in done.stderr

    def test_malformed_points_is_one_error_line(self, tmp_path):
        mp = self.model_file(tmp_path)
        pts = tmp_path / "pts.csv"
        pts.write_text("re_z,im_z\n0.5,0.0\n1.5,oops\n")
        done = self.run(["eval", "--model", mp, "--points", str(pts), "--out", "e"], tmp_path)
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1, done.stderr
        assert err[0].startswith("aaatrig: error: ") and "line 3" in err[0]
        assert "Traceback" not in done.stderr
