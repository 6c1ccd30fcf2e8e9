import json

import numpy as np
import pytest

from aaatrig.cli import (
    ingest,
    main,
    model_from_dict,
    model_to_dict,
    read_model,
    write_model,
)
from aaatrig.trigbary import Parity, TrigModel, TWO_PI, evaluate_batch


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
        from aaatrig.trigbary import far_field

        ff = far_field(model)
        assert abs(ff.f_plus - 1j) < 1e-6
        assert abs(ff.f_minus + 1j) < 1e-6

    def test_bad_finf_rejected(self, tmp_path):
        data = tmp_path / "c.csv"
        constant_csv(data)
        assert main(["fit", "--data", str(data), "--finf", "nope",
                     "--out", str(tmp_path / "x")]) == 1

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

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # missing required flags
        assert exc.value.code == 2
