import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from reluspline import cli, deep, net2, pwl, spline
from reluspline.net2 import TwoLayerNet


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def tent_dataset(tmp_path):
    return write(tmp_path / "data.json",
                 {"points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]})


class TestRepcostCommand:
    def test_absval_report(self, tmp_path, capsys):
        path = write(tmp_path / "f.json", pwl.absval().to_dict())
        assert cli.main(["repcost", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cost"] == 2.0
        assert out["lagrange_case"] == "zero"

    def test_line_report_to_file(self, tmp_path):
        path = write(tmp_path / "f.json", pwl.linear(3.0).to_dict())
        out = tmp_path / "report.json"
        assert cli.main(["repcost", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["cost"] == 6.0

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["repcost", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["repcost", str(path)]) == 2

    def test_invalid_schema(self, tmp_path):
        path = write(tmp_path / "bad.json", {"breakpoints": [1.0, 0.0],
                                             "slopes": [0, 1, 2],
                                             "anchor": [0, 0]})
        assert cli.main(["repcost", path]) == 2


class TestInterpCommand:
    def test_tent(self, tent_dataset, capsys):
        assert cli.main(["interp", tent_dataset]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cost"] == pytest.approx(2.0)
        assert out["end_slopes"] == [1.0, -1.0]

    def test_grid_oracle_agrees(self, tent_dataset, capsys):
        assert cli.main(["interp", tent_dataset, "--grid-oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle_value"] == pytest.approx(out["cost"], abs=1e-9)

    def test_trace_grid(self, tent_dataset, capsys):
        assert cli.main(["interp", tent_dataset, "--trace-grid", "16"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["trace"]) == 16

    def test_conflicting_duplicates(self, tmp_path):
        path = write(tmp_path / "bad.json",
                     {"points": [[0.0, 0.0], [0.0, 1.0]]})
        assert cli.main(["interp", path]) == 2

    def test_empty_points(self, tmp_path, capsys):
        path = write(tmp_path / "empty.json", {"points": []})
        assert cli.main(["interp", path]) == 2
        assert ("invalid dataset file: dataset needs at least one point"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("points", [[[-1e308, 1], [1e308, 0]],
                                        [[0, -1e308], [1e-300, 1e308]]])
    def test_overflowing_difference_is_rejected(self, tmp_path, capsys,
                                                points):
        path = write(tmp_path / "data.json", {"points": points})
        assert cli.main(["interp", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("invalid dataset file: dataset x difference or secant "
                "overflows" in captured.err)

    def test_overflowing_slope_jump_is_rejected(self, tmp_path, capsys):
        # finite secants 1e308 and -1e308 around x = 1: the data, not the
        # result, is blamed, with no numpy warning
        path = write(tmp_path / "data.json",
                     {"points": [[0, -1e308], [1, 0], [2, -1e308]]})
        assert cli.main(["interp", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid dataset file: dataset slope "
                                "jump overflows at x = 1.0\n")

    def test_grid_oracle_disagrees(self, tent_dataset, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.setattr(spline, "grid_oracle_end_slopes",
                            lambda slopes: (1.0, -1.0, 99.0))
        out = tmp_path / "out.json"
        assert cli.main(["interp", tent_dataset, "--grid-oracle",
                         "--output", str(out)]) == cli.EXIT_VALIDATION
        assert "disagrees with oracle 99.0" in capsys.readouterr().err
        assert json.loads(out.read_text())["oracle_value"] == 99.0


class TestTrain2Command:
    def test_end_to_end(self, tent_dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["train2", tent_dataset, "--k", "8",
                       "--steps", "3000", "--lr", "0.01", "--seed", "1",
                       "--prefix", "run"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 3000
        assert summary["net_cost"] >= summary["function_cost"] - 1e-9
        net = TwoLayerNet.from_json((tmp_path / "run_net.json").read_text())
        assert net.k == 8
        trace = (tmp_path / "run_trace.csv").read_text().splitlines()
        assert trace[0] == "step,objective,loss,cost"
        assert len(trace) == 3001
        grid = (tmp_path / "run_grid.csv").read_text().splitlines()
        assert len(grid) == 513
        assert summary["stop_reason"] == "max_steps"

    def test_csv_files_match_csv_writer(self, tent_dataset, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train2", tent_dataset, "--k", "6", "--steps", "500",
                         "--lambda", "1e-3", "--seed", "2",
                         "--prefix", "run"]) == 0
        d = spline.Dataset.from_json(Path(tent_dataset).read_text())
        cfg = net2.TrainConfig(lam=1e-3, max_steps=500, seed=2)
        res = net2.train(net2.init(6, cfg), d, cfg)
        xs = np.linspace(-1.0, 3.0, 512)
        fit = spline.min_norm_interpolant(d)
        expected = {
            "run_trace.csv": (["step", "objective", "loss", "cost"],
                              [[i, *row] for i, row in enumerate(res.trace)]),
            "run_grid.csv": (["x", "net", "spline"], [
                [float(x), float(a), float(b)] for x, a, b in zip(
                    xs, net2.net_eval(res.net, xs),
                    pwl.pwl_eval(fit.spline, xs))]),
        }
        for name, (header, rows) in expected.items():
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
            assert (tmp_path / name).read_bytes() == buf.getvalue().encode()

    def test_divergence_exit_code(self, tent_dataset, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["train2", tent_dataset, "--k", "10",
                       "--steps", "2000", "--lr", "10.0",
                       "--init-scale", "2.0"])
        assert rc == 3

    def test_negative_seed_is_a_validation_error(self, tent_dataset, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["train2", tent_dataset, "--k", "2", "--seed", "-1"])
        assert rc == cli.EXIT_VALIDATION
        assert "seed must be a nonnegative integer" in capsys.readouterr().err


class TestExtractCommand:
    def test_single_unit(self, tmp_path, capsys):
        net = TwoLayerNet([2.0], [-2.0], [1.0], 0.0)
        path = write(tmp_path / "net.json", net.to_dict())
        assert cli.main(["extract", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["atoms"] == [[1.0, 2.0]]

    def test_bad_net(self, tmp_path):
        path = write(tmp_path / "net.json", {"w1": [1.0], "b1": [], "w2": [],
                                             "b2": 0})
        assert cli.main(["extract", path]) == 2


class TestDepthCommand:
    def test_random_report(self, capsys):
        assert cli.main(["depth", "--random", "3", "4", "5", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["depth"] == 3
        assert out["bridge_penalty"] <= out["cost_CL"] + 1e-10
        assert out["cost_CL_realigned"] == pytest.approx(
            out["bridge_penalty"], abs=1e-10)

    def test_file_input(self, tmp_path, capsys):
        net = cli._random_deep_net(3, 2, 4, 1)
        path = tmp_path / "net.json"
        path.write_text(net.to_json())
        assert cli.main(["depth", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        alpha = deep.align_to_sphere(net).alpha
        assert out["depth"] == 3 and out["subnets"] == 4
        assert out["cost_CL"] == deep.cost_CL(net)
        assert out["bridge_penalty"] == deep.bridge_penalty(alpha, 3)
        assert out["alpha"] == alpha.tolist()

    @pytest.mark.parametrize("subnets", [[[]], [[[0.6, 0.8]]]],
                             ids=["empty-chain", "1-D-matrix"])
    def test_malformed_net_file(self, tmp_path, capsys, subnets):
        path = write(tmp_path / "net.json", {"subnets": subnets, "top": [1.0]})
        assert cli.main(["depth", path]) == cli.EXIT_VALIDATION
        assert "invalid deep-net file" in capsys.readouterr().err

    def test_missing_source(self, capsys):
        assert cli.main(["depth"]) == 2

    def test_random_depth_below_two(self, capsys):
        assert cli.main(["depth", "--random", "1", "2", "3", "0"]) == 2
        err = capsys.readouterr().err
        assert "depth must be at least 2" in err

    def test_negative_seed(self, capsys):
        assert cli.main(["depth", "--random", "2", "1", "1", "-1"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_overflowing_alpha_is_blamed(self, tmp_path, capsys):
        # finite layers whose alpha, top * 1e300 * 1e300 * sqrt(2), overflows:
        # alpha is named, not the input, and no RuntimeWarning is printed
        path = write(tmp_path / "net.json",
                     {"subnets": [[[[1e300, 1e300]], [[1e300]]]],
                      "top": [1e300]})
        assert cli.main(["depth", path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sphere coefficient alpha overflows\n"

    def test_overflowing_cost_is_rejected(self, tmp_path, capsys):
        # cost_CL is about 1e400: inf as a float, and no JSON number
        path = write(tmp_path / "net.json",
                     {"subnets": [[[[1e200, 1e200]], [[1e200]]]],
                      "top": [1e-300]})
        out = tmp_path / "report.json"
        for extra in ([], ["--output", str(out)]):
            assert cli.main(["depth", path, *extra]) == cli.EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "a result is not a finite number" in captured.err
        assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_emit_writes_strict_json_only(tmp_path, capsys, bad):
    out = tmp_path / "out.json"
    for path in (None, str(out)):
        with pytest.raises(ValueError, match="not a finite number"):
            cli._emit({"ok": 1.0, "nested": [[bad]]}, path)
    assert capsys.readouterr().out == "" and not out.exists()


class TestHighdimCommand:
    def test_laplacian_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["highdim", "--claim", "laplacian", "--d", "2",
                       "--r-sweep", "50,100", "--samples", "20000",
                       "--seed", "3", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "np.float64(" not in text
        rows = text.splitlines()
        assert rows[0] == "r,estimate,std_error"
        assert len(rows) == 3
        for row in rows[1:]:
            _, est, se = row.split(",")
            assert abs(float(est) - 2.0) < 0.2

    def test_bump_decay_sweep(self, tmp_path):
        out = tmp_path / "decay.csv"
        rc = cli.main(["highdim", "--claim", "bump-decay", "--d", "3",
                       "--r-sweep", "5,10", "--samples", "40",
                       "--seed", "0", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "np.float64(" not in text
        rows = text.splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals[1] < vals[0]

    def test_nan_radius_is_a_validation_error(self, tmp_path, capsys):
        rc = cli.main(["highdim", "--claim", "bump-decay", "--r-sweep", "nan",
                       "--output", str(tmp_path / "decay.csv")])
        assert rc == cli.EXIT_VALIDATION
        assert "radius" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["0", "1"])
    def test_dimension_below_two_is_a_validation_error(self, tmp_path,
                                                       capsys, d):
        rc = cli.main(["highdim", "--claim", "bump-decay", "--d", d,
                       "--output", str(tmp_path / "decay.csv")])
        assert rc == cli.EXIT_VALIDATION
        assert "dimension must be at least 2" in capsys.readouterr().err

    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys):
        rc = cli.main(["highdim", "--claim", "laplacian", "--d", "2",
                       "--r-sweep", "10", "--samples", "10", "--seed", "-1",
                       "--output", str(tmp_path / "sweep.csv")])
        assert rc == cli.EXIT_VALIDATION
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_bump_decay_at_d200_is_finite(self, tmp_path):
        out = tmp_path / "decay.csv"
        rc = cli.main(["highdim", "--claim", "bump-decay", "--d", "200",
                       "--r-sweep", "50", "--samples", "10",
                       "--output", str(out)])
        assert rc == 0
        r, est, _ = out.read_text().splitlines()[1].split(",")
        assert r == "50.0" and np.isfinite(float(est))

    def test_dimension_too_large_is_a_validation_error(self, tmp_path,
                                                       capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["highdim", "--claim", "laplacian", "--d", "400",
                       "--output", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: dimension 400 is too large: a sphere constant overflows\n")
        assert not out.exists()

    def test_empty_radius_sweep_is_a_validation_error(self, tmp_path):
        rc = cli.main(["highdim", "--claim", "bump-decay", "--r-sweep", "",
                       "--output", str(tmp_path / "decay.csv")])
        assert rc == cli.EXIT_VALIDATION


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag(self, tent_dataset):
        with pytest.raises(SystemExit) as exc:
            cli.main(["interp", tent_dataset, "--bogus"])
        assert exc.value.code == 1

    def test_missing_required(self, tent_dataset):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train2", tent_dataset])
        assert exc.value.code == 1


def run_python(code, cwd):
    """Run code in a fresh interpreter that imports reluspline from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process: the first call's --d must not
    # reach the second, which writes what a fresh process writes, at d = 3
    assert cli.build_parser() is cli.build_parser()
    sweep = ["--r-sweep", "4", "--samples", "10", "--output"]
    assert cli.main(["highdim", "--claim", "laplacian", "--d", "2", *sweep,
                     str(tmp_path / "flux.csv")]) == 0
    args = ["highdim", "--claim", "bump-decay", *sweep]
    assert cli.main([*args, str(tmp_path / "warm.csv")]) == 0
    assert cli.build_parser().parse_args(args + ["x.csv"]).d == 3
    run_python(f"from reluspline import cli; "
               f"assert cli.main({[*args, 'fresh.csv']!r}) == 0", tmp_path)
    assert ((tmp_path / "warm.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())


def test_no_call_loads_scipy(tmp_path):
    # scipy is a test dependency only: the fits of both losses, the bump,
    # both estimators and every CLI command leave all of it unloaded
    write(tmp_path / "f.json", pwl.absval().to_dict())
    write(tmp_path / "data.json",
          {"points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]})
    code = textwrap.dedent("""\
        import sys
        from reluspline import cli, highdim, spline
        d = spline.Dataset(((0, 0), (1, 1), (2, 0), (3, 0.5)))
        spline.regularized_fit(d, "squared", 0.3)
        spline.regularized_fit(d, "absolute", 0.3)
        highdim.bump_eval(2.5, 3)
        highdim.hessian_decay_estimate(3, 4.0, 10)
        highdim.laplacian_flux_estimate(
            highdim.AtomMeasureDD((((1.0, 0.0), 0.0, 1.0),), 0.0, 2), 2.0, 100)
        for args in (
                ["highdim", "--claim", "bump-decay", "--r-sweep", "4",
                 "--samples", "10", "--output", "decay.csv"],
                ["train2", "data.json", "--k", "4", "--steps", "20",
                 "--prefix", "run", "--output", "train2.json"],
                ["interp", "data.json", "--output", "interp.json"],
                ["repcost", "f.json", "--output", "repcost.json"],
                ["depth", "--random", "3", "2", "3", "0",
                 "--output", "depth.json"]):
            assert cli.main(args) == 0, args
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
    assert run_python(code, tmp_path).splitlines()[-1] == "[]"


def test_fits_run_with_scipy_blocked(tmp_path):
    # with scipy unimportable, both losses still fit and certify
    code = textwrap.dedent("""\
        import sys
        sys.modules["scipy"] = None
        from reluspline import spline
        d = spline.Dataset(((0, 0), (1, 1), (2, 0), (3, 0.5)))
        for loss in ("squared", "absolute"):
            assert spline.regularized_fit(d, loss, 0.3).gap <= 1e-9, loss
        print("ok")
        """)
    assert run_python(code, tmp_path).splitlines()[-1] == "ok"
