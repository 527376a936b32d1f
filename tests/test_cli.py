import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import disot
from disot import barycenter, cli
from disot.cli import build_parser, main
from disot.errors import ParseError, TooLarge
from disot.instances import generate_instance
from disot.io import (
    dump_text,
    dumps,
    load_csv_measure,
    load_instance,
    parse_instance,
    report_to_csv,
    save_document,
)

TWO_DIRAC_DOC = {
    "base": [{"id": "w", "sigma": 1.0}],
    "fibers": {
        "w": {
            "points": [0.0, 2.0],
            "cost": [[0.0, 2.0], [2.0, 0.0]],
            "measures": {
                "mu": [{"point": 0, "w": 1.0}],
                "nu": [{"point": 1, "w": 1.0}],
            },
        }
    },
}


class _RecordingNamespace(argparse.Namespace):
    """Namespace that records the name of every public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


# frozen hash of generate_instance(seed=0, 2 fibers x 3 atoms); determinism golden
GOLDEN_SHA256 = "39a49a36b14ed9a4001feebfd7ccb12a04b0f0426fabcaed1b7d4db77f078d29"

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestIO:
    def test_instance_roundtrip(self, tmp_path):
        path = tmp_path / "inst.json"
        save_document(str(path), TWO_DIRAC_DOC)
        inst = load_instance(str(path))
        assert inst.base_ids == ("w",)
        assert inst.measure("mu").fiber("w").as_dict() == {0: 1.0}
        assert inst.bundle.cost("w").d[0, 1] == 2.0

    def test_shared_fiber_schema_with_relabeling(self, tmp_path):
        doc = {
            "base": [{"id": "a", "sigma": 0.5}, {"id": "b", "sigma": 0.5}],
            "points": [0.0, 1.0],
            "cost": [[0.0, 1.0], [1.0, 0.0]],
            "relabelings": {"b": [1, 0]},
            "fibers": {
                "a": {"measures": {"m": [{"point": 0, "w": 1.0}]}},
                "b": {"measures": {"m": [{"point": 1, "w": 1.0}]}},
            },
        }
        inst = parse_instance(doc)
        assert inst.bundle.shared_fiber
        assert inst.bundle.relabel("b", 0) == 1
        assert inst.measure("m").fiber("b").as_dict() == {1: 1.0}

    def test_missing_measure_is_parse_error(self):
        doc = json.loads(json.dumps(TWO_DIRAC_DOC))
        del doc["fibers"]["w"]["measures"]["nu"][0]["w"]
        with pytest.raises(ParseError):
            parse_instance(doc)

    def test_float_formatting(self):
        assert dumps(0.1 + 0.2) == "0.3"
        assert dumps(math.inf) == '"inf"'
        assert dumps(1.0) == "1"
        assert dumps([1.5, 2.0]) == "[1.5, 2]"

    def test_csv_measure(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,w\n0.0,1.0\n1.0,3.0\n")
        coords, measure = load_csv_measure(str(path))
        assert np.allclose(coords, [0.0, 1.0])
        assert measure.as_dict() == {0: 0.25, 1: 0.75}

    def test_report_csv_long_format(self):
        # a base point stays in the quantity's key path, '@' and all
        text = report_to_csv({"results": {"value": 1.5, "profile": {"a@b": 2.0}}})
        lines = text.strip().splitlines()
        assert lines == ["quantity,base_id,value", "results.value,,1.5", "results.profile.a@b,,2"]


class TestGenerate:
    def test_deterministic_and_golden(self, tmp_path):
        a = dump_text(generate_instance(seed=0, n_fibers=2, n_atoms=3))
        b = dump_text(generate_instance(seed=0, n_fibers=2, n_atoms=3))
        assert a == b
        assert hashlib.sha256(a.encode()).hexdigest() == GOLDEN_SHA256

    def test_different_seeds_differ(self):
        a = dump_text(generate_instance(seed=0))
        b = dump_text(generate_instance(seed=1))
        assert a != b

    def test_oracle_bound_enforced(self):
        with pytest.raises(TooLarge):
            generate_instance(seed=0, n_atoms=5, oracle_checkable=True)

    def test_generated_instances_parse(self, tmp_path):
        for kind in ("interval", "square"):
            doc = generate_instance(seed=3, n_fibers=2, n_atoms=4, kind=kind)
            path = tmp_path / f"{kind}.json"
            save_document(str(path), doc)
            inst = load_instance(str(path))
            assert set(inst.measures) == {"m1", "m2"}


class TestCLI:
    def _write(self, tmp_path, doc, name="inst.json"):
        path = tmp_path / name
        save_document(str(path), doc)
        return str(path)

    def test_ot_two_diracs(self, tmp_path, capsys):
        path = self._write(tmp_path, TWO_DIRAC_DOC)
        code = main(["ot", "--input", path, "--p", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["value_p"] == pytest.approx(4.0)
        assert out["results"]["mk"] == pytest.approx(2.0)

    def test_ot_csv_pair(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0.0,0.5\n1.0,0.5\n")
        b.write_text("0.0,0.25\n1.0,0.75\n")
        code = main(["ot", "--mu-csv", str(a), "--nu-csv", str(b), "--p", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["value_p"] == pytest.approx(0.25)

    def test_dist_identical_is_zero(self, tmp_path, capsys):
        doc = generate_instance(seed=5, n_fibers=2, n_atoms=3)
        path = self._write(tmp_path, doc)
        code = main(["dist", "--input", path, "--m", "m1", "--n", "m1", "--p", "2", "--q", "inf"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["distance"] == 0.0

    def test_dist_report_reparses_and_csv(self, tmp_path, capsys):
        doc = generate_instance(seed=5, n_fibers=2, n_atoms=3)
        path = self._write(tmp_path, doc)
        assert main(["dist", "--input", path, "--m", "m1", "--n", "m2", "--p", "2"]) == 0
        json.loads(capsys.readouterr().out)
        assert (
            main(["dist", "--input", path, "--m", "m1", "--n", "m2", "--p", "2", "--format", "csv"])
            == 0
        )
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "quantity,base_id,value"

    def test_bary_multi_fiber_rejected(self, tmp_path, capsys):
        doc = generate_instance(seed=5, n_fibers=2, n_atoms=3)
        path = self._write(tmp_path, doc)
        assert main(["bary", "--input", path, "--names", "m1,m2", "--p", "2"]) == 2

    def test_disint_bary_and_certify(self, tmp_path, capsys):
        doc = generate_instance(seed=6, n_fibers=2, n_atoms=3)
        path = self._write(tmp_path, doc)
        code = main(
            ["disint-bary", "--input", path, "--names", "m1,m2", "--p", "2", "--q", "4"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["certified"] is True
        code = main(["certify", "--input", path, "--names", "m1,m2", "--p", "2", "--q", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["gap"] <= 1e-7
        assert "zeta" in out["results"]["certificate"]

    def test_probe_uniqueness(self, tmp_path, capsys):
        doc = generate_instance(seed=7, n_fibers=2, n_atoms=3)
        path = self._write(tmp_path, doc)
        code = main(
            [
                "probe-uniqueness",
                "--input",
                path,
                "--names",
                "m1,m2",
                "--p",
                "2",
                "--q",
                "2",
                "--trials",
                "4",
                "--radius",
                "1e-9",
                "--seed",
                "0",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "max_pairwise_distance" in out["results"]

    def test_determinism_byte_identical(self, tmp_path):
        doc = generate_instance(seed=8, n_fibers=2, n_atoms=3)
        path = self._write(tmp_path, doc)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["certify", "--input", path, "--names", "m1,m2", "--p", "2", "--q", "4"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_example_intervals(self, capsys):
        code = main(["example", "2.2", "--n", "20"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        res = out["results"]
        assert res["lp_value"] == pytest.approx(1.5, abs=0.02)
        assert res["dual_value"] == pytest.approx(1.5, abs=0.02)
        assert res["mk1_nu0_nu1"] == pytest.approx(3.0, abs=1e-9)
        assert res["nonuniqueness_witness"] is True
        assert set(res["minimizers"]) == {"nu0", "nu1"}

    def test_example_shared_fiber(self, capsys):
        code = main(["example", "2.1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        res = out["results"]
        assert res["objective_difference"] <= 1e-6
        assert res["distance_between_candidates"] > 0.1
        assert res["distinct_equal_value_minimizers"] is True
        # the minimax LP reaches the optimum 1/4 exactly
        assert res["solver_value"] == pytest.approx(0.25, abs=1e-12)
        assert res["solver_certified"] is True and res["solver_gap"] <= 1e-12

    def test_bad_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["dist", "--input", str(bad), "--p", "2"]) == 2
        assert main(["ot", "--p", "2"]) == 2

    def test_nan_weight_exit_2(self, tmp_path, capsys):
        doc = {
            "base": [{"id": "w", "sigma": 1.0}],
            "fibers": {
                "w": {
                    "cost": [[0.0, 1.0], [1.0, 0.0]],
                    "measures": {
                        "mu": [{"point": 0, "w": "nan"}, {"point": 1, "w": 1.0}],
                        "nu": [{"point": 0, "w": 1.0}],
                    },
                }
            },
        }
        path = self._write(tmp_path, doc)
        assert main(["ot", "--input", path, "--p", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_cost_power_exit_2(self, tmp_path, capsys):
        doc = {
            "base": [{"id": "w", "sigma": 1.0}],
            "fibers": {
                "w": {
                    "cost": [[0.0, 1e200], [1e200, 0.0]],
                    "measures": {
                        "mu": [{"point": 0, "w": 1.0}],
                        "nu": [{"point": 0, "w": 0.5}, {"point": 1, "w": 0.5}],
                    },
                }
            },
        }
        path = self._write(tmp_path, doc)
        assert main(["ot", "--input", path, "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err

    def test_negative_point_id_exit_2(self, tmp_path, capsys):
        doc = {
            "base": [{"id": "w", "sigma": 1.0}],
            "fibers": {
                "w": {
                    "cost": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                    "measures": {
                        "mu": [{"point": -1, "w": 1.0}],
                        "nu": [{"point": 0, "w": 1.0}],
                    },
                }
            },
        }
        path = self._write(tmp_path, doc)
        assert main(["ot", "--input", path, "--p", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative point id -1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["disint-bary", "--q", "4", "--max-iter", "0"],
            ["disint-bary", "--q", "4", "--max-iter", "-3"],
            ["disint-bary", "--q", "4", "--tol", "nan"],
            ["disint-bary", "--q", "4", "--tol", "-0.001"],
            ["certify", "--q", "inf", "--tol", "nan"],
            ["certify", "--q", "inf", "--tol", "-1"],
            ["probe-uniqueness", "--q", "4", "--max-iter", "0"],
        ],
        ids=["max_iter_0", "max_iter_negative", "tol_nan", "tol_negative",
             "certify_q_inf_tol_nan", "certify_q_inf_tol_negative", "probe_max_iter_0"],
    )
    def test_bad_subgradient_settings_exit_2(self, tmp_path, capsys, argv):
        doc = generate_instance(seed=1, n_fibers=2, n_atoms=4)
        path = self._write(tmp_path, doc)
        assert main([argv[0], "--input", path, "--p", "2", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["disint-bary", "--p", "inf"],
            ["disint-bary", "--q", "nan"],
            ["disint-bary", "--lambda", "nan,0.5"],
            ["ot", "--p", "inf", "--fiber", "w1", "--mu", "m1", "--nu", "m2"],
            ["dist", "--q", "nan", "--m", "m1", "--n", "m2"],
        ],
    )
    def test_non_finite_exponent_or_lambda_exit_2(self, tmp_path, capsys, argv):
        doc = generate_instance(seed=1, n_fibers=2, n_atoms=4, kind="interval")
        path = self._write(tmp_path, doc)
        assert main([argv[0], "--input", path, *argv[1:]]) == 2
        assert capsys.readouterr().out == ""

    def test_generate_cli_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = main(["generate", "--seed", "0", "--fibers", "2", "--atoms", "3", "--output", str(out)])
        assert code == 0
        capsys.readouterr()
        inst = load_instance(str(out))
        assert len(inst.base_ids) == 2

    def test_generate_oracle_bound_exit_2(self, capsys):
        assert main(["generate", "--seed", "0", "--atoms", "5", "--oracle-checkable"]) == 2

    def test_certify_tol_is_relative_at_p_below_q(self, tmp_path, capsys):
        doc = generate_instance(seed=5, n_fibers=3, n_atoms=8, kind="square")
        path = self._write(tmp_path, doc)
        code = main(["certify", "--input", path, "--p", "2", "--q", "4", "--tol", "0.3"])
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["tolerance"] == pytest.approx(0.3 * (1.0 + abs(res["primal"])), rel=1e-11)
        assert res["solver"]["certified"] is True
        assert res["certified"] is True
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["ot", "--seed", "1"],
            ["dist", "--kappa", "2"],
            ["bary", "--max-iter", "5"],
            ["certify", "--kappa", "2"],
        ],
    )
    def test_unread_flags_are_not_accepted(self, tmp_path, capsys, argv):
        path = self._write(tmp_path, generate_instance(seed=5, n_fibers=1, n_atoms=3))
        with pytest.raises(SystemExit) as exc:
            main([*argv[:1], "--input", path, *argv[1:]])
        assert exc.value.code == 2

    def test_disint_bary_square_report_is_pinned(self, tmp_path, monkeypatch, capsys):
        # recorded with the earlier network-simplex engine: any change to a
        # pivot, a dual or a subgradient iterate shows in these bytes
        monkeypatch.chdir(tmp_path)
        doc = generate_instance(seed=1, n_fibers=2, n_atoms=5, kind="square")
        save_document("inst.json", doc)
        code = main(["disint-bary", "--input", "inst.json", "--p", "2", "--q", "4"])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert out == (GOLDEN_DIR / "disint_bary_square_q4.json").read_bytes()

    def test_certify_square_q_inf_report_is_pinned(self, tmp_path, monkeypatch, capsys):
        # q = inf solves the minimax LP; the certificate and dual bytes equal
        # those of the earlier subgradient route, which reported a larger primal
        monkeypatch.chdir(tmp_path)
        doc = generate_instance(seed=1, n_fibers=2, n_atoms=5, kind="square")
        save_document("inst.json", doc)
        code = main(["certify", "--input", "inst.json", "--p", "2", "--q", "inf"])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert out == (GOLDEN_DIR / "certify_square_qinf.json").read_bytes()

    def test_probe_settings_bound_every_restart(self, tmp_path, monkeypatch, capsys):
        doc = generate_instance(seed=5, n_fibers=3, n_atoms=8, kind="square")
        path = self._write(tmp_path, doc)
        seen = []
        solve = barycenter.disint_barycenter

        def spy(problem, start=None, max_iter=cli.MAX_ITER, tol=cli.CERT_TOL):
            seen.append((max_iter, tol))
            return solve(problem, start=start, max_iter=max_iter, tol=tol)

        monkeypatch.setattr(barycenter, "disint_barycenter", spy)
        monkeypatch.setattr(cli, "disint_barycenter", spy)
        argv = ["--p", "2", "--q", "4", "--max-iter", "3", "--tol", "0.5", "--trials", "3"]
        assert main(["probe-uniqueness", "--input", path, *argv]) == 0
        capsys.readouterr()
        # the first solve and the three restarts
        assert seen == [(3, 0.5)] * 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["2.1", "--n", "5"],
            ["2.1", "--seed", "1"],
        ],
    )
    def test_example_refuses_flags_it_does_not_read(self, capsys, argv):
        assert main(["example", *argv]) == 2
        assert f"does not read {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["2.1", "--tol", "0.1"],
            ["2.2", "--tol", "0.1"],
            ["2.2", "--max-iter", "5"],
        ],
    )
    def test_example_solver_flags_are_not_registered(self, capsys, argv):
        # both examples solve exact LPs, so no example reads --tol or --max-iter
        with pytest.raises(SystemExit) as exc:
            main(["example", *argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_missing_input_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--p", "2"])
        assert exc.value.code == 2

    def test_every_registered_flag_is_read(self, tmp_path, capsys):
        multi = self._write(tmp_path, generate_instance(seed=5, n_fibers=2, n_atoms=3), "multi.json")
        one = self._write(tmp_path, generate_instance(seed=5, n_fibers=1, n_atoms=3), "one.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0.0,0.5\n1.0,0.5\n")
        b.write_text("0.0,0.25\n1.0,0.75\n")
        runs = [
            ["ot", "--input", one, "--mu", "m1", "--nu", "m2"],
            ["ot", "--mu-csv", str(a), "--nu-csv", str(b)],
            ["dist", "--input", multi, "--m", "m1", "--n", "m2"],
            ["bary", "--input", one],
            ["disint-bary", "--input", multi, "--q", "4"],
            ["certify", "--input", multi, "--q", "4"],
            ["probe-uniqueness", "--input", multi, "--trials", "2"],
            ["example", "2.1"],
            ["example", "2.2", "--n", "10"],
            ["generate"],
        ]
        parser = build_parser()
        read: dict[str, set[str]] = {}
        for argv in runs:
            ns = parser.parse_args(argv, namespace=_RecordingNamespace())
            ns._read.clear()
            cli.run(ns)
            read.setdefault(argv[0], set()).update(ns._read)
        capsys.readouterr()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(read)
        for name, sp in sub.choices.items():
            registered = {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
            assert registered | {"command"} <= read[name], (name, registered - read[name])


# Runs ``import disot`` and then, given arguments, ``cli.main`` on them, in a
# fresh interpreter; writes the exit status and the scipy modules then loaded.
STARTUP_CHILD = """
import json, sys
import disot
status = 0
if len(sys.argv) > 2:
    from disot import cli
    status = cli.main(sys.argv[2:])
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
with open(sys.argv[1], "w") as fh:
    json.dump({"status": status, "scipy": loaded}, fh)
"""


class TestStartup:
    """Commands that never solve an LP start without loading scipy."""

    @pytest.fixture
    def run_fresh(self, tmp_path):
        src = str(Path(disot.__file__).resolve().parent.parent)
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for name, n_fibers, kind in [("square", 1, "square"), ("multi", 3, "square"), ("one", 1, "interval")]:
            doc = generate_instance(seed=n_fibers, n_fibers=n_fibers, n_atoms=5, kind=kind)
            save_document(str(tmp_path / f"{name}.json"), doc)

        def run(*argv):
            out = tmp_path / "loaded.json"
            subprocess.run([sys.executable, "-c", STARTUP_CHILD, str(out), *argv],
                           cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120)
            return json.loads(out.read_text())

        return run

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["generate", "--seed", "1", "--fibers", "1", "--atoms", "3", "--output", "gen.json"],
            ["ot", "--input", "square.json", "--p", "2", "--mu", "m1", "--nu", "m2"],
            ["dist", "--input", "multi.json", "--p", "2", "--q", "inf", "--m", "m1", "--n", "m2"],
        ],
        ids=["import", "generate", "ot", "dist_q_inf"],
    )
    def test_simplex_only_commands_skip_scipy(self, run_fresh, argv):
        assert run_fresh(*argv) == {"status": 0, "scipy": []}

    def test_lp_command_loads_scipy(self, run_fresh):
        # the check above is not vacuous: a HiGHS solve does load scipy
        loaded = run_fresh("bary", "--input", "one.json", "--p", "1")
        assert loaded["status"] == 0
        assert "scipy.optimize" in loaded["scipy"]
