"""CLI surface: exact flags, exit codes, JSON payloads."""

import json
import math

import numpy as np
import pytest

import distill_lab.cli as cli
from distill_lab.cli import main
from distill_lab.qcore import BipartiteState, Dims, NumericalFailureError
from distill_lab.serialize import state_from_json, state_to_json


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSigmaRho:
    def test_sigma_json_payload(self, capsys):
        code, out, _ = _run(capsys, "sigma", "--b", "1.0", "--theta", str(math.pi / 6))
        assert code == 0
        doc = json.loads(out)
        assert doc["dimA"] == doc["dimB"] == 3
        assert doc["meta"]["p1"] == pytest.approx(0.011966128287415142, abs=1e-12)
        state = state_from_json(out)
        assert abs(state.trace - 1.0) < 1e-12

    def test_sigma_to_file(self, tmp_path, capsys):
        path = tmp_path / "sigma.json"
        code, _, _ = _run(capsys, "sigma", "--b", "2.0", "--theta", "-0.5", "--out", str(path))
        assert code == 0
        state = state_from_json(path.read_text())
        assert state.dims.total == 9

    def test_sigma_rejects_bad_theta(self, capsys):
        code, _, err = _run(capsys, "sigma", "--b", "1.0", "--theta", "0.0")
        assert code == 2
        assert "invalid input" in err

    def test_rho_auto_eps(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        code, _, _ = _run(
            capsys, "rho", "--b", "1.0", "--theta", str(math.pi / 6), "--out", str(path)
        )
        assert code == 0
        doc = json.loads(path.read_text())
        meta = doc["meta"]
        assert meta["eps"] == pytest.approx(0.9 * meta["p1"] / 3, abs=1e-15)
        assert meta["margin"] == pytest.approx(0.1 * meta["p1"] / 3, abs=1e-12)

    def test_rho_explicit_eps(self, capsys):
        code, out, _ = _run(
            capsys, "rho", "--b", "1.0", "--theta", str(math.pi / 6), "--eps", "1e-4"
        )
        assert code == 0
        assert json.loads(out)["meta"]["eps"] == pytest.approx(1e-4, abs=1e-18)

    def test_rho_rejects_nan_eps(self, capsys):
        code, out, err = _run(capsys, "rho", "--b", "1", "--theta", "0.5", "--eps", "nan")
        assert code == 2
        assert out == ""
        assert "eps must be nonnegative" in err


class TestWitness:
    def test_certifies_random_npt_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        code, _, _ = _run(
            capsys,
            "random", "--dimA", "3", "--dimB", "3", "--rank", "4",
            "--npt", "--seed", "11", "--out", str(path),
        )
        assert code == 0
        code, out, _ = _run(capsys, "witness", "--in", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["certificate"]["value"] < -1e-9
        assert doc["certificate"]["schmidt_rank"] <= 2

    def test_reports_best_value_when_uncertified(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        _run(capsys, "rho", "--b", "1.0", "--theta", str(math.pi / 6), "--out", str(path))
        code, out, _ = _run(capsys, "witness", "--in", str(path), "--json", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["best_value"] > 0
        assert "restarts" not in doc

    def test_rejects_restarts_flag(self, tmp_path, capsys):
        # the restart budget is a library constant, not a flag
        path = tmp_path / "rho.json"
        _run(capsys, "rho", "--b", "1.0", "--theta", str(math.pi / 6), "--out", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--in", str(path), "--restarts", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--restarts" in captured.err

    def test_two_copies_on_mes(self, tmp_path, capsys):
        # the maximally entangled projector is distillable at any copy count
        import distill_lab as dl

        mes_state = dl.BipartiteState(
            dl.maximally_entangled_qutrits().projector(), dl.Dims(3, 3)
        )
        path = tmp_path / "mes.json"
        path.write_text(dl.serialize.state_to_json(mes_state))
        code, out, _ = _run(
            capsys, "witness", "--in", str(path), "--copies", "2", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["certificate"]["copies"] == 2

    def test_two_copies_beyond_dimension_cap(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        code, _, _ = _run(
            capsys,
            "random", "--dimA", "10", "--dimB", "10", "--rank", "1",
            "--seed", "3", "--out", str(path),
        )
        assert code == 0
        code, out, err = _run(capsys, "witness", "--in", str(path), "--copies", "2")
        assert code == 2
        assert out == ""
        assert "dimension cap" in err

    def test_missing_file_is_invalid_input(self, capsys):
        code, _, err = _run(capsys, "witness", "--in", "/nonexistent.json")
        assert code == 2

    def test_two_copy_value_does_not_depend_on_the_seed(self, tmp_path, capsys):
        # at (0.5, pi/6) five Haar-started ALS runs landed 2.86x apart across seeds;
        # the lifted starts reach one basin at every seed
        path = tmp_path / "rho.json"
        code, _, _ = _run(capsys, "rho", "--b", "0.5", "--theta", str(math.pi / 6), "--out", str(path))
        assert code == 0
        values = []
        for seed in ("0", "2024"):
            code, out, _ = _run(
                capsys, "witness", "--in", str(path), "--copies", "2", "--seed", seed, "--json"
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["certified"] is False
            values.append(doc["best_value"])
        assert values[0] == pytest.approx(values[1], rel=1e-3)


class TestCertifyRank4:
    def test_accepts_rank4(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        _run(
            capsys,
            "random", "--dimA", "3", "--dimB", "3", "--rank", "4",
            "--npt", "--seed", "21", "--out", str(path),
        )
        code, out, _ = _run(capsys, "certify-rank4", "--in", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True

    def test_rejects_other_ranks(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        _run(
            capsys,
            "random", "--dimA", "3", "--dimB", "3", "--rank", "5",
            "--seed", "22", "--out", str(path),
        )
        code, _, err = _run(capsys, "certify-rank4", "--in", str(path))
        assert code == 2
        assert "rank 5" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_rejects_ppt(self, tmp_path, capsys, flags):
        # rank 4, and its partial transpose is diagonal and nonnegative
        path = tmp_path / "state.json"
        mat = np.diag([1.0, 0, 0, 0, 1, 0, 0, 1, 1]) / 4
        path.write_text(state_to_json(BipartiteState(mat, Dims(3, 3))))
        code, out, err = _run(capsys, "certify-rank4", "--in", str(path), *flags)
        assert code == 2
        assert out == ""
        assert "input state is PPT: smallest PT eigenvalue 0.000e+00" in err

    def test_rejects_non_positive_dimensions(self, tmp_path, capsys):
        # (-3) * (-3) == 9 matches rows and cols; once reported as "rank 9"
        path = tmp_path / "state.json"
        _run(capsys, "random", "--dimA", "3", "--dimB", "3", "--rank", "9",
             "--seed", "23", "--out", str(path))
        doc = json.loads(path.read_text())
        for dim_a, dim_b in ((-3, -3), (0, 3)):
            doc["dimA"], doc["dimB"] = dim_a, dim_b
            path.write_text(json.dumps(doc))
            code, out, err = _run(capsys, "certify-rank4", "--in", str(path))
            assert code == 2
            assert out == ""
            assert "'dimA' must be a positive integer" in err


class TestMulticopyCommand:
    def test_werner_single_copy(self, capsys):
        code, out, _ = _run(capsys, "multicopy", "--n", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["min_value"] == pytest.approx(1 / 24, abs=1e-6)
        assert doc["max_value"] == pytest.approx(1 / 8, abs=1e-10)

    def test_rho_target(self, capsys):
        code, out, _ = _run(
            capsys, "multicopy", "--n", "1", "--target", "rho", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["min_value"] > 0
        assert doc["eps_threshold"] > 0

    def test_rho_target_rejects_nan_eps(self, capsys):
        code, out, err = _run(
            capsys, "multicopy", "--n", "1", "--target", "rho", "--eps", "nan", "--json"
        )
        assert code == 2
        assert out == ""
        assert "eps must be nonnegative" in err

    @pytest.mark.parametrize(
        "flag", [("--b", "-3"), ("--theta", "7"), ("--eps", "nan"), ("--b", "1.0"), ("--eps", "0")]
    )
    def test_werner_target_refuses_edge_flags(self, capsys, flag):
        # once silently ignored, so "--b -3 --theta 7 --eps nan" exited 0
        code, out, err = _run(capsys, "multicopy", "--n", "1", "--target", "werner", *flag)
        assert code == 2
        assert out == ""
        assert "--target rho only" in err

    def test_rho_target_edge_flag_defaults(self, capsys):
        base = ("multicopy", "--n", "1", "--target", "rho", "--json")
        _, implicit, _ = _run(capsys, *base)
        _, explicit, _ = _run(
            capsys, *base, "--b", "1.0", "--theta", str(math.pi / 6), "--eps", "0"
        )
        assert implicit == explicit
        code, out, _ = _run(capsys, *base, "--b", "2.0", "--theta", "-0.5", "--eps", "1e-4")
        assert code == 0
        assert json.loads(out)["eps_used"] == pytest.approx(1e-4, abs=1e-18)

    def test_human_readable(self, capsys):
        code, out, _ = _run(capsys, "multicopy", "--n", "1")
        assert code == 0
        assert "min=" in out and "conjectured" in out

    def test_two_copies_werner(self, capsys):
        code, out, _ = _run(capsys, "multicopy", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_value"] == pytest.approx(1 / 64, abs=1e-6)
        assert doc["min_value"] >= 1 / 576 - 1e-8
        # a lifted start attains 1/288 = (1/24)(1/12), and no start does better
        assert doc["min_value"] == pytest.approx(1 / 288, rel=1e-12)


class TestRandomCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = _run(
                capsys,
                "random", "--dimA", "2", "--dimB", "4", "--rank", "3",
                "--seed", "5", "--out", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_rank(self, capsys):
        code, _, err = _run(
            capsys, "random", "--dimA", "2", "--dimB", "2", "--rank", "7", "--seed", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("npt", [[], ["--npt"]])
    def test_negative_sides_refused(self, capsys, npt):
        # (-3) x (-3) multiplies out to 9, yet no state has a side below 1
        code, out, err = _run(
            capsys, "random", "--dimA", "-3", "--dimB", "-3", "--rank", "4", "--seed", "1", *npt
        )
        assert code == 2
        assert out == ""
        assert "dims (-3, -3) must both be at least 1" in err


class TestVerifyCommand:
    def test_edge_family_suite(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "edge-family", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] == doc["trials"] == 12

    def test_rank4_short_run(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--suite", "theorem-rank4", "--trials", "5",
            "--seed", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] == 5

    def test_text_output(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--suite", "lemma-2x2", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        assert "lemma-2x2" in out

    def test_all_suites_aggregate(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--suite", "all", "--trials", "3", "--seed", "11", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "all"
        assert len(doc["sub_reports"]) == 5
        assert doc["passes"] == doc["trials"]

    def test_unknown_suite(self, capsys):
        code, _, err = _run(capsys, "verify", "--suite", "made-up")
        assert code == 2

    @pytest.mark.parametrize("suite", ["edge-family", "multicopy"])
    def test_seed_and_trials_only_echo_in_suites_that_sample_nothing(self, capsys, suite):
        docs = []
        for trials, seed in (("3", "1"), ("50", "2")):
            code, out, _ = _run(
                capsys, "verify", "--suite", suite, "--trials", trials, "--seed", seed, "--json"
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["config"].pop("seed") == int(seed)
            del doc["wall_time_s"]
            docs.append(doc)
        assert docs[0] == docs[1]


class TestExitCodes:
    def test_numerical_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalFailureError("synthetic")

        monkeypatch.setattr(cli, "build_edge_bundle", boom)
        code, _, err = _run(capsys, "rho", "--b", "1.0", "--theta", "0.5")
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("rho", "--b", "0.005", "--theta", "0.5"),
            ("rho", "--b", "1", "--theta", "0.5", "--eps", "1e-8"),
            ("multicopy", "--n", "2", "--target", "rho", "--b", "0.01", "--theta", "0.5"),
        ],
    )
    def test_unresolvable_npt_exits_three(self, capsys, argv):
        # NPT in exact arithmetic, but the negative PT eigenvalue lies above
        # -PSD_TOL; once an uncaught InvariantViolationError (exit 1)
        code, out, err = _run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: perturbed edge state fails its rank-5 NPT")
        assert "rank 5, smallest PT eigenvalue" in err and "PSD_TOL" in err

    def test_bad_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness"])  # missing --in
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["witness", "certify-rank4"])
    @pytest.mark.parametrize("text", ["5", "null", "[1]", '"state"'])
    def test_state_file_that_is_not_an_object_exits_two(self, tmp_path, capsys, command, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = _run(capsys, command, "--in", str(path))
        assert code == 2
        assert out == ""
        assert "invalid input" in err and "JSON object" in err
