import dataclasses
import json
import subprocess
import sys

import pytest

from hardyseq import oracle, verification
from hardyseq.cli import main
from hardyseq.verification import SweepSpec, run_verification


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "weights.json"
    payload = {
        "u": {"start": 0, "values": [1, 1]},
        "v": {"start": 0, "values": [1, 1]},
        "w": {"start": 0, "values": [1, 1]},
        "a": {"start": 0, "values": [1, 1]},
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def linft_file(tmp_path):
    path = tmp_path / "linft.json"
    payload = {
        "u": {"start": 0, "values": [2, 1]},
        "v": {"start": 0, "values": [4, 1]},
        "w": {"start": 0, "values": [1, 1]},
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestChar:
    def test_regime_iii_fixture(self, weights_file, capsys):
        code = main(["char", "--weights", weights_file, "--p", "1", "--q", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 3.0
        assert out["regime"]["case"] == "III"
        assert out["formula_id"] == "gop-iii"

    def test_missing_file(self, capsys):
        assert main(["char", "--weights", "/nonexistent.json", "--p", "1", "--q", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_p_zero(self, weights_file, capsys):
        assert main(["char", "--weights", weights_file, "--p", "0", "--q", "1"]) == 2

    def test_antigop_flipped(self, weights_file, capsys):
        code = main(
            ["char", "--weights", weights_file, "--p", "1", "--q", "1",
             "--form", "antigop", "--variant", "flipped"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "flipped"

    def test_csv_format(self, weights_file, capsys):
        code = main(["char", "--weights", weights_file, "--p", "1", "--q", "1",
                     "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "value,3.0" in out

    def test_values_not_a_list_exits_two(self, tmp_path, capsys):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({k: {"start": 0, "values": 5} for k in "uvw"}))
        assert main(["char", "--weights", str(path), "--p", "1", "--q", "1"]) == 2
        assert "window values must be a list" in capsys.readouterr().err


class TestOracle:
    def test_linft_fixture_spikes_only(self, linft_file, capsys):
        """In the spike range the plain command evaluates the spikes only.
        ``--q`` is read by ``float``, so it takes each of its spellings of
        infinity."""
        for q in ("inf", "Infinity", " INF "):
            code = main(
                ["oracle", "--weights", linft_file, "--p", "1", "--q", q,
                 "--form", "antigop-sup"]
            )
            assert code == 0
            out = json.loads(capsys.readouterr().out)
            assert out["constant"] == 2.0
            assert out["certificate"] == "exact-spike"
            assert out["evaluations"] == 2

    def test_q_below_p_is_heuristic(self, linft_file, capsys):
        code = main(
            ["oracle", "--weights", linft_file, "--p", "0.5", "--q", "0.25",
             "--form", "antigop-sup", "--restarts", "2", "--iterations", "20"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["certificate"] == "heuristic"

    def test_brute_force_gop(self, weights_file, capsys):
        code = main(
            ["oracle", "--weights", weights_file, "--p", "1", "--q", "1",
             "--restarts", "2", "--iterations", "20"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["constant"] == pytest.approx(2.0, rel=1e-9)
        assert "argmax" in out

    def test_bad_q(self, weights_file):
        assert main(["oracle", "--weights", weights_file, "--p", "1", "--q", "-1"]) == 2

    def test_zero_inner_exponent_rejected(self, weights_file, capsys):
        code = main(["oracle", "--weights", weights_file, "--p", "1", "--q", "1",
                     "--form", "gop-psum", "--inner-exponent", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_negative_iterations_rejected(self, weights_file, capsys):
        code = main(["oracle", "--weights", weights_file, "--p", "2", "--q", "3",
                     "--iterations", "-1"])
        assert code == 2
        assert "hardyseq: error: iterations must be >= 0" in capsys.readouterr().err

    def test_certificate_is_reported(self, weights_file, capsys):
        code = main(["oracle", "--weights", weights_file, "--p", "2", "--q", "3",
                     "--restarts", "2", "--iterations", "20"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["certificate"] == "heuristic"


class TestBridge:
    def test_unit_fixture(self, weights_file, capsys):
        code = main(["bridge", "--weights", weights_file, "--p", "1", "--q", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["discrete_lhs"] == 4.0
        assert out["lhs_equal"] and out["exact_lhs"]

    @pytest.mark.parametrize("window", [{"start": 2.5, "values": [1, 1]}, {"start": 0, "values": [1, True]}])
    def test_malformed_window_exits_two(self, tmp_path, window, capsys):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({k: window for k in "uvwa"}))
        assert main(["bridge", "--weights", str(path), "--p", "1", "--q", "1"]) == 2
        assert "hardyseq: error" in capsys.readouterr().err

    def test_missing_a(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"u": {"start": 0, "values": [1]}}))
        assert main(["bridge", "--weights", str(path), "--p", "1", "--q", "1"]) == 2

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_infinite_exponent_exits_two(self, weights_file, flag):
        args = {"--p": "1", "--q": "1", flag: "inf"}
        assert main(["bridge", "--weights", weights_file, *(x for kv in args.items() for x in kv)]) == 2

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_huge_integer_exponent_exits_two(self, weights_file, flag, capsys):
        args = {"--p": "1", "--q": "1", flag: "1e300"}
        assert main(["bridge", "--weights", weights_file, *(x for kv in args.items() for x in kv)]) == 2
        assert "above 2000" in capsys.readouterr().err

    def test_power_beyond_float_range(self, tmp_path, capsys):
        """The q-th power 2**1204 is no float, its cube root is."""
        path = tmp_path / "wide.json"
        ones = {"start": 0, "values": [1, 1]}
        path.write_text(json.dumps({"u": {"start": 0, "values": [2.0**400] * 2},
                                    "v": ones, "w": ones, "a": ones}))
        assert main(["bridge", "--weights", str(path), "--p", "1", "--q", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["discrete_lhs"] == pytest.approx(2.0**401 * 2 ** (1 / 3), rel=1e-15)
        assert out["lhs_equal"] and out["exact_lhs"]


class TestPartition:
    def test_uniform_window(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"start": 0, "values": [1, 1, 1, 1]}))
        code = main(["partition", "--weights", str(path), "--n0", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ns"] == [0, 1, 2, "inf"]
        assert out["K"] == 3 and out["kset"] == [2]

    def test_accepts_w_key(self, weights_file, capsys):
        assert main(["partition", "--weights", weights_file]) == 0

    def test_n0_out_of_range(self, weights_file):
        assert main(["partition", "--weights", weights_file, "--n0", "99"]) == 2

    def test_values_not_a_list_exits_two(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"start": 0, "values": 5}))
        assert main(["partition", "--weights", str(path)]) == 2
        assert "window values must be a list" in capsys.readouterr().err


class TestVerify:
    def test_default_small_spec(self, tmp_path, capsys):
        spec = {"seed": 1, "ensemble": 4, "window_sizes": [3, 5],
                "regimes": [[1.0, 1.0], [0.5, 1.0]],
                "suites": ["chain", "partition", "linft"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["verify", "--spec", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True
        assert out["schema_version"] == 1
        assert set(out["suites"]) == {"chain", "partition", "linft"}

    def test_empty_regime_list(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"regimes": []}))
        assert main(["verify", "--spec", str(path)]) == 2

    def test_empty_suites(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"suites": []}))
        assert main(["verify", "--spec", str(path)]) == 2

    def test_unknown_suite(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"suites": ["nope"]}))
        assert main(["verify", "--spec", str(path)]) == 2

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("ensemble", True), ("window_sizes", [4.5])])
    def test_non_integer_spec_field_exits_two(self, tmp_path, field, value, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({field: value}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("regimes", [[True, "3"]]), ("weight_exponent", "2")])
    def test_non_numeric_spec_field_exits_two(self, tmp_path, field, value, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({field: value}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["suites", "regimes", "window_sizes", "replay"])
    def test_list_spec_field_given_a_number_exits_two(self, tmp_path, field, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({field: 5}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert f"{field} must be a list" in capsys.readouterr().err

    def test_unknown_spec_fields_exit_two(self, tmp_path, capsys):
        """A misspelt field would otherwise run the default sweep and pass."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"suites": ["chain"], "ensembel": 1, "sede": 3}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert "unknown sweep spec fields ['ensembel', 'sede']" in capsys.readouterr().err

    def test_output_file_round_trips(self, tmp_path):
        spec = {"seed": 3, "ensemble": 3, "suites": ["chain"], "window_sizes": [4]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out_path = tmp_path / "report.json"
        code = main(["verify", "--spec", str(path), "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["passed"] is True

    def test_seed_determinism(self, tmp_path, capsys):
        spec = {"seed": 5, "ensemble": 4, "suites": ["linft"], "window_sizes": [4]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        main(["verify", "--spec", str(path)])
        first = capsys.readouterr().out
        main(["verify", "--spec", str(path)])
        second = capsys.readouterr().out
        assert first == second


class TestReplay:
    def test_failing_replay_entry_exits_one(self, tmp_path, monkeypatch, capsys):
        """A linft entry whose brute-force bound misses the exact value fails
        on replay."""
        real = oracle.brute_force_constants

        def halved(*args, **kwargs):
            return [dataclasses.replace(res, constant=res.constant / 2)
                    for res in real(*args, **kwargs)]

        monkeypatch.setattr(oracle, "brute_force_constants", halved)
        entry = {
            "suite": "linft",
            "u": {"start": 0, "values": [2, 1]},
            "v": {"start": 0, "values": [4, 1]},
            "p": 1.0,
        }
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"suites": ["chain"], "ensemble": 1, "replay": [entry]})
        )
        # A seed override keeps the spec's replay entries.
        for extra in ([], ["--seed", "0"]):
            assert main(["verify", "--spec", str(path), *extra]) == 1
            report = json.loads(capsys.readouterr().out)
            assert report["suites"]["chain"]["passed"] is True
            assert report["replay"][0]["passed"] is False
            observed = report["replay"][0]["observed"]
            assert observed["exact"] == 2 * observed["brute"]

    def test_replay_entry_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"suites": ["chain"], "ensemble": 1, "replay": [5]}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert "replay entry must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,message",
        [({"suite": "nope"}, "cannot replay suite 'nope'"),
         ({"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "n": 0},
          "a chain replay entry needs the fields p"),
         ({"suite": "doubling", "b": {"start": 0, "values": [1, 2, 4]}, "c": [1, 1, 1],
           "alpha": 1.0}, "window JSON must be"),
         # inputs of the right types that the suite's check rejects
         ({"suite": "equivalence-ratio", **{k: {"start": 0, "values": [1, 1]} for k in "uvw"},
           "p": 2.0, "q": 3.0, "form": "nope"}, "form must be one of gop, antigop, got 'nope'"),
         ({"suite": "chain-equivalence", **{k: {"start": 0, "values": [1, 1]} for k in "uvw"},
           "p": 0.5, "q": 1.0, "family": "nope"},
          "family must be one of antigop, gop, simple, got 'nope'"),
         ({"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "p": 0.5, "n": 2},
          "index 2 outside window [0, 1]"),
         ({"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "p": 1.5, "n": 0},
          "the chain requires p in (0, 1], got 1.5"),
         ({"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "p": 0.0, "n": 0},
          "the chain requires p in (0, 1], got 0.0"),
         ({"suite": "partition", "w": {"start": 0, "values": [1, 1, 1, 1]}, "n0": -1},
          "n0=-1 outside window [0, 3]"),
         ({"suite": "doubling", "b": {"start": 0, "values": [1, 2]},
           "c": {"start": 0, "values": [1, 1]}, "alpha": 1.0},
          "need kmin <= kmax - 2 inside the window, got [0, 1]"),
         ({"suite": "doubling", "b": {"start": 0, "values": [1, 2, 3, 8]},
           "c": {"start": 0, "values": [1, 1, 1, 1]}, "alpha": 1.0},
          "doubling b_{k+1} >= 2 b_k violated at k=1"),
         ({"suite": "linft", "u": {"start": 0, "values": [2, 1]},
           "v": {"start": 1, "values": [4, 1]}, "p": 1.0},
          "windows must share the same index range"),
         # the argument checks of the suites' entry points
         ({"suite": "linft", **{k: {"start": 0, "values": [2, 1]} for k in "uv"}, "p": 2.0},
          "the exact q=inf formula requires p in (0, 1], got 2.0"),
         ({"suite": "chain-equivalence", **{k: {"start": 0, "values": [1, 1]} for k in "uvw"},
           "p": 2.0, "q": 1.0, "family": "gop"},
          "the chain equivalences require p in (0, 1], got 2.0"),
         ({"suite": "bridge", **{k: {"start": 0, "values": [1, 1]} for k in "uvwa"}, "q": -1.0},
          "exponents must be positive and finite, got p=1.0, q=-1.0")],
    )
    def test_bad_replay_entry_exits_two_before_any_suite_runs(
        self, tmp_path, monkeypatch, capsys, entry, message
    ):
        def never(*args):
            raise AssertionError("a suite ran")

        for suite in ("doubling", "chain"):
            monkeypatch.setitem(
                verification._SUITES, suite, (never, *verification._SUITES[suite][1:])
            )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"suites": ["doubling", "chain"], "replay": [entry]}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_replay_reproduces_identical_numbers(self):
        entry = {
            "suite": "chain",
            "a": {"start": 0, "values": [1.0, 1.0]},
            "p": 0.5,
            "n": 0,
        }
        spec = SweepSpec(suites=("chain",), ensemble=1, replay=(entry,))
        report1 = run_verification(spec)
        report2 = run_verification(spec)
        assert report1["replay"] == report2["replay"]
        assert report1["replay"][0]["observed"] == [1.0, 2.0, 4.0]
        assert report1["replay"][0]["passed"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hardyseq.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "hardyseq" in proc.stdout
