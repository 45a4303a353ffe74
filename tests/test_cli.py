import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import gausscoh as gc
from gausscoh import cli
from gausscoh import serialization as ser
from gausscoh.channels import rotation_channel

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_golden(name, text):
    path = GOLDEN / name
    if os.environ.get("GAUSS_COHERENCE_REGEN"):
        path.write_text(text)
    assert text == path.read_text(), f"output drifted from golden file {name}"


@pytest.fixture()
def coherent_file(tmp_path):
    path = tmp_path / "coherent.json"
    ser.save_state(gc.coherent(1.0), path)
    return str(path)


@pytest.fixture()
def thermal_file(tmp_path):
    path = tmp_path / "thermal.json"
    ser.save_state(gc.thermal([1.0]), path)
    return str(path)


@pytest.fixture()
def rotation_file(tmp_path):
    path = tmp_path / "rotation.json"
    ser.save_channel(rotation_channel(0.8), path)
    return str(path)


@pytest.fixture()
def attenuator_file(tmp_path):
    path = tmp_path / "attenuator.json"
    ser.save_channel(
        gc.validate_channel(0.5 * np.eye(2), 0.75 * np.eye(2), np.zeros(2)), path
    )
    return str(path)


class TestGoldenOutputs:
    def test_make_thermal(self):
        code, out, _ = run_cli(["make", "thermal", "--n", "0.5,2.0"])
        assert code == 0
        assert_golden("make_thermal.json", out)

    def test_make_coherent_pretty(self):
        code, out, _ = run_cli(["--pretty", "make", "coherent", "--alpha", "1,0.5"])
        assert code == 0
        assert_golden("make_coherent_pretty.json", out)

    def test_make_squeezed(self):
        code, out, _ = run_cli(["make", "squeezed", "--alpha", "0.3", "--beta", "0,0.6"])
        assert code == 0
        assert_golden("make_squeezed.json", out)

    def test_make_standard_form(self):
        code, out, _ = run_cli(
            ["make", "standard-form", "--a", "2", "--b", "3", "--c", "0.8",
             "--d-corr", "-0.5"]
        )
        assert code == 0
        assert_golden("make_standard_form.json", out)

    def test_coherence_report(self, coherent_file):
        code, out, _ = run_cli(["coherence", coherent_file])
        assert code == 0
        assert_golden("coherence_coherent.json", out)

    def test_spectrum(self, tmp_path):
        path = tmp_path / "sf.json"
        ser.save_state(gc.two_mode_standard_form(2.0, 3.0, 0.8, -0.5), path)
        code, out, _ = run_cli(["spectrum", str(path)])
        assert code == 0
        assert_golden("spectrum_standard_form.json", out)

    def test_gen_pair(self):
        code, out, _ = run_cli(["gen", "pair", "--modes", "2", "--seed", "7"])
        assert code == 0
        assert_golden("gen_pair_m2_s7.json", out)

    def test_classify_rotation(self, rotation_file):
        code, out, _ = run_cli(["classify", rotation_file])
        assert code == 0
        assert_golden("classify_rotation.json", out)

    def test_petz_attenuator(self, attenuator_file):
        code, out, _ = run_cli(["petz", attenuator_file, "--thermal", "1.0"])
        assert code == 0
        assert_golden("petz_attenuator.json", out)


class TestExitCodes:
    def test_validate_ok(self, coherent_file):
        code, out, _ = run_cli(["validate", coherent_file])
        assert code == 0
        assert json.loads(out)["modes"] == 1

    def test_validate_unphysical_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"modes": 1, "mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]]})
        )
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "UncertaintyViolationError"

    @pytest.mark.parametrize(
        "cov",
        [[[-3, 0], [0, -3]], [[1, 0, 2, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]],
        ids=["negative", "indefinite"],
    )
    def test_validate_not_positive_definite_is_input_error(self, tmp_path, cov):
        path = tmp_path / "bad.json"
        n = len(cov)
        path.write_text(json.dumps({"modes": n // 2, "mean": [0] * n, "cov": cov}))
        code, out, err = run_cli(["validate", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "UncertaintyViolationError"

    @pytest.mark.parametrize(
        "doc",
        [
            '{"modes": 1, "mean": [0, 0], "cov": [[NaN, 0], [0, 2]]}',
            '{"modes": 1, "mean": [NaN, 0], "cov": [[2, 0], [0, 2]]}',
            '{"modes": 1, "mean": [0, Infinity], "cov": [[2, 0], [0, 2]]}',
        ],
        ids=["nan-cov", "nan-mean", "inf-mean"],
    )
    @pytest.mark.parametrize("command", ["validate", "equiv"])
    def test_non_finite_state_is_input_error(self, tmp_path, doc, command):
        # json reads NaN and Infinity; the state must still be rejected
        path = tmp_path / "bad.json"
        path.write_text(doc)
        argv = [command, str(path)] + ([str(path)] if command == "equiv" else [])
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "NonFiniteError"

    def test_non_finite_channel_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"modes": 1, "T": [[1, 0], [0, 1]], "N": [[NaN, 0], [0, 0]],'
            ' "shift": [0, 0]}'
        )
        code, out, err = run_cli(["classify", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "NonFiniteError"

    def test_make_indefinite_standard_form_is_input_error(self):
        code, out, err = run_cli(
            ["make", "standard-form", "--a", "1", "--b", "1", "--c", "2",
             "--d-corr", "0"]
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "UncertaintyViolationError"

    @pytest.mark.parametrize(
        "argv",
        [["--tol", "-1e-5", "validate", "x.json"], ["nonsense"], ["equiv", "a.json"]],
        ids=["negative-tol", "unknown-command", "missing-argument"],
    )
    def test_usage_error_is_json(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.run(argv)
        out, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "ArgumentError"

    def test_help_is_plain_text(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.run(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gausscoh")

    def test_missing_file_is_input_error(self):
        code, _, err = run_cli(["validate", "/nonexistent/state.json"])
        assert code == 2
        assert "error" in err

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["validate", str(path)])
        assert code == 2

    def test_not_equivalent_is_one(self, coherent_file, thermal_file):
        code, out, _ = run_cli(["equiv", coherent_file, thermal_file])
        assert code == 1
        assert json.loads(out)["verdict"] == "not-equivalent"

    def test_equivalent_is_zero(self, tmp_path, coherent_file):
        other = tmp_path / "rotated.json"
        ser.save_state(
            gc.apply_incoherent_unitary(
                gc.IncoherentUnitary(perm=(0,), angles=(0.9,)), gc.coherent(1.0)
            ),
            other,
        )
        code, out, _ = run_cli(["equiv", coherent_file, str(other)])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "equivalent"
        assert doc["residual"] <= 1e-8

    def test_equiv_oracle_agrees(self, tmp_path, coherent_file):
        other = tmp_path / "rotated.json"
        ser.save_state(
            gc.apply_incoherent_unitary(
                gc.IncoherentUnitary(perm=(0,), angles=(0.9,)), gc.coherent(1.0)
            ),
            other,
        )
        code, out, _ = run_cli(["equiv", "--oracle", coherent_file, str(other)])
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_all_incoherent_is_zero(self, tmp_path, thermal_file):
        other = tmp_path / "thermal2.json"
        ser.save_state(gc.thermal([2.0]), other)
        code, out, _ = run_cli(["equiv", thermal_file, str(other)])
        assert code == 0
        assert json.loads(out)["verdict"] == "all-incoherent"

    def test_classify_beamsplitter_is_one(self, tmp_path):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        T = np.kron(np.array([[c, s], [-s, c]]), np.eye(2))
        path = tmp_path / "bs.json"
        ser.save_channel(
            gc.validate_channel(T, np.zeros((4, 4)), np.zeros(4)), path
        )
        code, out, _ = run_cli(["classify", str(path)])
        assert code == 1
        assert json.loads(out)["verdict"] == "not-incoherent"

    def test_frozen_rotation_is_zero(self, coherent_file, rotation_file):
        code, out, _ = run_cli(["frozen", coherent_file, rotation_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["frozen"]
        assert "certificate" in doc

    def test_frozen_attenuator_is_one(self, coherent_file, attenuator_file):
        code, out, _ = run_cli(["frozen", coherent_file, attenuator_file])
        assert code == 1
        assert not json.loads(out)["frozen"]

    def test_petz_unfaithful_is_input_error(self, tmp_path):
        path = tmp_path / "erase.json"
        ser.save_channel(
            gc.validate_channel(np.zeros((2, 2)), np.eye(2), np.zeros(2)), path
        )
        code, _, err = run_cli(["petz", str(path), "--thermal", "1.0"])
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "NotFaithfulError"

    def test_bad_thermal_reference_is_input_error(self, rotation_file):
        code, _, err = run_cli(["petz", rotation_file, "--thermal", "-1.0"])
        assert code == 2


class TestToleranceControls:
    def test_flag_loosens_validation(self, tmp_path):
        # barely unphysical state accepted under a loose tolerance
        cov = (1.0 - 1e-7) * np.eye(2)
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps({"modes": 1, "mean": [0.0, 0.0], "cov": cov.tolist()})
        )
        assert run_cli(["validate", str(path)])[0] == 2
        assert run_cli(["--tol", "1e-5", "validate", str(path)])[0] == 0

    def test_env_var_applies(self, tmp_path, monkeypatch):
        cov = (1.0 - 1e-7) * np.eye(2)
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps({"modes": 1, "mean": [0.0, 0.0], "cov": cov.tolist()})
        )
        monkeypatch.setenv("GAUSS_COHERENCE_TOL", "1e-5")
        assert run_cli(["validate", str(path)])[0] == 0

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        cov = (1.0 - 1e-7) * np.eye(2)
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps({"modes": 1, "mean": [0.0, 0.0], "cov": cov.tolist()})
        )
        monkeypatch.setenv("GAUSS_COHERENCE_TOL", "1e-5")
        assert run_cli(["--tol", "1e-12", "validate", str(path)])[0] == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1e-5", "abc"])
    def test_bad_flag_is_input_error(self, tmp_path, raw):
        # a NaN tolerance makes every comparison false, which used to skip
        # the uncertainty check and accept V = 0.1 I
        path = tmp_path / "unphysical.json"
        path.write_text(
            json.dumps({"modes": 1, "mean": [0.0, 0.0], "cov": [[0.1, 0], [0, 0.1]]})
        )
        code, out, err = run_cli([f"--tol={raw}", "validate", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "ValueError"

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-1e-5"])
    def test_bad_env_var_is_input_error(self, coherent_file, monkeypatch, raw):
        monkeypatch.setenv("GAUSS_COHERENCE_TOL", raw)
        code, out, err = run_cli(["validate", coherent_file])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "ValueError"


def test_import_loads_no_scipy():
    src = str(Path(gc.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import gausscoh, sys; assert 'scipy' not in sys.modules"
    subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True
    )


class TestRoundTrips:
    def test_make_then_validate(self, tmp_path):
        _, out, _ = run_cli(["make", "thermal", "--n", "1.5"])
        path = tmp_path / "made.json"
        path.write_text(out)
        code, echoed, _ = run_cli(["validate", str(path)])
        assert code == 0
        assert json.loads(echoed) == json.loads(out)

    def test_apply_rotation(self, tmp_path, coherent_file, rotation_file):
        code, out, _ = run_cli(["apply", rotation_file, coherent_file])
        assert code == 0
        doc = json.loads(out)
        expected = gc.apply_channel(rotation_channel(0.8), gc.coherent(1.0))
        np.testing.assert_allclose(doc["mean"], expected.mean, atol=1e-12)

    def test_sample_class_members_equivalent(self, tmp_path):
        path = tmp_path / "sf.json"
        ser.save_state(gc.two_mode_standard_form(2.0, 3.0, 0.8, -0.5), path)
        code, out, _ = run_cli(
            ["sample-class", str(path), "--theta1", "0.7", "--theta2", "1.9"]
        )
        assert code == 0
        doc = json.loads(out)
        base = ser.load_state(path)
        for key in ("plain", "swapped"):
            member = ser.state_from_dict(doc[key])
            assert isinstance(gc.decide_equivalence(base, member), gc.Equivalent)

    def test_gen_state_deterministic(self):
        a = run_cli(["gen", "state", "--modes", "3", "--seed", "11"])[1]
        b = run_cli(["gen", "state", "--modes", "3", "--seed", "11"])[1]
        assert a == b

    def test_gen_pair_certificate_valid(self):
        _, out, _ = run_cli(["gen", "pair", "--modes", "2", "--seed", "4"])
        doc = json.loads(out)
        rho = ser.state_from_dict(doc["rho"])
        sigma = ser.state_from_dict(doc["sigma"])
        cert = gc.IncoherentUnitary(
            perm=tuple(doc["certificate"]["perm"]),
            angles=tuple(doc["certificate"]["angles"]),
        )
        image = gc.apply_incoherent_unitary(cert, rho)
        np.testing.assert_allclose(image.cov, sigma.cov, atol=1e-10)
