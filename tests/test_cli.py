import importlib
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
from gausscoh import cli, equivalence
from gausscoh import serialization as ser
from gausscoh.channels import rotation_channel
from test_equivalence import noisy_planted_pair

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
        [
            ["make", "standard-form", "--a", "1e200", "--b", "1e200", "--c", "0",
             "--d-corr", "0"],
            ["make", "squeezed", "--beta=355"],
            ["make", "squeezed", "--beta=356"],
            ["make", "coherent", "--alpha", "1e200"],
        ],
        ids=["standard-form-norm", "squeezed-entries", "squeezed-sinh", "coherent-mean"],
    )
    def test_overflowing_make_is_input_error(self, argv):
        # not a traceback with exit 1, nor a state with numpy overflow warnings
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "NonFiniteError"

    def test_overflowing_channel_is_input_error(self, tmp_path):
        path = tmp_path / "amplifier.json"
        path.write_text('{"modes": 1, "T": [[1e200, 0], [0, 1e200]], "N": [[0, 0], [0, 0]],'
                        ' "shift": [0, 0]}')
        for argv in (["classify", str(path)], ["--tol", "0.1", "classify", str(path)]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"]["kind"] == "NonFiniteError"

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

    def test_frozen_contradiction_is_numeric_error(
        self, coherent_file, rotation_file, monkeypatch
    ):
        def refuses(rho, sigma):
            return gc.NotEquivalent(witness="search exhausted")

        monkeypatch.setattr(equivalence, "decide_equivalence", refuses)
        code, out, err = run_cli(["frozen", coherent_file, rotation_file])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "numeric-error"

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

    def test_out_of_memory_is_input_error(self, coherent_file, monkeypatch):
        # as numpy raises for an array too large to allocate, e.g. gen --modes 200000
        def refuses(path, tol=None):
            raise MemoryError("Unable to allocate 1.16 TiB")

        monkeypatch.setattr(ser, "load_state", refuses)
        code, out, err = run_cli(["validate", coherent_file])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "kind": "MemoryError", "detail": "Unable to allocate 1.16 TiB"
        }


STATE = {"modes": 1, "mean": [0, 0], "cov": [[2, 0], [0, 2]]}
CHANNEL = {"modes": 1, "T": [[1, 0], [0, 1]], "N": [[0, 0], [0, 0]], "shift": [0, 0]}


def _malformed(doc, key):
    """Documents ``doc`` made malformed one way each, by id."""
    return {
        "missing-key": {k: v for k, v in doc.items() if k != key},
        "non-numeric-entry": {**doc, key: [["a", 0], [0, 1]]},
        "ragged": {**doc, key: [[1, 0], [0]]},
        "too-large": {**doc, key: [[10**400, 0], [0, 1]]},
        "non-object": [doc],
        "modes-disagree": {**doc, "modes": 2},
        "modes-float": {**doc, "modes": 1.7},
        "modes-string": {**doc, "modes": "1"},
        "modes-bool": {**doc, "modes": True},
        "modes-null": {**doc, "modes": None},
    }


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", list(_malformed(STATE, "cov")))
    @pytest.mark.parametrize("command", ["validate", "coherence", "spectrum"])
    def test_state(self, tmp_path, command, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_malformed(STATE, "cov")[case]))
        code, out, err = run_cli([command, str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "ShapeError"

    @pytest.mark.parametrize("case", list(_malformed(CHANNEL, "T")))
    def test_channel(self, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_malformed(CHANNEL, "T")[case]))
        code, out, err = run_cli(["classify", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "ShapeError"

    @pytest.mark.parametrize("modes", [1.7, "1", True, 1.0])
    def test_library_rejects_non_integer_modes(self, modes):
        with pytest.raises(gc.ShapeError, match="modes must be an integer"):
            ser.state_from_dict({**STATE, "modes": modes})
        with pytest.raises(gc.ShapeError, match="modes must be an integer"):
            ser.channel_from_dict({**CHANNEL, "modes": modes})

    def test_numpy_integer_modes_accepted(self):
        assert ser.state_from_dict({**STATE, "modes": np.int64(1)}).modes == 1

    def test_too_deeply_nested_is_input_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(["validate", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "RecursionError"

    def test_make_coherent_with_three_components_is_input_error(self):
        code, out, err = run_cli(["make", "coherent", "--alpha", "1,2,3"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "ValueError"


class TestEquivDocuments:
    """``equiv`` prints the library's verdict, whatever its kind."""

    def _equiv(self, tmp_path, rho, sigma):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for state, path in zip((rho, sigma), paths):
            ser.save_state(state, path)
        code, out, _ = run_cli(["equiv", *map(str, paths)])
        loaded = [ser.load_state(path) for path in paths]
        return code, json.loads(out), gc.decide_equivalence(*loaded)

    def test_hypothesis_violated(self, tmp_path):
        # a product of a coherent and a vacuum mode: no cross block at all
        product = gc.validate_state(np.eye(4), np.array([0.0, 0.0, 2.0, 0.0]))
        code, doc, verdict = self._equiv(tmp_path, product, product)
        assert isinstance(verdict, gc.HypothesisViolated)
        assert code == 0
        assert doc == {"verdict": "hypothesis-violated", "mode": 0, "reason": verdict.reason}

    def test_not_equivalent_with_best_residual(self, tmp_path):
        # noise on the image that each mode's checks let through, but not
        # the whole residual: the search reaches complete assignments
        rho, image, _ = noisy_planted_pair(19, 3e-8, 1e-3)
        code, doc, verdict = self._equiv(tmp_path, rho, image)
        assert verdict.best_residual is not None
        assert code == 1
        assert doc == {
            "verdict": "not-equivalent",
            "witness": verdict.witness,
            "best_residual": verdict.best_residual,
        }


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

    def test_flag_moves_every_band_of_equiv(self, tmp_path):
        # the image's 1e-5 noise moves its labels past the default band
        rho, image, tol = noisy_planted_pair(3, 1e-5, 1e-3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ser.save_state(rho, a)
        ser.save_state(image, b)
        assert run_cli(["equiv", str(a), str(b)])[0] == 1
        code, out, _ = run_cli(["--tol", repr(tol), "equiv", str(a), str(b)])
        assert code == 0
        assert json.loads(out)["residual"] <= tol

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


def _loaded(code, *args):
    """The gausscoh submodules a fresh interpreter without bytecode holds after ``code``."""
    src = str(Path(gc.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    report = "\nprint(json.dumps([m for m in sys.modules if m.startswith('gausscoh.')]))"
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + report, *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


#: a subcommand's argv, with the fixture files it reads
_LIGHT_COMMANDS = {
    "validate": ["validate", "{state}"],
    "spectrum": ["spectrum", "{state}"],
    "coherence": ["coherence", "{state}"],
    "apply": ["apply", "{rotation}", "{state}"],
    "classify": ["classify", "{rotation}"],
    "petz": ["petz", "{attenuator}", "--thermal", "1"],
    "make": ["make", "squeezed", "--alpha", "1,0", "--beta", "0.5"],
}
_RUN = "from gausscoh import cli\nassert cli.run(sys.argv[1:]) == 0"


class TestImportContract:
    """Names load on first use, and each subcommand only the modules it runs."""

    def test_package_import_loads_no_submodule(self):
        assert _loaded("import gausscoh") == set()

    @pytest.mark.parametrize("command", sorted(_LIGHT_COMMANDS))
    def test_light_commands_load_no_decider(
        self, command, coherent_file, rotation_file, attenuator_file
    ):
        files = {"state": coherent_file, "rotation": rotation_file, "attenuator": attenuator_file}
        argv = [arg.format(**files) for arg in _LIGHT_COMMANDS[command]]
        loaded = _loaded(_RUN, *argv)
        assert not loaded & {"gausscoh.equivalence", "gausscoh.sampling"}

    def test_equiv_loads_no_channel_or_state_family(self, coherent_file):
        loaded = _loaded(_RUN, "equiv", coherent_file, coherent_file)
        assert "gausscoh.equivalence" in loaded
        modules = ("channels", "coherence", "zoo", "sampling")
        assert not loaded & {f"gausscoh.{name}" for name in modules}

    def test_submodules_import_by_name(self):
        # perfbench imports these two; neither is a public name of the package
        code = "from gausscoh import cli, serialization\nassert cli.run and serialization.dumps"
        modules = {"cli", "core", "errors", "serialization"}
        assert _loaded(code) == {f"gausscoh.{name}" for name in modules}

    def test_unknown_attribute_raises_and_loads_nothing(self):
        code = (
            "import gausscoh\n"
            "for name in ('nope', 'sampling', 'decide'):\n"
            "    try:\n"
            "        getattr(gausscoh, name)\n"
            "    except AttributeError as exc:\n"
            "        assert repr(name) in str(exc)\n"
            "    else:\n"
            "        raise AssertionError(name)\n"
        )
        assert _loaded(code) == set()

    def test_every_public_name_is_its_home_modules_object(self):
        names = [name for names in gc._HOMES.values() for name in names]
        assert sorted(names) == gc.__all__ and len(set(names)) == 50
        assert set(gc.__all__) <= set(dir(gc))
        for home, names in gc._HOMES.items():
            module = importlib.import_module(f"gausscoh.{home}")
            for name in names:
                assert getattr(gc, name) is getattr(module, name)

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from gausscoh import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == gc.__all__
        assert len(namespace) == 50 and "validate_channel" in namespace


def test_documents_are_utf8_under_an_ascii_locale(tmp_path):
    # a C locale without UTF-8 mode makes ASCII the default file encoding
    src = str(Path(gc.__file__).resolve().parents[1])
    path = tmp_path / "state.json"
    path.write_bytes('{"modes":1,"mean":[0,0],"cov":[[1,0],[0,1]],"café":1}'.encode())
    code = (
        "import locale, sys; from gausscoh import serialization as ser, vacuum\n"
        "assert locale.getpreferredencoding(False) != 'UTF-8'\n"
        "state = ser.load_state(sys.argv[1]); ser.save_state(state, sys.argv[1] + '.out')\n"
        "assert ser.load_state(sys.argv[1] + '.out').cov.tolist() == vacuum().cov.tolist()\n"
    )
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"}
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)


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
