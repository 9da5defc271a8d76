import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fracspec import checks
from fracspec.cli import _build_model, _config_doc, _json, _load_artifact, _make_parser, main
from fracspec.discretize import Grid1D
from fracspec.semigroup import generator_matrix

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def build_args(out, **kw):
    args = ["build", "--model", "kipriyanov1d", "--grid-n", "24", "--alpha", "0.6",
            "--sigma", "0.3", "--a11", "const:1.0", "--rho", "const:0.1",
            "--out", str(out)]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


# one small build per model, at the benchmark's model flags
SMALL_BUILDS = {
    "kipriyanov1d": ["--grid-n", "24", "--alpha", "0.6", "--sigma", "0.3",
                     "--a11", "const:1.0", "--rho", "const:0.1"],
    "riesz": ["--grid-n", "24", "--alpha", "0.9", "--rho", "const:0.1"],
    "difference": ["--grid-n", "24", "--rho", "const:0.1"],
}

# the paper flags each paper model does not read, set off their defaults, and
# the same flags at their defaults (--mu's default, None, has no spelling)
UNREAD_FLAGS = {
    "kipriyanov1d": (["--lambda", "2", "--mu", "0.1", "--delta", "2"],
                     ["--lambda", "1", "--delta", "1"]),
    "riesz": (["--lambda", "2", "--mu", "0.1"], ["--lambda", "1"]),
    "difference": (["--sigma", "0.5", "--delta", "2"], ["--sigma", "0.25", "--delta", "1"]),
}


# (name, status) of each check of a full verify, by suite
SEMIGROUP_OK = [("semigroup-law", "pass"), ("semigroup-contraction", "pass"),
                ("semigroup-identity", "pass")]
FRACPOW_OK = [("gl-coefficient-identity", "pass"), ("gl-absolute-sum", "pass"),
              ("lemma-constant", "pass"), ("balakrishnan-vs-spectral", "pass")]
SPECTRUM_OK = [("generator-m-accretive", "pass"), ("order-estimate", "info"),
               ("schatten-classification", "info"), ("numerical-range", "info"),
               ("h1-h2-bounds", "pass"), ("sectorial-factorization", "pass"),
               ("realpart-resolvent-identity", "pass"), ("completeness-criterion", "pass"),
               ("eigenvalue-asymptotics", "pass")]


def assert_close(got, want):
    """``got`` equals the fixture ``want`` in structure, key order, strings and
    flags, and in every float to the benchmark's default tolerance."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)
    else:
        assert got == want


def assert_matches_fixture(report, name):
    """The report at ``report`` and its CSV sidecars match the fixture
    ``tests/data/<name>.json`` and its sidecars (absent when the fixture's are)."""
    with open(os.path.join(DATA, name + ".json")) as fh:
        assert_close(json.loads(report.read_text()), json.load(fh))
    for ext in (".spectrum.csv", ".boundary.csv"):
        got, want = report.parent / (report.name + ext), os.path.join(DATA, name + ".json" + ext)
        assert got.exists() == os.path.exists(want)
        if got.exists():
            with open(want) as fh:
                want_lines = fh.read().splitlines()
            got_lines = got.read_text().splitlines()
            assert got_lines[0] == want_lines[0] and len(got_lines) == len(want_lines)
            rows = [[float(x) for x in line.split(",")] for line in got_lines[1:]]
            assert_close(rows, [[float(x) for x in line.split(",")] for line in want_lines[1:]])


def strict_loads(text):
    """json.loads that refuses the NaN/Infinity tokens RFC 8259 lacks."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestArtifactFormat:
    @pytest.mark.parametrize("model", sorted(SMALL_BUILDS))
    def test_build_load_lossless(self, tmp_path, capsys, model):
        argv = ["build", "--model", model, *SMALL_BUILDS[model], "--out", str(tmp_path / "a.json")]
        assert main(argv) == 0
        built, _ = _build_model(_config_doc(_make_parser().parse_args(argv)))
        loaded, config = _load_artifact(str(tmp_path / "a.json"))
        assert config["model"] == model and loaded.semigroup.grid.n == 24
        assert loaded.semigroup == built.semigroup
        pairs = [(built.L, loaded.L), (built.spec.J, loaded.spec.J), (built.spec.G, loaded.spec.G),
                 (built.spec.F, loaded.spec.F), (built.hplus, loaded.hplus)]
        for want, got in pairs:
            # every paper model has real coefficients, so all its matrices are real
            assert got.dtype == want.dtype == np.float64 and np.array_equal(want, got)
        assert loaded.spec.alpha == built.spec.alpha
        for key in ("sigma_const", "gamma_N", "norm_Q_inv"):
            assert getattr(built, key) == getattr(loaded, key)
            assert (getattr(loaded, key) is None) == (model != "difference")

    def test_complex_data_stay_complex(self, tmp_path, capsys, monkeypatch):
        # a complex a11 and a complex custom matrix keep complex128 through the
        # artifact, bit for bit
        monkeypatch.chdir(tmp_path)
        M = np.array([[4 + 1j, 1, 0, 0], [-1, 4 - 1j, 1, 0], [0, -1, 4 + 0.5j, 1], [0, 0, -1, 4]])
        with open("m.csv", "w") as fh:
            fh.writelines(",".join(str(z).strip("()") for z in row) + "\n" for row in M)
        builds = {"kipriyanov1d": ["--grid-n", "24", "--a11", "poly:1,0.1j"],
                  "custom-matrix": ["--a11", "m.csv"]}
        for model, flags in builds.items():
            argv = ["build", "--model", model, *flags, "--out", "a.json"]
            assert main(argv) == 0
            built, _ = _build_model(_config_doc(_make_parser().parse_args(argv)))
            loaded, _ = _load_artifact("a.json")
            assert built.L.dtype == loaded.L.dtype == np.complex128
            assert np.array_equal(built.L, loaded.L)
            if model == "custom-matrix":
                assert np.array_equal(loaded.L, M)
                assert loaded.spec is loaded.hplus is loaded.semigroup is None
            else:
                assert np.array_equal(built.spec.G, loaded.spec.G)
                assert loaded.spec.G.dtype == np.complex128
                assert loaded.spec.J.dtype == np.float64  # the shift generator has no data

    def test_artifact_and_report_are_strict_json(self, tmp_path, capsys):
        out, rep = tmp_path / "a.json", tmp_path / "r.json"
        assert main(["build", "--model", "kipriyanov1d", *SMALL_BUILDS["kipriyanov1d"],
                     "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out), "--report", str(rep)]) == 0
        strict_loads(out.read_text())
        assert strict_loads(rep.read_text())["schema"] == "fracspec-report-1"

    def test_non_finite_numbers_become_strings(self):
        doc = {"x": float("nan"), "y": [np.inf, -np.inf, (np.float64("nan"),)],
               "z": None, "b": True, "a": np.array([0.1, 2.0]), "i": np.int64(3)}
        assert strict_loads(_json(doc)) == {"x": "nan", "y": ["inf", "-inf", ["nan"]],
                                            "z": None, "b": True, "a": [0.1, 2.0], "i": 3}


class TestBuild:
    def test_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        assert main(build_args(out)) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["coefficients", "config", "schema"]
        assert doc["schema"] == "fracspec-artifact-2"
        assert len(doc["coefficients"]["a11"]["re"]) == 24
        assert doc["config"]["model"] == "kipriyanov1d"

    @pytest.mark.parametrize("model", list(UNREAD_FLAGS))
    def test_unread_flags_refused(self, model, tmp_path, capsys):
        # each flag the model does not read is named when set off its default;
        # at its default it is harmless
        off, at_default = UNREAD_FLAGS[model]
        out = tmp_path / "art.json"
        assert main(["build", "--model", model, *SMALL_BUILDS[model], *off, "--out", str(out)]) == 2
        assert f"{model} takes no {', '.join(off[::2])}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["build", "--model", model, *SMALL_BUILDS[model], *at_default,
                     "--out", str(out)]) == 0

    def test_invalid_alpha_exit_2(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        assert main(build_args(out, alpha=1.5)) == 2
        assert not out.exists()
        assert "alpha" in capsys.readouterr().err

    def test_invalid_grid_exit_2(self, tmp_path, capsys):
        assert main(build_args(tmp_path / "a.json", grid_n=2)) == 2

    def test_riesz_alpha_constraint(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code = main(["build", "--model", "riesz", "--grid-n", "16", "--alpha", "0.8",
                     "--sigma", "0.2", "--out", str(out)])
        assert code == 2

    def test_assembly_failure_exit_3(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        assert main(build_args(out, a11="const:-1.0")) == 3
        assert "assembly failed" in capsys.readouterr().err

    @pytest.mark.parametrize("model,flag,value", [
        ("kipriyanov1d", "lambda", "nan"), ("kipriyanov1d", "delta", "inf"),
        ("riesz", "delta", "nan"), ("difference", "mu", "nan"), ("difference", "lambda", "inf"),
        ("custom-matrix", "alpha", "inf"), ("kipriyanov1d", "sigma", "nan")])
    def test_non_finite_flag_exit_2(self, tmp_path, capsys, model, flag, value):
        out = tmp_path / "art.json"
        assert main(build_args(out, model=model, **{flag: value})) == 2
        assert f"--{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_a11_exit_3(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        assert main(build_args(out, a11="const:nan")) == 3
        assert "not above bound" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_coefficient_exit_3(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        assert main(build_args(out, rho="const:nan")) == 3
        assert "assembly failed" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_artifact_exit_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "a.json"
        assert main(build_args(out)) == 2
        assert f"cannot write {out}: No such file or directory" in capsys.readouterr().err

    def test_byte_identical_rebuild(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(build_args(a))
        main(build_args(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_full_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        rep = tmp_path / "rep.json"
        main(build_args(out, grid_n=48))
        code = main(["verify", "--out", str(out), "--suite", "full",
                     "--seed", "1", "--report", str(rep)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["schema"] == "fracspec-report-1"
        names = [c["name"] for c in doc["checks"]]
        for expected in ("semigroup-law", "gl-coefficient-identity",
                         "balakrishnan-vs-spectral", "generator-m-accretive",
                         "sectorial-factorization", "realpart-resolvent-identity",
                         "completeness-criterion", "class-membership"):
            assert expected in names
        for c in doc["checks"]:
            assert c["status"] in ("pass", "info")
            assert "paper_anchor" in c and "numbers" in c

    def test_report_byte_determinism(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        main(build_args(out, grid_n=32))
        reps = []
        for name in ("r1.json", "r2.json"):
            rep = tmp_path / name
            code = main(["verify", "--out", str(out), "--suite", "full",
                         "--seed", "7", "--report", str(rep)])
            assert code == 0
            reps.append(rep)
        assert reps[0].read_bytes() == reps[1].read_bytes()
        for ext in (".spectrum.csv", ".boundary.csv"):
            a = (tmp_path / ("r1.json" + ext)).read_bytes()
            b = (tmp_path / ("r2.json" + ext)).read_bytes()
            assert a == b

    def test_sidecar_columns(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        rep = tmp_path / "rep.json"
        main(build_args(out, grid_n=24))
        main(["verify", "--out", str(out), "--suite", "spectrum",
              "--report", str(rep)])
        spectrum = (tmp_path / "rep.json.spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "index,re,im,modulus"
        assert len(spectrum) == 25
        boundary = (tmp_path / "rep.json.boundary.csv").read_text().splitlines()
        assert boundary[0] == "re,im"
        assert len(boundary) == 257

    def test_build_flags_rejected(self, tmp_path, capsys):
        # the model configuration comes from the artifact alone
        out = tmp_path / "art.json"
        main(build_args(out))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "riesz", "--out", str(out)])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    def test_missing_artifact_exit_2(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path / "nope.json")]) == 2
        assert main(["verify", "--suite", "fracpow"]) == 2

    def test_stdout_report_when_no_path(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        main(build_args(out, grid_n=24))
        capsys.readouterr()
        assert main(["verify", "--out", str(out), "--suite", "class"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["name"] == "class-membership"

    @pytest.mark.parametrize("model,grid_n,code,checks", [
        ("kipriyanov1d", 24, 0, SEMIGROUP_OK + FRACPOW_OK + SPECTRUM_OK
         + [("class-membership", "pass")]),
        ("riesz", 64, 1, SEMIGROUP_OK + [("yosida-kernel-vs-solve", "info")] + FRACPOW_OK
         + SPECTRUM_OK + [("class-membership", "fail")]),
        ("difference", 24, 1, SEMIGROUP_OK + FRACPOW_OK + SPECTRUM_OK
         + [("class-membership", "fail"), ("difference-h2-threshold", "fail")]),
    ])
    def test_full_suite_outcome_per_model(self, tmp_path, capsys, model, grid_n, code, checks):
        out, rep = tmp_path / "art.json", tmp_path / "rep.json"
        flags = SMALL_BUILDS[model][2:]  # all but --grid-n
        assert main(["build", "--model", model, "--grid-n", str(grid_n), *flags,
                     "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out), "--report", str(rep)]) == code
        doc = json.loads(rep.read_text())
        assert [(c["name"], c["status"]) for c in doc["checks"]] == checks
        assert_matches_fixture(rep, f"verify-{model}-n{grid_n}")

    def test_gate_errors_match_fixtures(self, tmp_path, capsys, monkeypatch):
        # a semigroup-suite error skips the rest of its suite; a resolvent-spectrum
        # error skips the rest of its suite and writes no sidecars
        monkeypatch.chdir(tmp_path)  # the custom matrix's path is recorded as given
        assert main(["build", "--model", "riesz", *SMALL_BUILDS["riesz"], "--out", "a.json"]) == 0
        assert main(["verify", "--out", "a.json", "--report", "r.json"]) == 4
        assert_matches_fixture(tmp_path / "r.json", "verify-riesz-n24")
        np.savetxt("m.csv", np.diag([1.0] * 19 + [0.0]), delimiter=",")
        assert main(["build", "--model", "custom-matrix", "--a11", "m.csv", "--out", "b.json"]) == 0
        assert main(["verify", "--out", "b.json", "--report", "s.json"]) == 4
        assert_matches_fixture(tmp_path / "s.json", "verify-custom-singular")
        assert not (tmp_path / "s.json.spectrum.csv").exists()

    def test_unwritable_report_exit_2(self, tmp_path, capsys, monkeypatch):
        out, rep = tmp_path / "art.json", tmp_path / "no" / "such" / "r.json"
        assert main(build_args(out)) == 0
        ran = []
        monkeypatch.setattr(checks, "run", lambda *a: ran.append(a) or [])
        assert main(["verify", "--out", str(out), "--suite", "full", "--report", str(rep)]) == 2
        assert f"cannot write {rep}: " in capsys.readouterr().err
        assert ran == []  # refused before any check ran

    def test_unwritable_sidecar_exit_2(self, tmp_path, capsys):
        # the report is written; its spectrum sidecar's path is a directory
        out, rep = tmp_path / "art.json", tmp_path / "r.json"
        sidecar = tmp_path / "r.json.spectrum.csv"
        assert main(build_args(out)) == 0
        sidecar.mkdir()
        capsys.readouterr()
        assert main(["verify", "--out", str(out), "--suite", "spectrum", "--report", str(rep)]) == 2
        assert f"cannot write {sidecar}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        out, rep = tmp_path / "art.json", tmp_path / "r.json"
        if command == "build":
            argv = build_args(out)
        else:
            assert main(build_args(out)) == 0
            argv = ["verify", "--out", str(out), "--report", str(rep)]
        capsys.readouterr()
        assert main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "invalid configuration: --seed must be nonnegative\n"
        assert not (rep if command == "verify" else out).exists()

    @pytest.mark.parametrize("grid_n", [8, 40])
    def test_conjugate_pair_lists_positive_imag_first(self, tmp_path, capsys, grid_n):
        out, rep = tmp_path / "art.json", tmp_path / "rep.json"
        assert main(["build", "--model", "riesz", "--grid-n", str(grid_n), "--alpha", "0.9",
                     "--rho", "const:0.1", "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out), "--suite", "spectrum", "--report", str(rep)]) in (0, 1)
        rows = (tmp_path / "rep.json.spectrum.csv").read_text().splitlines()[1:3]
        (_, re0, im0, mod0), (_, re1, im1, mod1) = (r.split(",") for r in rows)
        assert (re0, mod0) == (re1, mod1) and float(im0) == -float(im1) > 0

    def test_unresolved_gauss_time_is_error_entry(self, tmp_path, capsys):
        # on (-20, 20) at n = 24, h^2/4 exceeds the smallest probe time 0.1
        out, rep = tmp_path / "art.json", tmp_path / "rep.json"
        assert main(["build", "--model", "riesz", *SMALL_BUILDS["riesz"], "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out), "--suite", "full", "--report", str(rep)]) == 4
        entry = json.loads(rep.read_text())["checks"][0]
        assert (entry["name"], entry["status"]) == ("semigroup-suite", "error")
        assert entry["numbers"]["exception"] == "UnderResolvedTime"

    def test_huge_poisson_rate_passes_semigroup_suite(self, tmp_path, capsys):
        # at lam t up to 2e12 every Poisson weight underflows to 0, so T_t is 0
        out, rep = tmp_path / "art.json", tmp_path / "rep.json"
        assert main(["build", "--model", "difference", "--grid-n", "16", "--lambda", "1e12",
                     "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out), "--suite", "semigroup", "--report", str(rep)]) == 0
        assert [(c["name"], c["status"]) for c in json.loads(rep.read_text())["checks"]] == SEMIGROUP_OK



class TestCustomMatrix:
    def write_matrix(self, path, m):
        np.savetxt(path, m, delimiter=",")

    def test_full_suite_on_spd_matrix(self, tmp_path, capsys):
        # a custom matrix is L alone: build refuses the paper-model flags, the
        # entries that read a semigroup, J, the h+ norm matrix or the
        # transform say so, and the fracpow suite runs at alpha = 0.5 and lambda = 1
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.diag(np.arange(1.0, 21.0) ** 2))
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath), "--alpha", "0.8",
                     "--out", str(out)]) == 2
        assert "custom-matrix takes no --alpha" in capsys.readouterr().err
        assert not out.exists()
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath),
                     "--out", str(out)]) == 0
        code = main(["verify", "--out", str(out),
                     "--suite", "full", "--report", str(tmp_path / "rep.json")])
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert {name: c["numbers"]["message"] for name, c in by_name.items()
                if c["status"] == "info" and "message" in c["numbers"]} == {
            "semigroup-suite": "no semigroup attached to custom-matrix",
            "generator-m-accretive": "model has no generator J",
            "h1-h2-bounds": "model has no h+ norm matrix",
            "class-membership": "no transform description for custom-matrix"}
        gl = by_name["gl-coefficient-identity"]["numbers"]
        assert (gl["alpha"], gl["lambda"]) == (0.5, 1.0)
        assert "difference-h2-threshold" not in by_name
        assert by_name["order-estimate"]["numbers"]["mu"] == pytest.approx(2.0, abs=0.05)

    def test_paper_model_flags_refused(self, tmp_path, capsys):
        # every flag set off its default is named; one at its default is harmless
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.eye(4))
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath), "--grid-n", "24",
                     "--mu", "0.1", "--rho", "sin", "--out", str(out)]) == 2
        assert "custom-matrix takes no --grid-n, --mu, --rho" in capsys.readouterr().err
        assert not out.exists()
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath), "--alpha", "0.5",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["alpha"] == 0.5

    def test_failing_check_exit_1(self, tmp_path, capsys):
        # slowly decaying modulus (mu = 1/2) with a wide sector angle breaks
        # the completeness criterion: fail, not error
        k = np.arange(1.0, 21.0)
        diag = k**0.5 * np.exp(1j * 1.5 * np.sign(np.cos(k)))
        m = np.diag(diag)
        mpath = tmp_path / "m.csv"
        np.savetxt(mpath, m, delimiter=",", fmt="%s")
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath),
                     "--out", str(out)]) == 0
        code = main(["verify", "--out", str(out),
                     "--suite", "spectrum", "--report", str(tmp_path / "rep.json")])
        assert code == 1
        doc = json.loads((tmp_path / "rep.json").read_text())
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["completeness-criterion"] == "fail"
        assert "error" not in statuses.values()

    def test_non_finite_entry_exit_3(self, tmp_path, capsys):
        m = np.eye(6)
        m[2, 3] = np.nan
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, m)
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath),
                     "--out", str(out)]) == 3
        assert "assembly failed: matrix holds non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    def test_non_square_matrix_exit_3(self, tmp_path, capsys):
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.ones((5, 6)))
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath),
                     "--out", str(out)]) == 3
        assert "assembly failed: matrix must be square and non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_indefinite_hermitian_part_is_error_entry(self, tmp_path, capsys):
        # both readers of the factorization of L report its failure
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.diag(np.linspace(-2.0, 5.0, 20)))
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath),
                     "--out", str(out)]) == 0
        code = main(["verify", "--out", str(out),
                     "--suite", "spectrum", "--report", str(tmp_path / "rep.json")])
        assert code == 4
        doc = json.loads((tmp_path / "rep.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        for name in ("sectorial-factorization", "realpart-resolvent-identity"):
            assert by_name[name]["status"] == "error"
            assert by_name[name]["numbers"]["exception"] == "NotPositiveDefinite"
            assert re.fullmatch(r"Hermitian part min eigenvalue -2\.000e\+00 not above floor \S+",
                                by_name[name]["numbers"]["message"])

    def test_singular_matrix_exit_4(self, tmp_path, capsys):
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.diag([1.0] * 19 + [0.0]))
        out = tmp_path / "art.json"
        main(["build", "--model", "custom-matrix", "--a11", str(mpath), "--out", str(out)])
        code = main(["verify", "--out", str(out),
                     "--suite", "spectrum", "--report", str(tmp_path / "rep.json")])
        assert code == 4
        doc = json.loads((tmp_path / "rep.json").read_text())
        entry = {c["name"]: c for c in doc["checks"]}["resolvent-spectrum"]
        assert entry["status"] == "error"
        assert entry["numbers"]["exception"] == "IllConditioned"
        assert entry["numbers"]["message"]


class TestModelSemigroup:
    """Each builder stores the semigroup whose generator is its J."""

    @staticmethod
    def build(model, *flags):
        argv = ["build", "--model", model, *flags, "--out", "unused.json"]
        return _build_model(_config_doc(_make_parser().parse_args(argv)))[0]

    @pytest.mark.parametrize("model, kind", [
        ("kipriyanov1d", "shift"), ("riesz", "gauss"), ("difference", "poisson")])
    def test_generator_of_the_semigroup_is_J(self, model, kind):
        built = self.build(model, *SMALL_BUILDS[model])
        ends = (-20.0, 20.0) if model == "riesz" else (0.0, 1.0)
        assert built.semigroup.kind == kind and built.semigroup.grid == Grid1D(*ends, 24)
        J = generator_matrix(built.semigroup)
        assert J.dtype == built.spec.J.dtype and J.tobytes() == built.spec.J.tobytes()

    def test_custom_matrix_has_no_semigroup(self, tmp_path):
        np.savetxt(tmp_path / "m.csv", np.diag([1.0, 2.0, 3.0, 4.0]), delimiter=",")
        assert self.build("custom-matrix", "--a11", str(tmp_path / "m.csv")).semigroup is None

    def test_difference_shift_is_4h_unless_given(self):
        h = Grid1D(0.0, 1.0, 24).h
        built = self.build("difference", "--grid-n", "24", "--lambda", "2.5")
        assert (built.semigroup.lam, built.semigroup.mu) == (2.5, 4 * h)
        built = self.build("difference", "--grid-n", "24", "--mu", repr(2 * h))
        assert built.semigroup.mu == 2 * h and built.semigroup.shift_steps == 2


class TestArtifactInputs:
    """Verify re-assembles the model from the artifact's config and samples."""

    def verify(self, art, rep):
        code = main(["verify", "--out", str(art), "--report", str(rep)])
        return code, [rep.read_bytes()] + [
            (rep.parent / (rep.name + ext)).read_bytes() for ext in (".spectrum.csv", ".boundary.csv")]

    def test_schema_1_artifact_gives_the_same_report(self, tmp_path, capsys):
        # written by the schema-1 builder, which stored the assembled matrices
        with open(os.path.join(DATA, "kipriyanov1d-n8-artifact-1.json")) as fh:
            v1 = json.load(fh)
        assert v1["schema"] == "fracspec-artifact-1"
        v2 = tmp_path / "v2.json"
        assert main(build_args(v2, grid_n=8)) == 0
        want = self.verify(v2, tmp_path / "r2.json")
        code, (report, *_) = want
        checks = {c["name"]: c for c in json.loads(report)["checks"]}
        assert code == 0 and "error" not in {c["status"] for c in checks.values()}
        # eight singular values are too few for an order, and no order is assumed
        assert checks["order-estimate"]["numbers"] == {
            "message": "need at least 16 singular values", "count": 8}
        assert checks["schatten-classification"]["numbers"] == {"message": "order unavailable"}
        v1_path = tmp_path / "v1.json"
        v1_path.write_text(json.dumps(v1))
        assert self.verify(v1_path, tmp_path / "r1.json") == want
        # its stored blocks are not read
        v1["matrix"]["re"][0][0] = "nan"
        v1["transform"]["J"]["im"][1][1] = 1e300
        v1_path.write_text(json.dumps(v1))
        assert self.verify(v1_path, tmp_path / "r1.json") == want

    def test_schema_1_difference_artifact_gives_the_same_report(self, tmp_path, capsys):
        # a schema-1 artifact stores no samples and no mu when --mu was not
        # given, so verify assembles the default shift of 4h from the config
        v2 = tmp_path / "v2.json"
        assert main(["build", "--model", "difference", *SMALL_BUILDS["difference"],
                     "--out", str(v2)]) == 0
        want = self.verify(v2, tmp_path / "r2.json")
        v1 = json.loads(v2.read_text())
        assert v1["config"]["mu"] is None
        v1["schema"] = "fracspec-artifact-1"
        del v1["coefficients"]
        v1_path = tmp_path / "v1.json"
        v1_path.write_text(json.dumps(v1))
        assert self.verify(v1_path, tmp_path / "r1.json") == want

    def test_csv_coefficient_not_read_at_verify(self, tmp_path, capsys):
        csv = tmp_path / "a11.csv"
        np.savetxt(csv, 1.0 + np.linspace(0.0, 1.0, 24), delimiter=",")
        out = tmp_path / "art.json"
        assert main(build_args(out, a11=csv)) == 0
        before = self.verify(out, tmp_path / "r.json")
        csv.unlink()
        assert self.verify(out, tmp_path / "r.json") == before

    def test_custom_matrix_nan_entry_exit_2(self, tmp_path, capsys):
        mpath, out = tmp_path / "m.csv", tmp_path / "art.json"
        np.savetxt(mpath, np.diag(np.arange(1.0, 9.0)), delimiter=",")
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["config", "matrix", "schema"]
        doc["matrix"]["re"][2][3] = "nan"
        out.write_text(json.dumps(doc))
        assert main(["verify", "--out", str(out), "--report", str(tmp_path / "r.json")]) == 2
        assert "cannot read artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1, 15])
    @pytest.mark.parametrize("name", ["a11", "rho"])
    def test_sample_count_off_the_grid_exit_2(self, tmp_path, capsys, name, count):
        # one stored sample would be broadcast to a constant coefficient
        out, rep = tmp_path / "art.json", tmp_path / "r.json"
        assert main(build_args(out, grid_n=16)) == 0
        doc = json.loads(out.read_text())
        samples = doc["coefficients"][name]
        for part in ("re", "im"):
            samples[part] = samples[part][:count]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--out", str(out), "--report", str(rep)]) == 2
        assert capsys.readouterr().err == (
            f"cannot read artifact: coefficient {name} holds {count} samples, grid has 16 nodes\n")
        assert not rep.exists()

    @pytest.mark.parametrize("key,value", [("alpha", 1.5), ("grid_n", 2), ("schema", "other")])
    def test_rejected_input_exit_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "art.json"
        assert main(build_args(out)) == 0
        doc = json.loads(out.read_text())
        (doc if key == "schema" else doc["config"])[key] = value
        out.write_text(json.dumps(doc))
        assert main(["verify", "--out", str(out), "--report", str(tmp_path / "r.json")]) == 2
        assert "cannot read artifact" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestBuildVerifyParity:
    """The builders own every parameter range: build refuses a value with the
    library's message (exit 2, no artifact), and verify refuses a valid
    artifact edited to the same value with the same message (exit 2, no report)."""

    CASES = [
        ("kipriyanov1d", "alpha", 1.5, "alpha must lie in (0, 1), got 1.5"),
        ("difference", "alpha", 0.0, "alpha must lie in (0, 1), got 0.0"),
        ("riesz", "alpha", 0.8, "riesz model needs sigma/2 + 3/4 < alpha < 1, got alpha = 0.8"),
        ("kipriyanov1d", "sigma", 1.0, "sigma must lie in [0, 1), got 1.0"),
        ("riesz", "sigma", -0.1, "sigma must lie in [0, 1), got -0.1"),
        ("difference", "lambda", 0.0, "poisson semigroup needs lam > 0 and mu > 0, got lam = 0.0, mu = 0.16"),
        ("difference", "mu", -0.08, "poisson semigroup needs lam > 0 and mu > 0, got lam = 1.0, mu = -0.08"),
        ("difference", "mu", 0.013, "mu = 0.013 is not a positive multiple of h = 0.04"),
        ("riesz", "delta", -50.0, "riesz model needs delta >= 0, got delta = -50.0"),
        ("kipriyanov1d", "grid_n", 2, "grid needs n >= 4 interior nodes, got n = 2"),
    ]

    @pytest.mark.parametrize("model,key,value,message", CASES,
                             ids=[f"{model}-{key}-{value}" for model, key, value, _ in CASES])
    def test_build_and_verify_refuse_alike(self, tmp_path, capsys, model, key, value, message):
        out, rep = tmp_path / "art.json", tmp_path / "r.json"
        flag = "--" + key.replace("_", "-")
        assert main(["build", "--model", model, *SMALL_BUILDS[model], flag, str(value),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"invalid configuration: {message}\n"
        assert not out.exists()
        assert main(["build", "--model", model, *SMALL_BUILDS[model], "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["config"][key] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--out", str(out), "--report", str(rep)]) == 2
        assert capsys.readouterr().err == f"cannot read artifact: {message}\n"
        assert not rep.exists()

    def test_unreadable_coefficient_met_before_a_bad_alpha(self, tmp_path, capsys):
        # the coefficient is sampled before the builder checks alpha
        out = tmp_path / "art.json"
        assert main(build_args(out, a11=tmp_path / "missing.csv", alpha=1.5)) == 3
        assert "assembly failed" in capsys.readouterr().err


def test_python_m_fracspec_runs_the_cli():
    # a plain checkout has the command line without an install
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-m", "fracspec", "--help"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("usage: fracspec ")
    assert "{build,verify}" in out


def test_import_leaves_the_environment_unchanged():
    # BLAS reads OMP_NUM_THREADS and its own variables when numpy loads, which
    # under pytest is before any fracspec import, so the package must not try
    # to set them; the package-prefixed cap it once copied is set here (its
    # name split so that a search for it finds no live use)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["FRACSPEC" + "_THREADS"] = "1"
    code = ("import os; before = dict(os.environ); import fracspec; "
            "print(sorted(set(os.environ.items()) ^ set(before.items())))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a start-up; the Poisson weights use scipy.special
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import fracspec.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
