import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fracspec import checks
from fracspec.cli import _build_model, _config_doc, _json, _load_artifact, _make_parser, main

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
        built, built_grid, _ = _build_model(_config_doc(_make_parser().parse_args(argv)))
        loaded, grid, config = _load_artifact(str(tmp_path / "a.json"))
        assert config["model"] == model and grid.n == 24 and grid == built_grid
        pairs = [(built.L, loaded.L), (built.spec.J, loaded.spec.J), (built.spec.G, loaded.spec.G),
                 (built.spec.F, loaded.spec.F), (built.hplus, loaded.hplus)]
        for want, got in pairs:
            assert got.dtype == np.complex128 and np.array_equal(want, got)
        assert loaded.spec.alpha == built.spec.alpha
        for key in ("delta", "sigma_const", "gamma_N", "norm_Q_inv"):
            assert np.array_equal(getattr(built, key), getattr(loaded, key), equal_nan=True)
        if model != "difference":
            assert np.isnan(loaded.sigma_const)

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



class TestCustomMatrix:
    def write_matrix(self, path, m):
        np.savetxt(path, m, delimiter=",")

    def test_full_suite_on_spd_matrix(self, tmp_path, capsys):
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.diag(np.arange(1.0, 21.0) ** 2))
        out = tmp_path / "art.json"
        assert main(["build", "--model", "custom-matrix", "--a11", str(mpath),
                     "--out", str(out)]) == 0
        code = main(["verify", "--out", str(out),
                     "--suite", "full", "--report", str(tmp_path / "rep.json")])
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["semigroup-suite"]["status"] == "info"
        assert by_name["order-estimate"]["numbers"]["mu"] == pytest.approx(2.0, abs=0.05)

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
        assert "assembly failed: matrix shape must match grid size" in capsys.readouterr().err
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


class TestThreadCap:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_env_cap_reaches_blas(self):
        # BLAS sizes its pool when numpy loads, so the cap must be in place
        # by then; a capped process runs a large matmul on its one thread
        code = ("import fracspec, numpy as np; a = np.ones((400, 400)); a @ a; "
                "print([l for l in open('/proc/self/status') if l.startswith('Threads:')][0])")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["FRACSPEC_THREADS"] = "1"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["Threads:", "1"]


def test_python_m_fracspec_runs_the_cli():
    # a plain checkout has the command line without an install
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-m", "fracspec", "--help"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("usage: fracspec ")
    assert "{build,verify}" in out


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a start-up; the Poisson weights use scipy.special
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import fracspec.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
