import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fracspec.cli import _dumps, main


def build_args(out, **kw):
    args = ["build", "--model", "kipriyanov1d", "--grid-n", "24", "--alpha", "0.6",
            "--sigma", "0.3", "--a11", "const:1.0", "--rho", "const:0.1",
            "--out", str(out)]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


class TestDumps:
    def test_deterministic_floats(self):
        s = _dumps({"x": 0.1, "y": [1.0, float("inf"), float("nan")], "z": None, "b": True})
        assert '"x": 0.10000000000000001' in s
        assert '"inf"' in s and '"nan"' in s
        assert '"z": null' in s and '"b": true' in s

    def test_round_trip_precision(self):
        x = np.pi / 3
        assert float(json.loads(_dumps({"x": x}))["x"]) == x


class TestBuild:
    def test_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        assert main(build_args(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "fracspec-artifact-1"
        assert doc["grid"]["n"] == 24
        assert len(doc["matrix"]["re"]) == 24
        assert len(doc["transform"]["J"]["re"]) == 24
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

    def test_singular_matrix_exit_4(self, tmp_path, capsys):
        mpath = tmp_path / "m.csv"
        self.write_matrix(mpath, np.diag([1.0] * 19 + [0.0]))
        out = tmp_path / "art.json"
        main(["build", "--model", "custom-matrix", "--a11", str(mpath), "--out", str(out)])
        code = main(["verify", "--out", str(out),
                     "--suite", "spectrum", "--report", str(tmp_path / "rep.json")])
        assert code == 4
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert any(c["status"] == "error" for c in doc["checks"])


class TestThreadCap:
    def test_env_cap_applies(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACSPEC_THREADS", "1")
        out = tmp_path / "art.json"
        assert main(build_args(out)) == 0

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
