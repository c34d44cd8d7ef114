import json
import os

import numpy as np
import pytest

from fastla.cli import main, payload_bytes
from fastla.core import EPS, RngStream, gaussian_matrix, read_matrix, write_matrix

from helpers import pair_over_zero, random_triangular


@pytest.fixture
def workdir(tmp_path, rng):
    write_matrix(tmp_path / "I4.mat", np.eye(4))
    write_matrix(tmp_path / "A.mat", gaussian_matrix(8, 8, rng.split(0)))
    write_matrix(tmp_path / "sing.mat", np.array([[1.0, 2.0], [2.0, 4.0]]))
    write_matrix(tmp_path / "tri.mat", random_triangular(6, rng.split(1), shift=3.0))
    b = random_triangular(5, rng.split(2), shift=3.0)
    b[np.arange(5), np.arange(5)] *= -1.0
    write_matrix(tmp_path / "B.mat", b)
    write_matrix(tmp_path / "C.mat", gaussian_matrix(6, 5, rng.split(3)))
    g = gaussian_matrix(6, 6, rng.split(4))
    write_matrix(tmp_path / "spd.mat", g @ g.T + 6.0 * np.eye(6))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_qr_identity_exit0_residual0(self, workdir):
        report = workdir / "r.json"
        assert run(["decompose", "qr", "--in", workdir / "I4.mat",
                    "--report", report]) == 0
        data = json.loads(report.read_text())
        assert data["payload"]["results"]["residual"] == 0.0

    def test_missing_file_exit2(self, workdir, capsys):
        assert run(["decompose", "qr", "--in", workdir / "nope.mat"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_flags_exit2(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run(["decompose", "qr", "--in", workdir / "I4.mat", "--engine", "magic"])
        assert exc.value.code == 2

    def test_precision_only_on_invert(self, workdir):
        # Only inversion has an extended-precision route, so only `invert`
        # takes --precision; elsewhere the flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            run(["rurv", "--in", workdir / "A.mat", "--precision", "extended"])
        assert exc.value.code == 2

    def test_lu_singular_exit1_flagged(self, workdir):
        report = workdir / "lu.json"
        assert run(["decompose", "lu", "--in", workdir / "sing.mat",
                    "--report", report]) == 1
        data = json.loads(report.read_text())
        assert "zero-pivot" in data["payload"]["results"]["flags"]


class TestDecomposeOutputs:
    def test_qr_files_reconstruct(self, workdir):
        out = workdir / "qrout"
        assert run(["decompose", "qr", "--in", workdir / "A.mat",
                    "--engine", "strassen", "--cutoff", 4, "--out", out,
                    "--report", workdir / "qr.json"]) == 0
        a = read_matrix(workdir / "A.mat")
        r = read_matrix(f"{out}.r.mat")
        w = read_matrix(f"{out}.w.mat")
        y = read_matrix(f"{out}.y.mat")
        q = np.eye(8) - (w @ y).T
        assert np.linalg.norm(a - q @ np.vstack([r])) <= 1e-11

    def test_invert_kinds(self, workdir):
        for kind, path in [("tri", "tri.mat"), ("spd", "spd.mat"), ("general", "A.mat")]:
            assert run(["invert", "--in", workdir / path, "--kind", kind,
                        "--report", workdir / f"inv-{kind}.json"]) == 0

    def test_invert_extended(self, workdir):
        rep = workdir / "inv-ext.json"
        assert run(["invert", "--in", workdir / "tri.mat", "--kind", "tri",
                    "--precision", "extended", "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert data["payload"]["results"]["precision"] == "extended"

    def test_rurv(self, workdir):
        assert run(["rurv", "--in", workdir / "A.mat", "--seed", 5,
                    "--report", workdir / "rurv.json"]) == 0

    def test_sylvester(self, workdir):
        rep = workdir / "syl.json"
        assert run(["sylvester", "--a", workdir / "tri.mat", "--b", workdir / "B.mat",
                    "--c", workdir / "C.mat", "--out", workdir / "syl",
                    "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert data["payload"]["results"]["sep_is_upper_bound"] is False
        assert data["payload"]["results"]["sep"] > 0
        r = read_matrix(f"{workdir}/syl.r.mat")
        assert r.shape == (6, 5)

    def test_eig_with_vectors(self, workdir):
        rep = workdir / "eig.json"
        assert run(["eig", "--in", workdir / "A.mat", "--seed", 7, "--vectors",
                    "--out", workdir / "eig", "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert data["payload"]["results"]["splits"] >= 1
        t = read_matrix(f"{workdir}/eig.t.mat")
        q = read_matrix(f"{workdir}/eig.q.mat")
        a = read_matrix(workdir / "A.mat")
        assert np.linalg.norm(a - q @ t @ q.T) <= 1e-10 * np.linalg.norm(a)

    def test_eig_splits_by_circle(self, workdir):
        write_matrix(workdir / "pair.mat", pair_over_zero())
        rep = workdir / "pair.json"
        assert run(["eig", "--in", workdir / "pair.mat", "--report", rep]) == 0
        results = json.loads(rep.read_text())["payload"]["results"]
        assert results["splits"] == 1
        # Circles are the driver's own choice; the old switch is gone.
        with pytest.raises(SystemExit) as exc:
            run(["eig", "--in", workdir / "pair.mat", "--disks"])
        assert exc.value.code == 2

    def test_eig_symmetric(self, workdir):
        a = read_matrix(workdir / "spd.mat")
        assert run(["eig", "--in", workdir / "spd.mat", "--symmetric", "--seed", 3,
                    "--report", workdir / "eigs.json"]) == 0

    def test_svd(self, workdir):
        rep = workdir / "svd.json"
        assert run(["svd", "--in", workdir / "A.mat", "--seed", 11, "--report", rep]) == 0
        results = json.loads(rep.read_text())["payload"]["results"]
        assert results["orth_defect"] <= 1e3 * 8 * 8 * EPS
        assert results["residual"] <= results["bound"]

    def test_svd_flagged_exit1(self, workdir):
        rep = workdir / "svd-sing.json"
        assert run(["svd", "--in", workdir / "sing.mat", "--report", rep]) == 1
        results = json.loads(rep.read_text())["payload"]["results"]
        assert "rank-deficient" in results["flags"]


class TestBench:
    def test_matmul_strassen_exponent(self, workdir):
        rep = workdir / "bench.json"
        assert run(["bench", "matmul", "--engine", "strassen", "--cutoff", 1,
                    "--sizes", "16,32,64", "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert abs(data["payload"]["results"]["exponent"] - np.log2(7)) <= 0.01

    def test_svd_rows_and_exponent(self, workdir):
        rep = workdir / "bench-svd.json"
        assert run(["bench", "svd", "--engine", "strassen", "--cutoff", 1,
                    "--sizes", "16,32,64", "--report", rep]) == 0
        results = json.loads(rep.read_text())["payload"]["results"]
        assert [set(r) for r in results["rows"]] == [{"n", "mults", "adds"}] * 3
        assert [r["n"] for r in results["rows"]] == [16, 32, 64]
        assert np.isfinite(results["exponent"])

    def test_csv_output(self, workdir):
        out = workdir / "bench.csv"
        assert run(["bench", "matmul", "--sizes", "8,16", "--format", "csv",
                    "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 3
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["blas_seconds"]) > 0.0

    def test_block_lu_rows(self, workdir):
        rep = workdir / "blu.json"
        assert run(["bench", "block-lu", "--engine", "strassen", "--cutoff", 8,
                    "--sizes", "32", "--blocks", "4,8,16,32", "--gamma", 2.81,
                    "--report", rep]) == 0
        data = json.loads(rep.read_text())
        rows = data["payload"]["results"]["rows"]
        assert {r["b"] for r in rows} == {4, 8, 16, 32}
        assert all(r["residual"] <= 1e-11 for r in rows)


class TestVerify:
    @pytest.mark.parametrize("suite", ["matmul", "qr", "lu", "inverse", "rurv",
                                       "sylvester", "eig"])
    def test_quick_suites_pass(self, suite, workdir):
        rep = workdir / f"v-{suite}.json"
        assert run(["verify", suite, "--quick", "--seed", 7, "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert data["payload"]["pass"] is True

    def test_fstat_suite(self, workdir):
        assert run(["verify", "rurv-fstat", "--n", 24, "--r", 12, "--trials", 60,
                    "--seed", 5, "--report", workdir / "vf.json"]) == 0

    def test_determinism_byte_identical(self, workdir):
        rep1 = workdir / "d1.json"
        rep2 = workdir / "d2.json"
        for rep in (rep1, rep2):
            assert run(["verify", "qr", "--quick", "--seed", 7, "--report", rep]) == 0
        d1 = json.loads(rep1.read_text())
        d2 = json.loads(rep2.read_text())
        assert payload_bytes(d1) == payload_bytes(d2)


class TestExperiment:
    def test_fstat_csv(self, workdir):
        out = workdir / "fstat.csv"
        assert run(["experiment", "f-stat", "--n", 12, "--r", 6, "--trials", 20,
                    "--seed", 1, "--out", out, "--report", workdir / "fs.json"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,f"
        assert len(lines) == 21
