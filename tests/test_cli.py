import json

import numpy as np
import pytest

from fastla import bounds, lur, qrr, rurv, sylr
from fastla.cli import main
from fastla.core import EXTENDED, RngStream, gaussian_matrix, read_matrix, write_matrix
from fastla.inverse import gen_inv, spd_inv, tri_inv
from fastla.matmul import MmEngine
from fastla.verify import SUITES, random_triangular, spd_with_condition, stable_float

from helpers import pairs_over_zero, tiny_tail_embedding


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
        # A general inverse passes within backward(n) kappa^2: the recurrence
        # bound of the normal-equations route is 1 here, and passed any X.
        results = json.loads((workdir / "inv-general.json").read_text())["payload"]["results"]
        kappa = gen_inv(read_matrix(workdir / "A.mat"))[1].kappa
        assert results["bound"] == pytest.approx(bounds.backward(8) * kappa ** 2, rel=1e-11)
        assert results["predicted_bound"] == 1.0 > results["bound"]

    def test_invert_tri_spd_bound_is_backward_grade(self, workdir):
        # Their recurrence bounds clamp to 1 at n = 64, a bound that passes
        # any X with ||XA - I||_F <= 1; backward(n) kappa does not.
        t = np.triu(gaussian_matrix(64, 64, RngStream(3))) + 3.0 * np.eye(64)
        for kind, a in [("tri", t), ("spd", spd_with_condition(64, 1e3, RngStream(4)))]:
            write_matrix(workdir / f"{kind}64.mat", a)
            rep = workdir / f"{kind}64.json"
            assert run(["invert", "--in", workdir / f"{kind}64.mat", "--kind", kind,
                        "--report", rep]) == 0
            assert json.loads(rep.read_text())["payload"]["results"]["bound"] < 1e-3

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
        # 24 rows, more than the driver's leaf, so that it splits.
        write_matrix(workdir / "G.mat", gaussian_matrix(24, 24, RngStream(24)))
        rep = workdir / "eig.json"
        assert run(["eig", "--in", workdir / "G.mat", "--seed", 7, "--vectors",
                    "--out", workdir / "eig", "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert data["payload"]["results"]["splits"] >= 1
        t = read_matrix(f"{workdir}/eig.t.mat")
        q = read_matrix(f"{workdir}/eig.q.mat")
        a = read_matrix(workdir / "G.mat")
        assert np.linalg.norm(a - q @ t @ q.T) <= 1e-10 * np.linalg.norm(a)

    def test_eig_splits_by_circle(self, workdir):
        write_matrix(workdir / "pair.mat", pairs_over_zero())
        rep = workdir / "pair.json"
        assert run(["eig", "--in", workdir / "pair.mat", "--report", rep]) == 0
        results = json.loads(rep.read_text())["payload"]["results"]
        assert results["splits"] == 1
        (line,) = [node["line"] for node in results["tree"] if node["kind"] == "split"]
        assert len(line) == 2 and all(x == float(f"{x:.12e}") for x in line)
        # Circles are the driver's own choice; the old switch is gone.
        with pytest.raises(SystemExit) as exc:
            run(["eig", "--in", workdir / "pair.mat", "--disks"])
        assert exc.value.code == 2

    def test_eig_symmetric(self, workdir):
        a = read_matrix(workdir / "spd.mat")
        assert run(["eig", "--in", workdir / "spd.mat", "--symmetric", "--seed", 3,
                    "--report", workdir / "eigs.json"]) == 0
        assert run(["eig", "--in", workdir / "A.mat", "--symmetric"]) == 2

    def test_eig_symmetric_reports_driver(self, workdir):
        # The payload is the driver's: its splits, tree and cluster flag,
        # and its T, not the diagonal of a sorted eigenvalue list.
        write_matrix(workdir / "h.mat", tiny_tail_embedding())
        rep = workdir / "h.json"
        assert run(["eig", "--in", workdir / "h.mat", "--symmetric", "--out", workdir / "h",
                    "--report", rep]) == 1
        results = json.loads(rep.read_text())["payload"]["results"]
        assert results["splits"] == 0
        assert results["flags"] == ["cluster:0:128"]
        assert [node["kind"] for node in results["tree"]] == ["cluster"]
        h = read_matrix(workdir / "h.mat")
        t = read_matrix(f"{workdir}/h.t.mat")
        q = read_matrix(f"{workdir}/h.q.mat")
        assert np.linalg.norm(h - q @ t @ q.T) <= 1e-12 * np.linalg.norm(h)

    def test_svd(self, workdir):
        rep = workdir / "svd.json"
        assert run(["svd", "--in", workdir / "A.mat", "--seed", 11, "--report", rep]) == 0
        results = json.loads(rep.read_text())["payload"]["results"]
        assert results["orth_defect"] <= bounds.backward(8)
        assert results["residual"] <= results["bound"]

    def test_svd_flagged_exit1(self, workdir):
        rep = workdir / "svd-sing.json"
        assert run(["svd", "--in", workdir / "sing.mat", "--report", rep]) == 1
        results = json.loads(rep.read_text())["payload"]["results"]
        assert "rank-deficient" in results["flags"]


def _library(res):
    """(report, zero pivot) of a library result, as the CLI reads it."""
    if isinstance(res, tuple):
        return res[1], False
    return res.report, getattr(res, "zero_pivot", False)


STRASSEN4 = MmEngine("strassen", cutoff=4)
# (name, command, the library call it makes on the fixture's files)
JUDGED = [
    ("qr", ["decompose", "qr", "--in", "A.mat"], lambda m: qrr(m("A"))),
    ("qr-strassen", ["decompose", "qr", "--in", "A.mat", "--engine", "strassen", "--cutoff", 4],
     lambda m: qrr(m("A"), STRASSEN4)),
    ("lu", ["decompose", "lu", "--in", "A.mat"], lambda m: lur(m("A"))),
    ("lu-singular", ["decompose", "lu", "--in", "sing.mat"], lambda m: lur(m("sing"))),
    ("tri", ["invert", "--kind", "tri", "--in", "tri.mat"], lambda m: tri_inv(m("tri"))),
    ("spd", ["invert", "--kind", "spd", "--in", "spd.mat"], lambda m: spd_inv(m("spd"))),
    ("general", ["invert", "--kind", "general", "--in", "A.mat"], lambda m: gen_inv(m("A"))),
    ("general-extended",
     ["invert", "--kind", "general", "--in", "A.mat", "--precision", EXTENDED],
     lambda m: gen_inv(m("A"), precision=EXTENDED)),
    ("rurv", ["rurv", "--in", "A.mat", "--seed", 5], lambda m: rurv(m("A"), rng=RngStream(5))),
    ("sylvester", ["sylvester", "--a", "tri.mat", "--b", "B.mat", "--c", "C.mat"],
     lambda m: sylr(m("tri"), m("B"), m("C"))),
]


class TestJudgedByTheReport:
    """The commands print the library report's bound and pass on it."""

    @pytest.mark.parametrize("args, library", [case[1:] for case in JUDGED],
                             ids=[case[0] for case in JUDGED])
    def test_bound_and_pass_are_the_reports(self, workdir, args, library):
        rep_path = workdir / "judged.json"
        argv = [workdir / a if str(a).endswith(".mat") else a for a in args]
        code = run(argv + ["--report", rep_path])
        payload = json.loads(rep_path.read_text())["payload"]
        rep, zero_pivot = _library(library(lambda name: read_matrix(workdir / f"{name}.mat")))
        assert payload["results"]["bound"] == stable_float(rep.bound)
        passed = rep.residual <= rep.bound and not zero_pivot
        assert payload["pass"] is passed
        assert code == (0 if passed else 1)


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

    def test_block_lu_gamma_out_of_range_exit2(self):
        assert run(["bench", "block-lu", "--sizes", "8", "--gamma", 3.5]) == 2


class TestVerify:
    def test_matmul_quick_and_full_make_the_same_checks(self):
        # The acceptance criteria compare the other suites' two runs.
        assert [c["name"] for c in SUITES["matmul"](7, True)] == [
            c["name"] for c in SUITES["matmul"](7, False)]

    def test_seconds_per_suite_outside_payload(self, workdir):
        rep = workdir / "v.json"
        assert run(["verify", "theorem1", "--quick", "--report", rep]) == 0
        data = json.loads(rep.read_text())
        assert list(data["timings"]["suite_s"]) == ["theorem1"]
        assert data["payload"]["results"]["suites"] == ["theorem1"]

    @pytest.mark.parametrize("args", [["qr", "--n", 8], ["qr", "--r", 4],
                                      ["qr", "--trials", 3], ["rurv-fstat"]])
    def test_no_size_options(self, args):
        # Each suite runs its criterion's inputs, or a cut of them (--quick).
        with pytest.raises(SystemExit) as exc:
            run(["verify"] + args)
        assert exc.value.code == 2


class TestExperiment:
    def test_fstat_csv(self, workdir):
        out = workdir / "fstat.csv"
        assert run(["experiment", "f-stat", "--n", 12, "--r", 6, "--trials", 20,
                    "--seed", 1, "--out", out, "--report", workdir / "fs.json"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,f"
        assert len(lines) == 21
