import json
import math

import numpy as np
import pytest

import instances
from odg import Design, graph_system, psi_p
from odg.cli import main

NEG_INF = float("-inf")
STABLE_KEYS = {"command", "design", "criterion", "spectrum", "certificate", "symmetry", "oracle"}


@pytest.fixture
def tree7_csv(tmp_path):
    path = tmp_path / "tree7.csv"
    path.write_text(instances.TREE7_CSV)
    return str(path)


@pytest.fixture
def paw_edges(tmp_path):
    path = tmp_path / "paw.edges"
    path.write_text("v=4\n1 2\n2 3\n3 1\n1 4\n")
    return str(path)


@pytest.fixture
def path3_edges(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("v=3\n1 2\n2 3\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def write_matrix(tmp_path, name, q):
    path = tmp_path / name
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in q) + "\n")
    return str(path)


def write_weights(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(",".join(repr(float(x)) for x in values) + "\n")
    return str(path)


class TestEval:
    def test_tree7_largest_eigenvalue(self, tmp_path, tree7_csv, capsys):
        w = write_weights(tmp_path, "w.csv", np.array([1, 2, 3, 1, 3, 1, 1]) / 12.0)
        code, doc, _ = run_cli(capsys, "eval", "--q", tree7_csv, "--w", w, "--p", "neg-inf")
        assert code == 0
        assert STABLE_KEYS <= set(doc)
        assert abs(doc["criterion"]["psi"] - 24.0) < 1e-8
        assert doc["criterion"]["p"] == "neg-inf"
        assert doc["criterion"]["rank"] == 6
        assert len(doc["laplacian_spectrum"]) == 7
        assert abs(doc["spectrum"][0] - 24.0) < 1e-8

    def test_single_edge_trace(self, tmp_path, capsys):
        q = tmp_path / "edge.csv"
        q.write_text("-1\n1\n")
        w = write_weights(tmp_path, "w.csv", [0.5, 0.5])
        code, doc, _ = run_cli(capsys, "eval", "--q", str(q), "--w", w, "--p", "-1")
        assert code == 0
        assert math.isclose(doc["criterion"]["psi"], 4.0, rel_tol=1e-12)

    def test_zero_weight_exits_3(self, tmp_path, tree7_csv, capsys):
        w = write_weights(tmp_path, "w.csv", [0.5, 0.5, 0, 0, 0, 0, 0])
        code, doc, err = run_cli(capsys, "eval", "--q", tree7_csv, "--w", w, "--p", "-1")
        assert code == 3 and doc is None

    def test_bad_csv_exits_2(self, tmp_path, capsys):
        q = tmp_path / "bad.csv"
        q.write_text("1,1\n-1\n")
        w = write_weights(tmp_path, "w.csv", [0.5, 0.5])
        code, doc, err = run_cli(capsys, "eval", "--q", str(q), "--w", w, "--p", "-1")
        assert code == 2 and doc is None

    def test_column_sum_error_prints_a_plain_float(self, tmp_path, capsys):
        q = tmp_path / "q.csv"
        q.write_text("1\n1\n-2.5\n")
        w = write_weights(tmp_path, "w.csv", [0.25, 0.25, 0.5])
        code, doc, err = run_cli(capsys, "eval", "--q", str(q), "--w", w, "--p", "-1")
        assert code == 2 and doc is None
        assert err.splitlines() == ["error: column 1 sums to -0.5, not zero"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        w = write_weights(tmp_path, "w.csv", [0.5, 0.5])
        code, _, _ = run_cli(capsys, "eval", "--q", str(tmp_path / "nope.csv"), "--w", w, "--p", "-1")
        assert code == 2

    def test_round_trip_re_evaluation(self, tmp_path, tree7_csv, capsys):
        w = write_weights(tmp_path, "w.csv", np.array([1, 2, 3, 1, 3, 1, 1]) / 12.0)
        code, doc, _ = run_cli(capsys, "eval", "--q", tree7_csv, "--w", w, "--p", "-0.5")
        assert code == 0
        system = instances.tree7_system()
        design = Design(np.array(doc["design"]))
        again = psi_p(system, design, float(doc["criterion"]["p"]))
        assert abs(again.psi - doc["criterion"]["psi"]) <= 1e-12 * abs(again.psi)

    def test_edge_list_input(self, tmp_path, paw_edges, capsys):
        w = write_weights(tmp_path, "w.csv", [0.375, 0.25, 0.25, 0.125])
        code, doc, _ = run_cli(capsys, "eval", "--q", paw_edges, "--w", w, "--p", "neg-inf")
        assert code == 0
        assert abs(doc["criterion"]["psi"] - 13.8297) < 5e-4

    def test_overflowing_criterion_exits_4(self, tmp_path, tree7_csv, capsys):
        # psi at p = -300 exceeds the float range, which JSON cannot write
        w = write_weights(tmp_path, "w.csv", np.full(7, 1.0 / 7.0))
        code, doc, err = run_cli(capsys, "eval", "--q", tree7_csv, "--w", w, "--p", "-300")
        assert code == 4 and doc is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: psi at p=-300.0") and "phi = 0.0310" in lines[0]

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--w", "w", "--p", "0"), ("eval", "--w", "w", "--p", "-2"), ("optimize", "--p", "-2")],
        ids=["eval-d", "eval-p-2", "optimize-p-2"],
    )
    def test_underflowing_criterion_exits_4(self, argv, tmp_path, capsys):
        # on the paw written at 2^-300, psi at p = 0 and p = -2 is below the
        # smallest float: it is refused as an overflowing one is, not reported as 0
        q = write_matrix(tmp_path, "paw.csv", 2.0**-300 * graph_system(instances.paw_graph()).q)
        w = write_weights(tmp_path, "w.csv", np.full(4, 0.25))
        code, doc, err = run_cli(capsys, *(w if arg == "w" else arg for arg in argv), "--q", q)
        assert code == 4 and doc is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: psi at p={float(argv[-1])!r} underflows the float range")
        assert lines[0].endswith("e+179)")  # phi, about 4e179, stays finite

    @pytest.mark.parametrize("tol", ["0", "2", "nan"])
    def test_rank_tol_outside_unit_interval_exits_2(self, tmp_path, path3_edges, tol, capsys):
        w = write_weights(tmp_path, "w.txt", [0.3, 0.4, 0.3])
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--q", path3_edges, "--w", w, "--p", "-1", "--rank-tol", tol])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--rank-tol" in errors[0]


class TestOptimize:
    def test_tree7_trace_auto(self, tree7_csv, capsys):
        code, doc, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "-1")
        assert code == 0
        s = 4 + 2 * math.sqrt(3) + math.sqrt(2)
        target = np.array([1, math.sqrt(2), math.sqrt(3), 1, math.sqrt(3), 1, 1]) / s
        assert np.abs(np.array(doc["design"]) - target).max() < 1e-12
        assert doc["optimizer"]["method"] == "a_general"
        assert np.round(np.array(doc["design"]), 2).tolist() == [0.11, 0.16, 0.2, 0.11, 0.2, 0.11, 0.11]

    def test_ring_determinant_uniform(self, tmp_path, capsys):
        q = tmp_path / "ring.csv"
        q.write_text("\n".join(",".join(str(x) for x in row) for row in instances.ring_system(5).q))
        code, doc, _ = run_cli(capsys, "optimize", "--q", str(q), "--p", "0")
        assert code == 0
        assert np.allclose(doc["design"], 0.2)
        assert doc["optimizer"]["method"] == "d_uniform"

    def test_paw_largest_eigenvalue_numeric_with_certificate(self, paw_edges, capsys):
        code, doc, _ = run_cli(capsys, "optimize", "--q", paw_edges, "--p", "neg-inf")
        assert code == 0
        assert STABLE_KEYS <= set(doc)
        assert doc["criterion"]["psi"] <= 13.0435 + 1e-3
        assert doc["certificate"] is not None
        assert doc["optimizer"]["method"] == "numeric"
        assert set(doc["certificate"]) == {"lhs_max", "rhs", "gap", "witness"}

    def test_tree7_e_closed_with_certificate(self, tree7_csv, capsys):
        code, doc, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "neg-inf", "--method", "closed")
        assert code == 0
        assert doc["optimizer"]["method"] == "e_bipartite"
        assert doc["certificate"]["gap"] <= 1e-8
        assert doc["certificate"]["witness"] >= 1

    def test_closed_method_unavailable_exits_2(self, tmp_path, paw_edges, capsys):
        # no closed form at p = -0.5; the paw is not bipartite (NotBipartite);
        # two separate pairs on v = 4 have rank 2 < v - 1 (RankTooLow)
        low_rank = tmp_path / "pairs.csv"
        low_rank.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        for q, p in ((paw_edges, "-0.5"), (paw_edges, "neg-inf"), (str(low_rank), "0")):
            code, doc, err = run_cli(capsys, "optimize", "--q", q, "--p", p, "--method", "closed")
            assert code == 2 and doc is None
            assert err.startswith("error: no closed form applies")

    def test_invalid_permutation_exits_5(self, tree7_csv, capsys):
        code, _, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "-2", "--perm", "1 1 2 3 4 5 6")
        assert code == 5

    def test_non_invariant_permutation_exits_5(self, tree7_csv, capsys):
        code, _, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "-2", "--perm", "2 3 4 5 6 7 1")
        assert code == 5

    def test_non_invariant_permutation_at_small_scale_exits_5(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "paw.csv", 1e-6 * graph_system(instances.paw_graph()).q)
        code, doc, err = run_cli(capsys, "optimize", "--q", path, "--p", "-0.5", "--perm", "2 1 3 4")
        assert code == 5 and doc is None
        assert "permutation rejected" in err

    def test_orbit_reduced_numeric(self, tmp_path, capsys):
        q = tmp_path / "mc.csv"
        q.write_text(
            "\n".join(",".join(str(x) for x in row) for row in instances.multi_control_system(5, 2).q)
        )
        code, doc, _ = run_cli(
            capsys, "optimize", "--q", str(q), "--p", "-2", "--perm", "2 1 4 5 3"
        )
        assert code == 0
        w = doc["design"]
        assert abs(w[0] - w[1]) < 1e-10 and abs(w[2] - w[3]) < 1e-10 and abs(w[3] - w[4]) < 1e-10

    def test_not_converged_exits_4(self, paw_edges, capsys):
        code, doc, err = run_cli(
            capsys, "optimize", "--q", paw_edges, "--p", "neg-inf", "--max-iter", "2"
        )
        assert code == 4
        assert doc["optimizer"]["converged"] is False

    @pytest.mark.parametrize(
        "flag,value",
        [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"), ("--tol", "small"),
         ("--max-iter", "-5"), ("--max-iter", "0"), ("--max-iter", "2.5")],
    )
    def test_invalid_stopping_rule_exits_2(self, tree7_csv, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--q", tree7_csv, "--p", "-2", "--method", "numeric", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0]

    def test_overflowing_criterion_exits_4(self, tree7_csv, capsys):
        code, doc, err = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "-300")
        assert code == 4 and doc is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_positive_p_rejected(self, tree7_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--q", tree7_csv, "--p", "0.5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-300", "-2.5e+0", "-inf", "-1"])
    def test_negative_p_as_separate_token(self, tree7_csv, value, capsys):
        # argparse reads "-1e-3" alone as an option; "--p -1e-3" must still mean --p=-1e-3
        code, doc, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", value)
        assert code == 0
        assert (code, doc) == run_cli(capsys, "optimize", "--q", tree7_csv, f"--p={value}")[:2]

    @pytest.mark.parametrize("source", ["tree7", "paw"])
    def test_numeric_trace_optimum_is_the_closed_form(self, source, tree7_csv, paw_edges, capsys):
        # the numeric p = -1 descent reads tr K(w) = x . diag(G) with no
        # eigensolve and reaches the row-norm design, run until no decrease
        # is left that it can resolve
        from odg.closed_form import a_optimal_weights

        q = {"tree7": tree7_csv, "paw": paw_edges}[source]
        system = {"tree7": instances.tree7_system(), "paw": graph_system(instances.paw_graph())}[source]
        code, doc, _ = run_cli(capsys, "optimize", "--q", q, "--p", "-1", "--method", "numeric", "--tol", "1e-15")
        assert code == 0
        assert doc["optimizer"]["method"] == "numeric" and doc["optimizer"]["converged"] is True
        assert np.abs(np.array(doc["design"]) - a_optimal_weights(system)).max() <= 1e-8

    def test_parser_reused_without_state(self, tree7_csv, capsys):
        # the argument parser is built once per process; no value carries over
        code, doc, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "-2", "--tol", "1e-3")
        assert code == 0 and doc["inputs"]["tol"] == 1e-3
        code, doc, _ = run_cli(capsys, "optimize", "--q", tree7_csv, "--p", "-2")
        assert code == 0 and doc["inputs"]["tol"] == 1e-08


@pytest.mark.parametrize("text", ["1e308,-1e308\n-1e308,1e308\n", "1e-200\n-1e-200\n"])
@pytest.mark.parametrize("command", ["eval", "optimize"])
@pytest.mark.parametrize("p", ["-1", "0", "neg-inf"])
def test_gram_out_of_float_range_exits_2(tmp_path, capsys, text, command, p):
    # q q^T overflows to inf or underflows to 0: refused before any spectrum is read
    q = tmp_path / "q.csv"
    q.write_text(text)
    w = ["--w", write_weights(tmp_path, "w.csv", [0.5, 0.5])] if command == "eval" else []
    code, doc, err = run_cli(capsys, command, "--q", str(q), *w, "--p", p)
    assert code == 2 and doc is None
    assert err.splitlines() == [err.strip()] and err.startswith("error: q q^T has diagonal")


@pytest.mark.parametrize("command", ["eval", "optimize"])
def test_huge_vertex_count_exits_2(tmp_path, capsys, command):
    # nothing of size v is made: the treatments past 2 per comparison are in none
    q = tmp_path / "q.edges"
    q.write_text("v=99999999999\n1 2\n")
    w = ["--w", write_weights(tmp_path, "w.csv", [0.5, 0.5])] if command == "eval" else []
    code, doc, err = run_cli(capsys, command, "--q", str(q), *w, "--p", "-1")
    assert code == 2 and doc is None
    assert err == "error: treatment 3 has an all-zero coefficient row\n"


@pytest.mark.parametrize(
    "argv",
    [["eval", "--p", p] for p in ("0", "-1", "-2", "neg-inf")] + [["oracle", "--mode", "kappa"]],
    ids=["eval-0", "eval-1", "eval-2", "eval-neg-inf", "oracle-kappa"],
)
def test_vanishing_weight_exits_3(tmp_path, capsys, argv):
    # w proportional to (1e-17, 1, 1, 1) on the 4-ring leaves one eigenvalue of
    # K(w) above the rank threshold, where the system has rank 3
    q = tmp_path / "ring.edges"
    q.write_text("v=4\n1 2\n2 3\n3 4\n4 1\n")
    w = np.array([1e-17, 1.0, 1.0, 1.0])
    path = write_weights(tmp_path, "w.txt", w / w.sum())
    code, doc, err = run_cli(capsys, argv[0], "--q", str(q), "--w", path, *argv[1:])
    assert code == 3 and doc is None
    assert err.splitlines() == [err.strip()] and err.startswith("infeasible design:")


@pytest.mark.parametrize("bad", ["q", "w"])
@pytest.mark.parametrize("command", ["eval", "oracle"])
def test_non_utf8_file_exits_2(tmp_path, path3_edges, capsys, bad, command):
    # a file that is not UTF-8 is malformed input: one error line, no traceback
    files = {"q": path3_edges, "w": write_weights(tmp_path, "w.txt", [0.3, 0.4, 0.3])}
    files[bad] = str(tmp_path / "bad.txt")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe1,2\n")
    argv = ["--p", "-1"] if command == "eval" else ["--mode", "kappa"]
    code, doc, err = run_cli(capsys, command, "--q", files["q"], "--w", files["w"], *argv)
    assert code == 2 and doc is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "not UTF-8" in lines[0]


@pytest.mark.parametrize(
    "q, w, argv, code, message",
    [
        (None, "0.5 x 0.25 0.25\n", ["eval", "--p", "-1"], 2, "design file {w}: non-numeric weight"),
        (None, "0.5 0.25 0.25\n", ["eval", "--p", "-1"], 2, "design file {w}: got 3 weights, system has v=4"),
        (None, None, ["optimize", "--p", "-1", "--perm", "2 1 3"], 5, "permutation has 3 entries, system has v=4"),
        (None, None, ["symmetry", "--perm", "2 1 3"], 5, "permutation has 3 entries, system has v=4"),
        (("q.csv", "1,-1\nnan,1\n-1,0\n"), "0.5 0.5\n", ["eval", "--p", "-1"], 2,
         "coefficient matrix contains non-finite entries"),
        (("q.edges", "v=abc\n1 2\n"), "0.5 0.5\n", ["eval", "--p", "-1"], 2, "invalid vertex count in 'v=' line"),
        (("q.edges", "v=3\n1 x\n"), "0.5 0.5\n", ["eval", "--p", "-1"], 2, "edge line '1 x' must contain integers"),
    ],
    ids=["non-numeric-weight", "weight-count", "optimize-perm-length", "symmetry-perm-length",
         "nan-coefficient", "vertex-count", "edge-line"],
)
def test_input_refusal(tmp_path, paw_edges, capsys, q, w, argv, code, message):
    # one error line naming the fault, and nothing on stdout
    path = paw_edges
    if q is not None:
        path = str(tmp_path / q[0])
        (tmp_path / q[0]).write_text(q[1])
    weights = str(tmp_path / "w.txt")
    if w is not None:
        (tmp_path / "w.txt").write_text(w)
        argv = [*argv, "--w", weights]
    got = main([*argv, "--q", path])
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert captured.err == f"error: {message.format(w=weights)}\n"


class TestSymmetry:
    def test_two_groups_cyclic(self, tmp_path, capsys):
        q = tmp_path / "two.csv"
        q.write_text("\n".join(",".join(str(x) for x in row) for row in instances.two_groups_system(3).q))
        code, doc, _ = run_cli(capsys, "symmetry", "--q", str(q))
        assert code == 0
        assert STABLE_KEYS <= set(doc)
        sym = doc["symmetry"]
        assert sym["cyclic"] is not None and sym["uniform_optimal"]
        assert "orthogonally invariant" in sym["conclusion"]

    def test_multi_control_orbits(self, tmp_path, capsys):
        q = tmp_path / "mc.csv"
        q.write_text(
            "\n".join(",".join(str(x) for x in row) for row in instances.multi_control_system(5, 2).q)
        )
        code, doc, _ = run_cli(capsys, "symmetry", "--q", str(q), "--perm", "2 1 4 5 3")
        assert code == 0
        sym = doc["symmetry"]
        assert sym["perm_invariant"] is True
        assert sym["orbit_count"] == 2
        assert sym["orbit_of"] == [1, 1, 2, 2, 2]

    def test_tree7_no_cycle(self, tree7_csv, capsys):
        code, doc, _ = run_cli(capsys, "symmetry", "--q", tree7_csv)
        assert code == 0
        assert doc["symmetry"]["cyclic"] is None
        assert doc["symmetry"]["uniform_optimal"] is False

    def test_large_without_perm_exits_6(self, tmp_path, capsys):
        q = tmp_path / "ring10.csv"
        q.write_text("\n".join(",".join(str(x) for x in row) for row in instances.ring_system(10).q))
        code, doc, _ = run_cli(capsys, "symmetry", "--q", str(q))
        assert code == 6 and doc is None

    @pytest.mark.parametrize("value", ["-3", "0", "2.5", "nan", "many"])
    def test_invalid_search_bound_exits_2(self, paw_edges, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["symmetry", "--q", paw_edges, "--max-v", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--max-v" in errors[0]

    def test_search_bound_below_v_exits_6(self, paw_edges, capsys):
        code, doc, _ = run_cli(capsys, "symmetry", "--q", paw_edges, "--max-v", "3")
        assert code == 6 and doc is None

    def test_large_with_cyclic_perm(self, tmp_path, capsys):
        q = tmp_path / "ring10.csv"
        q.write_text("\n".join(",".join(str(x) for x in row) for row in instances.ring_system(10).q))
        perm = " ".join(str(i % 10 + 2 if i < 9 else 1) for i in range(10))  # shift 1->2->...->10->1
        code, doc, _ = run_cli(capsys, "symmetry", "--q", str(q), "--perm", "2 3 4 5 6 7 8 9 10 1")
        assert code == 0
        assert doc["symmetry"]["perm_invariant"] is True
        assert doc["symmetry"]["cyclic"] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 1]

    def test_large_with_acyclic_perm_says_the_search_was_not_run(self, tmp_path, capsys):
        # the reflection of a 10-ring is invariant but not one cycle, and v exceeds --max-v 9:
        # no search ran, so none can have failed (--max-v 10 finds the rotation)
        q = write_matrix(tmp_path, "ring10.csv", instances.ring_system(10).q)
        code, doc, _ = run_cli(capsys, "symmetry", "--q", q, "--perm", "1 10 9 8 7 6 5 4 3 2")
        assert code == 0
        sym = doc["symmetry"]
        assert sym["perm_invariant"] is True and sym["cyclic"] is None and sym["uniform_optimal"] is False
        assert sym["conclusion"] == "cyclic search not run: v=10 exceeds --max-v=9"
        code, doc, _ = run_cli(capsys, "symmetry", "--q", q, "--perm", "1 10 9 8 7 6 5 4 3 2", "--max-v", "10")
        assert code == 0 and doc["symmetry"]["uniform_optimal"] is True


    def test_paw_at_any_scale(self, tmp_path, capsys):
        # written at scale 1e-6 the paw's q q^T is below 1e-10 entrywise;
        # rotated and written at scale 1e3 it carries rounding of about 1e-9
        paw = graph_system(instances.paw_graph()).q
        rotation, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        cases = [(1e-6 * paw, "2 1 3 4", False), (1e3 * paw @ rotation, "1 3 2 4", True)]
        for k, (q, perm, invariant) in enumerate(cases):
            path = write_matrix(tmp_path, f"paw{k}.csv", q)
            code, doc, _ = run_cli(capsys, "symmetry", "--q", path, "--perm", perm)
            assert code == 0
            assert doc["symmetry"]["perm_invariant"] is invariant
            assert doc["symmetry"]["cyclic"] is None


class TestOracle:
    def test_kappa_path(self, tmp_path, paw_edges, capsys):
        q = tmp_path / "path.csv"
        q.write_text("-1,0\n1,-1\n0,1\n")
        # uniform design: every rooted spanning tree weighs v^(v-1), and the
        # paw has 3 spanning trees with 4 roots each
        for path, expected in ((str(q), 27.0), (paw_edges, 768.0)):
            code, doc, _ = run_cli(capsys, "oracle", "--q", path, "--mode", "kappa")
            assert code == 0
            assert STABLE_KEYS <= set(doc)
            oracle = doc["oracle"]
            assert oracle["passed"] is True
            for key in ("psi0", "kappa", "char_coeff"):
                assert math.isclose(oracle[key], expected, rel_tol=1e-9)

    def test_kappa_past_the_bound_makes_no_incidence_matrix(self, tmp_path, capsys, monkeypatch):
        # an edge list's exact Gram matrix is its Laplacian, so K40 is
        # refused for its size before any v-by-s matrix is made
        import odg.contrasts

        def refuse(graph):
            raise AssertionError("incidence matrix built")

        monkeypatch.setattr(odg.contrasts, "incidence_matrix", refuse)
        q = tmp_path / "k40.edges"
        q.write_text("v=40\n" + "".join(f"{i} {j}\n" for i in range(1, 41) for j in range(i + 1, 41)))
        code, doc, err = run_cli(capsys, "oracle", "--q", str(q), "--mode", "kappa")
        assert code == 7 and doc is None
        assert "oracle bound exceeded" in err

    def test_grid_control_average(self, tmp_path, capsys):
        q = tmp_path / "avg.csv"
        rows = instances.control_average_column(4).q
        q.write_text("\n".join(repr(float(row[0])) for row in rows))
        code, doc, _ = run_cli(
            capsys, "oracle", "--q", str(q), "--mode", "grid", "--p", "0", "--grid-step", "0.01"
        )
        assert code == 0
        # the exact optimum sits one lattice step from the grid design, so
        # compare with it rather than with where the descent stopped
        optimum = np.array([1 / 2, 1 / 6, 1 / 6, 1 / 6])
        assert np.abs(np.array(doc["design"]) - optimum).max() <= 0.01 + 1e-12
        assert np.abs(np.array(doc["oracle"]["reference_design"]) - optimum).max() <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,step", [("-300", "0.05"), ("-1300", "0.05"), ("-1450", "0.01")])
    def test_grid_overflowing_criterion_exits_4(self, paw_edges, capsys, p, step):
        # psi exceeds the float range at every lattice design; the scan still
        # finds its minimizer, and the report refuses psi. -1300 and -1450
        # are the last multiples of 50 before the scan itself refuses (exit 7)
        code, doc, err = run_cli(capsys, "oracle", "--q", paw_edges, "--mode", "grid", "--p", p, "--grid-step", step)
        assert code == 4 and doc is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: psi at p={float(p)}")

    def test_grid_overflowing_criterion_skips_the_reference(self, paw_edges, capsys, monkeypatch):
        # the exit-4 refusal comes before the reference descent, which it would discard
        descents = []
        monkeypatch.setattr("odg.cli.optimize_phi_p", lambda *args, **kw: descents.append(args))
        code, doc, _ = run_cli(
            capsys, "oracle", "--q", paw_edges, "--mode", "grid", "--p", "-300", "--grid-step", "0.05"
        )
        assert code == 4 and doc is None
        assert descents == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,step", [("-2000", "0.05"), ("-1350", "0.05"), ("-1500", "0.01")])
    def test_grid_criterion_past_the_float_range_exits_7(self, paw_edges, capsys, p, step):
        # even psi scaled by tr(Q Q^T)^p, r (m / t)^q, leaves the float range
        code, doc, err = run_cli(capsys, "oracle", "--q", paw_edges, "--mode", "grid", "--p", p, "--grid-step", step)
        assert code == 7 and doc is None
        assert "exceeds the float range at every lattice design" in err

    def test_grid_too_large_exits_7(self, tmp_path, capsys):
        q = tmp_path / "k5.csv"
        from odg import graph_system, incidence_matrix
        import instances as inst

        m = incidence_matrix(inst.complete_graph(5))
        q.write_text("\n".join(",".join(str(x) for x in row) for row in m))
        code, doc, _ = run_cli(capsys, "oracle", "--q", str(q), "--mode", "grid", "--p", "0")
        assert code == 7 and doc is None

    @pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0", "-0.01", "fine"])
    def test_invalid_grid_step_exits_2(self, paw_edges, step, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "--q", paw_edges, "--mode", "grid", "--p", "-1", "--grid-step", step])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--grid-step" in errors[0]

    @pytest.mark.parametrize("step", ["1e-4", "0.5", "2"])
    def test_grid_step_outside_scan_range_exits_7(self, paw_edges, step, capsys):
        code, doc, err = run_cli(capsys, "oracle", "--q", paw_edges, "--mode", "grid", "--p", "-1", "--grid-step", step)
        assert code == 7 and doc is None
        assert "grid step must lie in" in err

    def test_grid_without_p_exits_2(self, tmp_path, paw_edges, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--q", paw_edges, "--mode", "grid")
        assert code == 2

    def test_kappa_integer_nonpairwise(self, tmp_path, capsys):
        q = tmp_path / "int.csv"
        q.write_text("2,0,1\n-1,1,1\n-1,1,-1\n0,-2,-1\n")
        code, doc, _ = run_cli(capsys, "oracle", "--q", str(q), "--mode", "kappa")
        assert code == 0
        oracle = doc["oracle"]
        assert oracle["rank"] == 3 and oracle["passed"] is True
        assert math.isclose(oracle["kappa"], oracle["psi0"], rel_tol=1e-12)

    @pytest.mark.parametrize("v, code", [(20, 0), (21, 7)])
    def test_kappa_treatment_bound(self, tmp_path, capsys, v, code):
        # a ring with chords i -> i+7: connected, past the forest enumeration's v <= 12
        edges = [(i, (i + 1) % v) for i in range(v)] + [(i, (i + 7) % v) for i in range(0, v, 3)]
        q = tmp_path / "ring.edges"
        q.write_text(f"v={v}\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in edges))
        got, doc, err = run_cli(capsys, "oracle", "--q", str(q), "--mode", "kappa")
        assert got == code
        if code == 0:
            assert doc["oracle"]["rank"] == v - 1 and doc["oracle"]["passed"] is True
        else:
            assert doc is None and "oracle bound exceeded" in err

    def test_kappa_rank_10_of_20(self, tmp_path, capsys):
        # C(20, 10) principal minors: read off one polynomial, not refused
        system = instances.random_integer_system(np.random.default_rng(1), 20, 10)
        code, doc, _ = run_cli(capsys, "oracle", "--q", write_matrix(tmp_path, "halves.csv", system.q), "--mode", "kappa")
        assert code == 0
        assert doc["oracle"]["rank"] == 10 and doc["oracle"]["passed"] is True

    def test_kappa_huge_integer_ring(self, tmp_path, capsys):
        # a 12-ring with coefficients +-1e13: psi0 is about 1e300 and the
        # three routes agree, so the report must come out, strict and passed
        v, c = 12, 10**13
        rows = [[0] * v for _ in range(v)]
        for k in range(v):
            rows[k][k], rows[(k + 1) % v][k] = c, -c
        q = tmp_path / "ring.csv"
        q.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        code = main(["oracle", "--q", str(q), "--mode", "kappa"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert doc["oracle"]["rank"] == v - 1 and doc["oracle"]["passed"] is True

    def test_kappa_vanishing_weight_exits_3(self, tmp_path, paw_edges, capsys):
        # psi_0's positivity check refuses the design before the pivoted Cholesky runs
        w = np.array([1e-12, 1.0, 1.0, 1.0])
        path = write_weights(tmp_path, "w.txt", w / w.sum())
        code = main(["oracle", "--q", paw_edges, "--w", path, "--mode", "kappa"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("infeasible design:")

    def test_kappa_nonpairwise_exits_2(self, tmp_path, capsys):
        q = tmp_path / "avg.csv"
        rows = instances.control_average_column(4).q
        q.write_text("\n".join(repr(float(row[0])) for row in rows))
        code, _, _ = run_cli(capsys, "oracle", "--q", str(q), "--mode", "kappa")
        assert code == 2


class TestExportDot:
    def test_tree7_with_uniform_weights(self, tmp_path, tree7_csv, capsys):
        w = write_weights(tmp_path, "w.csv", [1 / 7] * 7)
        out = tmp_path / "g.dot"
        code, doc, _ = run_cli(
            capsys, "export-dot", "--q", tree7_csv, "--w", w, "-o", str(out)
        )
        assert code == 0
        text = out.read_text()
        assert text.count("a=7.0000") == 7
        assert "2 -> 1;" in text and "7 -> 5;" in text
        assert doc["dot"] == str(out)

    def test_without_weights(self, tmp_path, tree7_csv, capsys):
        out = tmp_path / "g.dot"
        code, doc, _ = run_cli(capsys, "export-dot", "--q", tree7_csv, "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert "a=" not in text
        assert text.startswith("digraph")

    def test_nonpairwise_exits_2(self, tmp_path, capsys):
        q = tmp_path / "avg.csv"
        rows = instances.control_average_column(4).q
        q.write_text("\n".join(repr(float(row[0])) for row in rows))
        code, _, _ = run_cli(capsys, "export-dot", "--q", str(q), "-o", str(tmp_path / "g.dot"))
        assert code == 2


@pytest.mark.parametrize("source", ["tree7", "paw"])
@pytest.mark.parametrize(
    "argv",
    [("eval", "--w", "w", "--p", "-1"), ("optimize", "--p", "neg-inf"), ("export-dot", "-o", "dot")],
    ids=["eval", "optimize-e", "export-dot"],
)
def test_comparison_graph_validated_once(argv, source, tmp_path, tree7_csv, paw_edges, capsys, monkeypatch):
    # an edge list is the graph, and a CSV system is searched for one once:
    # either way the one graph serves the whole call
    from odg import ComparisonGraph

    validations = []
    original = ComparisonGraph.__post_init__
    monkeypatch.setattr(ComparisonGraph, "__post_init__", lambda self: validations.append(original(self)))
    q = {"tree7": tree7_csv, "paw": paw_edges}[source]
    v = {"tree7": 7, "paw": 4}[source]
    files = {"w": write_weights(tmp_path, "w.csv", np.full(v, 1.0 / v)), "dot": str(tmp_path / "g.dot")}
    code, doc, _ = run_cli(capsys, argv[0], "--q", q, *(files.get(arg, arg) for arg in argv[1:]))
    assert code == 0 and doc is not None
    assert len(validations) == 1


class TestEigensolveBudget:
    """Each reported design is eigensolved once, as K(w), after the Gram matrix."""

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        import sys

        import odg._kernels

        orders = []
        original = odg._kernels.eigh_sym

        def counting(a, **kwargs):
            orders.append(np.asarray(a).shape[0])
            return original(a, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "odg" or name.startswith("odg.")) and getattr(module, "eigh_sym", None) is original:
                monkeypatch.setattr(module, "eigh_sym", counting)
        return orders

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--q", "tree7", "--p", "-1"),
            ("optimize", "--q", "k4", "--p", "0"),
            ("optimize", "--q", "tree7", "--p", "neg-inf"),  # the bipartite E-rule and its certificate
            ("eval", "--q", "tree7", "--w", "w", "--p", "-2"),
            ("optimize", "--q", "tree7", "--p", "-2", "--method", "numeric"),  # no iterate is eigensolved
        ],
        ids=["a-closed-form", "d-closed-form", "e-bipartite", "eval", "numeric-p-2"],
    )
    def test_gram_then_one_k(self, argv, tmp_path, tree7_csv, capsys, eigensolves):
        k4 = tmp_path / "k4.edges"
        k4.write_text("v=4\n" + "".join(f"{j} {i}\n" for i in range(1, 5) for j in range(i + 1, 5)))
        files = {"tree7": tree7_csv, "k4": str(k4), "w": write_weights(tmp_path, "w.csv", np.arange(1, 8) / 28.0)}
        code, doc, _ = run_cli(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 0
        assert doc["criterion"] is not None
        assert len(eigensolves) == 2  # the Gram matrix, then K(w)

    def test_pseudo_information_matrix_stays_vertex_sized(self, rng, eigensolves):
        from odg import pseudo_information_matrix

        system = instances.random_contrast_system(rng, 6, 15)
        pseudo_information_matrix(system, instances.random_design(rng, 6))
        assert eigensolves and max(eigensolves) <= system.v
