import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from robusthedge import cli, oracle_lp, primal_hedge, suites
from robusthedge.cli import main
from robusthedge.dual_dp import backward_value
from robusthedge.market_tree import NEG_INF, NodeValues, NodeVectors
from robusthedge.simplex import RAT

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_CONFIG = {
    "schema_version": 1,
    "tree": {"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}},
    "claim": {"kind": "abs"},
    "family": {"class": "martingale", "claim_restricted": False},
    "seed": 20260823,
    "instances": 5,
}


def test_solve_report(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["dual_value"] == pytest.approx(1.0)
    assert report["oracle_value"] == pytest.approx(1.0)
    assert report["primal_value"] == pytest.approx(1.0)
    assert report["ok"] and not report["oracle_skipped"]
    assert (tmp_path / "timings.json").exists()


def test_solve_exact_mode(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["solve", "--config", str(cfg), "--exact", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["exact"] and report["dual_value"] == "1"
    assert report["gaps"]["dp_minus_oracle"] == 0.0


def test_solve_var_bounded_strictly_below_martingale(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["family"] = {"class": "var_bounded", "var_lo": 0.2, "var_hi": 0.6}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["ok"]
    assert report["dual_value"] < 1.0  # tighter family, cheaper sup


def test_solve_reports_polar_path(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["tree"] = {"dim": 1, "depth": 1, "generator": {"kind": "trinomial"}}
    doc["claim"] = {"kind": "table", "values": {"1": 1, "2": "-inf", "3": 1}}
    doc["family"] = {"class": "martingale", "claim_restricted": True}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["dual_value"] == pytest.approx(1.0)
    assert report["polar_path_count"] == 1


def test_float_solve_runs_both_lps_beyond_the_exact_leaf_limit(tmp_path, capsys):
    """The leaf limit binds the exact leaf-law LP only: on 2,187 leaves the
    float `solve` reports the dual, oracle and primal values, with no
    warning."""
    doc = dict(BASE_CONFIG)
    doc["tree"] = {"dim": 1, "depth": 7, "generator": {"kind": "trinomial"}}  # 2,187 leaves
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert not report["oracle_skipped"] and not report["primal_skipped"]
    assert report["dual_value"] == pytest.approx(report["oracle_value"], abs=1e-9)
    assert report["dual_value"] == pytest.approx(report["primal_value"], abs=1e-9)
    assert report["verification"]["ok"]


LEAF_LIMIT = "2187 leaves exceed the oracle leaf limit 2000"


def test_exact_solve_skips_the_primal_lp_beyond_its_leaf_limit(tmp_path, capsys):
    """`--exact` past the leaf limit skips both LP cross-checks, each
    warning with the one limit message."""
    doc = dict(BASE_CONFIG)
    doc["tree"] = {"dim": 1, "depth": 7, "generator": {"kind": "trinomial"}}  # 2,187 leaves
    doc["claim"] = {"kind": "lookback", "strike": 0.5}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--exact", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {LEAF_LIMIT}; oracle cross-check skipped",
        f"warning: {LEAF_LIMIT}; primal cross-check skipped",
    ]
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["oracle_skipped"] and report["oracle_value"] is None
    assert report["primal_skipped"] and report["primal_value"] is None
    assert report["gaps"] == {"dp_minus_oracle": None, "dp_minus_primal": None}
    # the exact primal LP, run past its limit, reaches 339/256 too
    assert report["dual_value"] == report["X0"] == "339/256"
    assert report["verification"] == {"ok": True, "min_slack": 0.0}
    assert report["ok"]
    schema_validator("robusthedge/solve-report/v1").validate(report)


def test_hedge_outputs(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["hedge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "hedge.json").read_text())
    assert doc["X0"] == pytest.approx(1.0)
    assert doc["verification"]["min_slack"] >= -1e-9
    assert set(doc["strategy"]) == {"0", "1", "2", "3"}
    lines = (tmp_path / "path_slacks.csv").read_text().splitlines()
    assert lines[0] == "leaf,slack"
    assert len(lines) == 1 + 9  # one row per non-polar leaf
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings) == {"tree", "claim", "dp", "extract", "verify", "write", "total"}
    assert all(v >= 0 for v in timings.values())


def writer_configs():
    """d = 1 and d = 2 configs, one with a -inf node whose hedge is flagged
    (0 by convention) and polar leaves without a slack row."""
    table = {str(leaf): (leaf % 5) / 4 for leaf in range(13, 40)}
    for leaf in (13, 14, 15):  # every child of node 4
        table[str(leaf)] = "-inf"
    return {
        "d1": dict(BASE_CONFIG, tree={"dim": 1, "depth": 3, "generator": {"kind": "trinomial"}}, claim={"kind": "lookback", "strike": 0.5}),
        "d1-flagged": dict(
            BASE_CONFIG,
            tree={"dim": 1, "depth": 3, "generator": {"kind": "trinomial"}},
            claim={"kind": "table", "values": table},
            family={"class": "martingale", "claim_restricted": True},
        ),
        "d2": dict(
            BASE_CONFIG,
            tree={"dim": 2, "depth": 2, "generator": {"kind": "explicit", "offsets": [[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]]}},
            claim={"kind": "call", "strike": 0.5},
        ),
    }


def reference_hedge_files(doc, H, slacks, exact):
    """hedge.json and path_slacks.csv as `json.dumps` and `csv.writer`
    write them, from the report with its strategy object."""
    strategy = {str(n): [cli._value_doc(v, exact) for v in h] for n, h in H.h.items()}
    text = json.dumps({**doc, "strategy": strategy}, indent=2, sort_keys=True) + "\n"
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["leaf", "slack"])
    w.writerows(zip(slacks, map(repr, map(float, slacks.values()))))
    return text, fh.getvalue()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", list(writer_configs()))
def test_hedge_writer_equals_json_and_csv_writer(tmp_path, name, exact):
    """The hedge report's strategy and slack rows, written from the columns,
    are the bytes of `json.dumps(indent=2, sort_keys=True)` and `csv.writer`;
    the files `hedge` writes are those bytes too."""
    path = write_config(tmp_path, writer_configs()[name])
    tree, xi, fam = cli._instance_from_config(json.loads(path.read_text(), parse_float=RAT if exact else None), path, exact)
    Y = backward_value(tree, xi, fam)
    H = primal_hedge.extract_strategy(tree, Y, fam)
    rep = primal_hedge.verify_superhedge(tree, Y[tree.root], H, xi, fam)
    doc = {"schema_version": 1, "X0": cli._value_doc(Y[tree.root], exact), "verification": {"min_slack": 0.0, "polar_paths": len(rep.polar)}}
    text, rows = reference_hedge_files(doc, H, rep.slacks, exact)
    assert cli._hedge_report_text(doc, H, exact) == text
    assert cli._slacks_csv_text(rep.slacks) == rows
    if name == "d1-flagged":
        assert H.flagged == {4} and len(rep.polar) == 6
    out = tmp_path / "out"
    assert main(["hedge", "--config", str(path), "--out", str(out)] + ["--exact"] * exact) == 0
    report = json.loads((out / "hedge.json").read_text())
    text, rows = reference_hedge_files({k: v for k, v in report.items() if k != "strategy"}, H, rep.slacks, exact)
    assert (out / "hedge.json").read_text() == text
    assert (out / "path_slacks.csv").read_bytes() == rows.encode()


def test_hedge_writer_falls_back_to_json_on_non_finite_floats():
    """A hedge entry that is not a finite float is written as `json.dumps`
    writes it: -inf as the string "-inf", +inf and NaN as JSON's tokens."""
    ids = range(0, 4)
    H = primal_hedge.Strategy(h=NodeVectors([NodeValues(ids, [0.5, NEG_INF, float("inf"), float("nan")])]))
    doc = {"schema_version": 1, "X0": 1.0, "verification": {"min_slack": None, "polar_paths": 0}}
    text, _ = reference_hedge_files(doc, H, NodeValues(range(0)), False)
    assert cli._hedge_report_text(doc, H, False) == text
    assert '"-inf"' in text and "Infinity" in text and "NaN" in text


def restricted_past_oracle_limit():
    """A 3^7 = 2,187-leaf claim-restricted config with one -inf leaf, past
    the oracle leaf limit."""
    leaves = range((3**7 - 1) // 2, (3**8 - 1) // 2)
    values = {str(leaf): 0.0 for leaf in leaves}
    values[str(leaves[0])] = "-inf"
    return dict(
        BASE_CONFIG,
        tree={"dim": 1, "depth": 7, "generator": {"kind": "trinomial"}},
        claim={"kind": "table", "values": values},
        family={"class": "martingale", "claim_restricted": True},
    )


@pytest.mark.parametrize("command", ["hedge", "solve"])
def test_restricted_polar_past_oracle_limit_is_verified(tmp_path, capsys, command):
    """The -inf leaf and its down sibling are polar; every other path is
    hedged.  The leaf limit binds exact LPs only, so the float `solve` runs
    the oracle and the primal, and both meet the DP."""
    cfg = write_config(tmp_path, restricted_past_oracle_limit())
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert " polar=2 " in line and line.endswith(" ok=True")
    if command == "hedge":
        verification = json.loads((tmp_path / "hedge.json").read_text())["verification"]
        assert verification["polar_paths"] == 2
    else:
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert not report["oracle_skipped"] and not report["primal_skipped"]
        assert report["polar_path_count"] == 2
        assert report["gaps"] == {"dp_minus_oracle": 0, "dp_minus_primal": 0}
        verification = report["verification"]
        assert verification["ok"]
    assert verification["min_slack"] >= -1e-9


def thirteen_offset_config(depth, family):
    """Thirteen children per node, one past ORACLE_MAX_CHILDREN."""
    return dict(
        BASE_CONFIG,
        tree={"dim": 1, "depth": depth, "generator": {"kind": "explicit", "offsets": list(range(-6, 7))}},
        family=family,
    )


CHILD_LIMIT = "13 children exceed the oracle limit 12"


@pytest.mark.parametrize("argv", [["hedge"], ["solve"], ["solve", "--exact"]])
def test_child_limit_in_a_needed_step_exits_2_with_one_line(tmp_path, capsys, argv):
    """The VAR_BOUNDED polar set enumerates the vertex kernels of a
    13-child node, which the oracle refuses: one error line, exit 2, no
    traceback.  Float `solve` first skips the primal LP, whose `alive_nodes`
    flags need the same enumeration, and its warning names the limit that
    refused it.  Under `--exact` the certified leaf law charges the root,
    so the primal flags it alive without an enumeration and runs."""
    doc = thirteen_offset_config(1, {"class": "var_bounded", "var_lo": 1, "var_hi": 4})
    cfg = write_config(tmp_path, doc)
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    want = [f"error: {CHILD_LIMIT}"]
    if argv == ["solve"]:
        want.insert(0, f"warning: {CHILD_LIMIT}; primal cross-check skipped")
    assert err == want


@pytest.mark.parametrize("exact", [False, True])
def test_oracle_cross_check_past_the_child_limit(tmp_path, capsys, exact):
    """On 169 leaves the leaf-law LP runs, and the oracle reports its
    certified value with no vertex enumeration, so no 13-child node stops
    it: `solve` reports the dual, oracle and primal values, with no
    warning, for the martingale family and for ALL, and in exact mode
    every gap is 0."""
    for family, want in (({"class": "martingale", "claim_restricted": False}, 6), ({"class": "all"}, 12)):
        cfg = write_config(tmp_path, thirteen_offset_config(2, family))
        out = tmp_path / family["class"]
        assert main(["solve", "--config", str(cfg), *(["--exact"] if exact else []), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "solve_report.json").read_text())
        assert not report["oracle_skipped"] and not report["primal_skipped"]
        values = [report[key] for key in ("dual_value", "oracle_value", "primal_value")]
        if exact:
            assert values == [str(want)] * 3
            assert report["gaps"] == {"dp_minus_oracle": 0.0, "dp_minus_primal": 0.0}
        else:
            assert all(abs(v - want) <= 1e-9 for v in values)
            assert all(abs(g) <= 1e-9 for g in report["gaps"].values())
        assert report["ok"]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_a_nonzero_exact_gap_fails_solve(tmp_path, monkeypatch, exact):
    """The leaf-law optimum and its capital dual raised by 10**-12: float
    `solve` is within its tolerance, `--exact` demands literally zero gaps."""
    solve = oracle_lp.leaf_law_lp
    eps = RAT(1, 10**12) if exact else 1e-12

    def raised(*args, **kwargs):
        leaves, eq, res = solve(*args, **kwargs)
        y_eq = [res.y_eq[0] + eps, *res.y_eq[1:]]
        return leaves, eq, dataclasses.replace(res, value=res.value + eps, y_eq=y_eq)

    monkeypatch.setattr(oracle_lp, "leaf_law_lp", raised)
    monkeypatch.setattr(primal_hedge, "leaf_law_lp", raised)
    cfg = write_config(tmp_path, BASE_CONFIG)
    status = main(["solve", "--config", str(cfg), *(["--exact"] if exact else []), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["gaps"]["dp_minus_oracle"] == report["gaps"]["dp_minus_primal"] == pytest.approx(-1e-12, abs=1e-15)
    assert (status, report["ok"]) == ((1, False) if exact else (0, True))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_check_duality_is_what_solve_and_oracle_report(exact):
    """`solve`'s and criterion 1's one check and the `oracle` sweep read the
    same DP and LP values, and in exact mode all three values are equal."""
    for seed in range(20260823, 20260833):
        tree, xi, fam = suites._draw_instance(seed, exact)
        check = suites.check_duality(tree, xi, fam, exact)
        assert check.failure is None
        assert suites.duality_instance(seed, exact) == (check.Y[tree.root], check.lp)
        if exact:
            assert check.lp == check.pv == check.Y[tree.root]


def test_check_duality_fails_on_a_lone_neg_inf(monkeypatch):
    tree, xi, fam = suites._draw_instance(20260823, False)
    monkeypatch.setattr(suites, "global_sup_lp", lambda *args, **kwargs: (NEG_INF, None))
    check = suites.check_duality(tree, xi, fam, False)
    assert check.failure.startswith("-inf mismatch") and check.hedge is None


D2_FLOAT_OFFSETS_CONFIG = {
    "tree": {
        "dim": 2,
        "depth": 2,
        "generator": {"kind": "explicit", "offsets": [[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]]},
    },
    "claim": {"kind": "call", "strike": 0.5},
    "family": {"class": "martingale", "claim_restricted": False},
}


@pytest.mark.parametrize(
    "offsets", [[[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]], [1.5, -0.25, -0.5]], ids=["d2", "d1"]
)
def test_exact_runs_keep_float_offsets_exact(tmp_path, offsets):
    # a float offset must not put a float spot into an exact run: every
    # value is a rational string and the hedge's slacks are exact
    doc = json.loads(json.dumps(D2_FLOAT_OFFSETS_CONFIG))
    doc["tree"]["generator"]["offsets"] = offsets
    doc["tree"]["dim"] = len(offsets[0]) if isinstance(offsets[0], list) else 1
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--exact", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["dual_value"] == report["oracle_value"] == report["primal_value"] == report["X0"]
    assert "." not in report["dual_value"]
    assert report["gaps"] == {"dp_minus_oracle": 0.0, "dp_minus_primal": 0.0}
    assert main(["hedge", "--config", str(cfg), "--exact", "--out", str(tmp_path)]) == 0
    hedge = json.loads((tmp_path / "hedge.json").read_text())
    assert hedge["X0"] == report["X0"]
    assert hedge["verification"]["min_slack"] == 0.0
    rows = (tmp_path / "path_slacks.csv").read_text().splitlines()[1:]
    slacks = [float(line.split(",")[1]) for line in rows]
    assert min(slacks) == 0.0
    if doc["tree"]["dim"] == 2:
        assert report["dual_value"] == "3/8"


# decimals that no double holds: --exact reads them as the rationals they
# spell, so the values are 21/25 and 1/20, not the binary fractions of the
# doubles nearest 0.2, 0.6, 0.1 and 0.05
DECIMAL_CONFIGS = {
    "var-bounded": dict(BASE_CONFIG, family={"class": "var_bounded", "var_lo": 0.2, "var_hi": 0.6, "claim_restricted": False}),
    "call": dict(
        BASE_CONFIG,
        tree={"dim": 1, "depth": 3, "generator": {"kind": "trinomial", "step": 0.1}},
        claim={"kind": "call", "strike": 0.05},
    ),
}
DECIMAL_VALUES = {"var-bounded": "21/25", "call": "1/20"}
# the float reports' bytes: float mode reads the same decimals as doubles
DECIMAL_FLOAT_REPORTS = {
    "var-bounded": "9aaaa2d7d77581d7bd065c85062a34bdac12e74e1c437a5fcbfc480e6015e28d",
    "call": "903e45503cb656fb66b4dd782a5bebe097c851eadeaaf127430d3a5a23fd4f76",
}


@pytest.mark.parametrize("name", list(DECIMAL_CONFIGS))
def test_exact_solve_reads_config_decimals(tmp_path, name):
    cfg = write_config(tmp_path, DECIMAL_CONFIGS[name])
    assert main(["solve", "--config", str(cfg), "--exact", "--out", str(tmp_path / "exact")]) == 0
    report = json.loads((tmp_path / "exact" / "solve_report.json").read_text())
    values = [report[key] for key in ("dual_value", "oracle_value", "primal_value", "X0")]
    assert values == [DECIMAL_VALUES[name]] * 4
    assert report["gaps"] == {"dp_minus_oracle": 0.0, "dp_minus_primal": 0.0}
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "float")]) == 0
    blob = (tmp_path / "float" / "solve_report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == DECIMAL_FLOAT_REPORTS[name]


# spots past 2**52, where HiGHS finds the float leaf-law LP infeasible
# although the value is finite
ROUNDING_CONFIG = dict(
    BASE_CONFIG,
    tree={"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [1e16, 1.0, -1.0]}},
    claim={"kind": "lookback", "strike": 0.5},
)
FLOAT_LP_FAILURE = "error: float path LP infeasible, but a family measure below node 0 avoids the -inf leaves"


def test_failed_float_lp_in_solve_exits_2_with_one_line(tmp_path, capsys):
    """The float oracle raises a MeasureError, which `solve` cannot skip:
    one error line, exit 2.  `hedge` runs no LP and still exits 0."""
    cfg = write_config(tmp_path, ROUNDING_CONFIG)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [FLOAT_LP_FAILURE]
    assert main(["hedge", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_failed_float_lp_in_solve_exits_2_with_no_traceback(tmp_path):
    cfg = write_config(tmp_path, ROUNDING_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "robusthedge.cli", "solve", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 2
    assert run.stderr.splitlines() == [FLOAT_LP_FAILURE]


def test_oracle_csv(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "seed,dp_value,lp_value,gap"
    assert len(lines) == 1 + 5
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-9


def test_counterexample_artifacts(tmp_path):
    cfg = write_config(tmp_path, {"counterexample": {"N": 3}})
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "divergence.csv").read_text().splitlines()
    assert lines[0] == "i,sigma_i,f_i,partial_sum"
    assert len(lines) == 1 + 3
    sweep = (tmp_path / "phi_sweep.csv").read_text().splitlines()
    assert sweep[0] == "k,K,l,x,phi_trunc,phi_limit,abs_err"


def test_proptest_summary(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "seed": 20260823,
            "suites": {
                "closure": 5,
                "truncation": 5,
                "tower": 5,
                "supermartingale": 10,
                "ess_sup": 5,
                "upward": 5,
                "envelope": 20,
            },
        },
    )
    assert main(["proptest", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] negative-control: 1/1" in out
    doc = json.loads((tmp_path / "proptest.json").read_text())
    assert doc["seed"] == 20260823
    assert all(s["passed"] == s["total"] for s in doc["suites"])


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["counterexample", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("solve_report.json", "oracle.csv", "divergence.csv", "phi_sweep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_oracle_csv_does_not_depend_on_threads(tmp_path, exact):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, instances=9))
    flags = ["--exact"] if exact else []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["oracle", "--config", str(cfg), "--threads", threads, "--out", str(out)] + flags) == 0
    assert (tmp_path / "1" / "oracle.csv").read_bytes() == (tmp_path / "2" / "oracle.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--exact"],
        ["counterexample", "--seed", "3"],
        ["proptest", "--exact"],
        ["proptest", "--threads", "2"],
        ["solve", "--seed", "3"],
        ["hedge", "--threads", "2"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2  # argparse usage error


def test_missing_config_field_is_reported(tmp_path):
    cfg = write_config(tmp_path, {"tree": BASE_CONFIG["tree"]})
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert "claim" in str(exc.value)


def test_malformed_config_is_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert "line" in str(exc.value)


def with_field(section, **fields):
    return dict(BASE_CONFIG, **{section: dict(BASE_CONFIG[section], **fields)})


def with_table_value(value, leaf=5):
    """BASE_CONFIG with a table claim: 1.0 at every leaf but `leaf`."""
    values = {str(l): value if l == leaf else 1.0 for l in range(4, 13)}
    return dict(BASE_CONFIG, claim={"kind": "table", "values": values})


# JSON's NaN and Infinity reach the claim as floats in both modes; a string
# other than "-inf", a list or a bool is not a number
BAD_CONFIGS = [
    (with_field("tree", generator={"kind": "pentanomial"}), "unknown generator kind 'pentanomial'"),
    (with_field("tree", depth=0), "depth must be >= 1"),
    (with_field("claim", kind="put"), "unknown claim kind 'put'"),
    (with_field("family", **{"class": "mart"}), "unknown family class 'mart'"),
    (with_table_value(float("nan")), "table value nan at leaf 5 is neither finite nor -inf"),
    (with_table_value(float("inf")), "table value inf at leaf 5 is neither finite nor -inf"),
    (with_field("claim", kind="call", strike=float("nan")), "strike nan is not finite"),
    (with_field("claim", kind="call", strike=float("inf")), "strike inf is not finite"),
    (with_table_value("nan"), "table value 'nan' at leaf 5 is neither finite nor -inf"),
    (with_table_value("inf"), "table value 'inf' at leaf 5 is neither finite nor -inf"),
    (with_table_value("abc"), "table value 'abc' at leaf 5 is neither finite nor -inf"),
    (with_table_value([1]), "table value [1] at leaf 5 is neither finite nor -inf"),
    (with_table_value(True), "table value True at leaf 5 is neither finite nor -inf"),
    (with_field("claim", kind="call", strike="nan"), "strike 'nan' is not finite"),
]
BAD_CONFIG_IDS = [
    "generator", "depth", "claim", "family", "nan-value", "inf-value", "nan-strike", "inf-strike",
    "nan-string-value", "inf-string-value", "string-value", "list-value", "bool-value", "nan-string-strike",
]


@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
@pytest.mark.parametrize("command", ["solve", "hedge"])
@pytest.mark.parametrize("doc,message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
def test_rejected_config_ends_with_one_config_line(tmp_path, doc, message, command, exact):
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *exact])
    assert exc.value.code == f"config {cfg}: {message}"


@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
def test_neg_infinity_number_is_the_neg_inf_string(tmp_path, exact):
    """A table's -Infinity means what "-inf" means, in both modes."""
    values = dict(NEG_INF_CONFIG["claim"]["values"])
    number = dict(NEG_INF_CONFIG, claim={"kind": "table", "values": {k: float(v) for k, v in values.items()}})
    for name, doc in (("string", NEG_INF_CONFIG), ("number", number)):
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / name), *exact]) == 0
    assert (tmp_path / "string" / "solve_report.json").read_bytes() == (tmp_path / "number" / "solve_report.json").read_bytes()


def test_missing_config_file_ends_with_one_config_line(tmp_path):
    cfg = tmp_path / "absent.json"
    with pytest.raises(SystemExit) as exc:
        main(["hedge", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == f"config {cfg}: No such file or directory"


def test_rejected_config_exits_1_with_one_stderr_line(tmp_path):
    """Through the interpreter: no traceback, exit status 1."""
    cfg = write_config(tmp_path, BAD_CONFIGS[0][0])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "robusthedge.cli", "hedge", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 1
    assert run.stderr.splitlines() == [f"config {cfg}: {BAD_CONFIGS[0][1]}"]


# -- reports against docs/schemas ------------------------------------------


def schema_validator(schema_id):
    """Validator for one schema, every schema registered by its $id (the
    config schema refers to the tree, claim and family schemas)."""
    schemas = [json.loads(p.read_text()) for p in sorted(SCHEMA_DIR.glob("*.schema.json"))]
    for schema in schemas:
        Draft202012Validator.check_schema(schema)
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas
    )
    by_id = {schema["$id"]: schema for schema in schemas}
    return Draft202012Validator(by_id[schema_id], registry=registry)


NEG_INF_CONFIG = {
    "tree": {"dim": 1, "depth": 1, "generator": {"kind": "trinomial"}},
    "claim": {"kind": "table", "values": {"1": "-inf", "2": "-inf", "3": 1}},
    "family": {"class": "martingale", "claim_restricted": True},
}


# an unrestricted martingale family on one binomial step: every kernel
# charges the -inf up leaf, so the value is -inf, and only that leaf is polar
UNBOUNDED_PRIMAL_CONFIG = {
    "tree": {"dim": 1, "depth": 1, "generator": {"kind": "binomial"}},
    "claim": {"kind": "table", "values": {"1": 1.0, "2": "-inf"}},
    "family": {"class": "martingale"},
}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_neg_inf_value_of_an_unrestricted_family(tmp_path, capsys, exact):
    cfg = write_config(tmp_path, UNBOUNDED_PRIMAL_CONFIG)
    flags = ["--exact"] if exact else []
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)] + flags) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["dual_value"] == report["oracle_value"] == report["primal_value"] == "-inf"
    assert report["ok"] and report["polar_path_count"] == 1
    assert main(["hedge", "--config", str(cfg), "--out", str(tmp_path)] + flags) == 0
    hedge = json.loads((tmp_path / "hedge.json").read_text())
    assert hedge["X0"] == "-inf" and hedge["verification"]["polar_paths"] == 1
    assert "every path is polar" not in capsys.readouterr().out


def test_config_matches_schema():
    config = schema_validator("robusthedge/config/v1")
    config.validate(BASE_CONFIG)
    config.validate(NEG_INF_CONFIG)
    bad = dict(BASE_CONFIG, tree={"dim": 1, "depth": 0, "generator": {"kind": "binomial"}})
    assert not config.is_valid(bad)  # the tree reference is followed
    assert not config.is_valid(dict(BASE_CONFIG, claim={"kind": "put"}))


@pytest.mark.parametrize("doc", [BASE_CONFIG, NEG_INF_CONFIG], ids=["finite", "neg-inf"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_solve_and_hedge_reports_match_schema(tmp_path, doc, exact):
    cfg = write_config(tmp_path, doc)
    flags = ["--exact"] if exact else []
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)] + flags) == 0
    assert main(["hedge", "--config", str(cfg), "--out", str(tmp_path)] + flags) == 0
    schema_validator("robusthedge/solve-report/v1").validate(
        json.loads((tmp_path / "solve_report.json").read_text())
    )
    hedge = json.loads((tmp_path / "hedge.json").read_text())
    schema_validator("robusthedge/hedge-report/v1").validate(hedge)
    if doc is NEG_INF_CONFIG:
        assert hedge["X0"] == "-inf" and hedge["verification"]["polar_paths"] == 3


def test_proptest_report_matches_schema(tmp_path):
    counts = {"closure": 1, "truncation": 1, "tower": 1, "supermartingale": 2,
              "ess_sup": 1, "upward": 1, "envelope": 2}
    cfg = write_config(tmp_path, {"seed": 5, "suites": counts})
    assert main(["proptest", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    schema_validator("robusthedge/proptest-report/v1").validate(
        json.loads((tmp_path / "proptest.json").read_text())
    )
