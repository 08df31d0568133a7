"""End-to-end tests for the command-line interface and its exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from riskbid import (
    ConfigError,
    FPAScenario,
    SPAScenario,
    UniformDist,
    ValueModel,
    cli,
    compare_risk_aversion_fpa,
    compare_risk_aversion_spa,
)
from riskbid.cli import main, read_solution_csv
from riskbid.config import build_scenario
from riskbid.errors import ConfigError, OrderingViolation

from conftest import doctor_fpa_compare, doctor_spa_compare

UNIT3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)
UNIFORM3 = {"support": [0.0, 1.0], "n": 3, "kind": "iid", "dist": {"family": "uniform"}}

FPA_CFG = {
    "format": "fpa",
    "values": UNIFORM3,
    "utility": {"family": "linear", "shift": 0.0},
    "transform": {"family": "crra", "rho": 0.5, "shift": 2.0},
    "grid": 65,
}

SPA_CFG = {
    "format": "spa",
    "values": UNIFORM3,
    "utility": {"family": "linear", "shift": 0.0},
    "transform": {"family": "crra", "rho": 0.5, "shift": 2.0},
    "win_payoff": {
        "form": "additive_noise",
        "scale": 0.2,
        "noise": {"kind": "discrete", "points": [-1.0, 1.0], "probs": [0.5, 0.5]},
    },
    "grid": 65,
}

SAFE_PROBLEM = {
    "states": [
        {"gamma": 0.3, "value": 2.0, "outside": 0.1, "tie_high": False, "tie_low": False},
        {"gamma": 0.55, "value": 2.0, "outside": 0.1, "tie_high": False, "tie_low": False},
        {"gamma": 0.9, "value": 2.0, "outside": 0.1, "tie_high": False, "tie_low": False},
    ],
    "bid_a": 0.7,
    "bid_b": 0.4,
}


def write_cfg(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_fpa_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    grid, bids, resid = read_solution_csv(str(out / "solution.csv"))
    assert len(grid) == 65
    assert np.all(np.diff(bids) > 0)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["diagnostics"]["format"] == "fpa"
    assert meta["diagnostics"]["monotone"] is True
    assert meta["diagnostics"]["grid_points"] == 65
    assert meta["config"]["format"] == "fpa"
    assert meta["config"]["grid"] == 65
    assert meta["config"]["tolerances"]["ode_tol"] == 1e-8


def test_solve_round_trip_reproduces_exactly(tmp_path):
    cfg = write_cfg(tmp_path, SPA_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    # the meta file itself is a valid config that reproduces the run
    assert main(["solve", "--config", str(out1 / "meta.json"), "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_text() == (out2 / "solution.csv").read_text()


def test_sized_noise_quadrature_round_trip_and_audit(tmp_path):
    # truncated-normal noise under a CRRA bend: the solver takes fewer than
    # 64 nodes, chosen again from meta.json to the same bytes
    doc = {**SPA_CFG, "transform": {"family": "crra", "rho": 0.5, "shift": 3.0},
           "win_payoff": {"form": "additive_noise", "scale": 0.2,
                          "noise": {"kind": "truncated_normal", "mu": 0.0, "sigma": 1.0,
                                    "lo": -3.0, "hi": 3.0}}}
    assert build_scenario(doc)[1]._noise_rule[0].size < 64
    cfg = write_cfg(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(out1 / "meta.json"), "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert main(["audit", "--config", str(out1 / "meta.json"), "--out", str(out1)]) == 0
    assert json.loads((out1 / "audit.json").read_text())["passed"] is True


def test_solve_uniform_format(tmp_path):
    doc = dict(SPA_CFG)
    doc["format"] = "uniform"
    doc["K"] = 2
    doc["values"] = {**UNIFORM3, "n": 4}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["K"] == 2


def test_solve_spa_rejects_multi_unit(tmp_path):
    doc = dict(SPA_CFG)
    doc["K"] = 2
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


def test_solve_uniform_rejects_too_many_units(tmp_path):
    doc = dict(SPA_CFG)
    doc["format"] = "uniform"
    doc["K"] = 3  # equals the number of bidders
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("fmt, key, val, text", [
    ("spa", "K", 0, "K must be an integer >= 1, got 0"),
    ("spa", "K", 2, "second price sells exactly one unit; use format 'uniform' for K >= 2"),
    ("uniform", "K", 0, "K must be an integer >= 1, got 0"),
    ("uniform", "K", True, "K must be an integer >= 1, got True"),
    ("uniform", "K", 2.5, "K must be an integer >= 1, got 2.5"),
    ("spa", "seed", -1, "seed must be an integer >= 0, got -1"),
    ("spa", "seed", True, "seed must be an integer >= 0, got True"),
    ("spa", "seed", 2.5, "seed must be an integer >= 0, got 2.5"),
    ("spa", "grid", 2.5, "grid must be an integer >= 64, got 2.5"),
])
def test_config_counts_share_one_rule(fmt, key, val, text):
    # K and seed go through errors.integer_count, and grid through the
    # scenario's own check, so each count reads the same way
    doc = {**SPA_CFG, "format": fmt, key: val}
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        build_scenario(doc)


def test_solve_domain_breach_is_solver_error(tmp_path):
    doc = dict(FPA_CFG)
    doc["utility"] = {"family": "crra", "rho": 1.5, "shift": 0.0}
    doc["transform"] = None
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("fmt", ["fpa", "spa"])
@pytest.mark.parametrize("command, artifact", [("solve", "solution.csv"),
                                               ("compare", "verdict.json")])
def test_utility_not_finite_at_outside_option_is_solver_error(tmp_path, capsys, fmt, command,
                                                             artifact):
    # CARA(4) over CRRA(2, shift 0.003) at s = 0 is 1 - exp(4 / 0.003), which
    # overflows to -inf: no equilibrium condition can be posed there
    doc = {"format": fmt, "values": UNIFORM3,
           "utility": {"family": "crra", "rho": 2.0, "shift": 0.003},
           "transform": {"family": "cara", "alpha": 4.0, "shift": 0.0}, "grid": 129}
    out = tmp_path / "x"
    assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert not (out / artifact).exists()
    err = capsys.readouterr().err
    assert err.startswith("solver error: DomainError: ComposedUtility(CARAUtility(alpha=4.0"), err
    assert err.endswith(" is not finite at the outside option s = 0\n"), err


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _numeric_leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _numeric_leaves(val, path + (key,))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from _numeric_leaves(val, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _replaced(doc, path, val):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = val
    return doc


#: truncated-normal values (FPA) and win noise (SPA), a family the
#: files under configs/ do not use
TNORM_DOCS = (
    dict(FPA_CFG, values=dict(UNIFORM3, dist={"family": "truncated_normal", "mu": 0.4, "sigma": 0.3})),
    dict(SPA_CFG, win_payoff={
        "form": "additive_noise",
        "scale": 0.2,
        "noise": {"kind": "truncated_normal", "mu": 0.0, "sigma": 1.0, "lo": -3.0, "hi": 3.0},
    }),
)


def _malformed_configs():
    """Each numeric leaf of the scenario configs and of ``TNORM_DOCS``
    (bare and canonical) made a non-number or a non-finite number, plus
    misshapen lists and non-string tags."""
    raws = list(TNORM_DOCS)
    for name in ("fpa_crra", "spa_noisy_cara", "uniform_two_units"):
        with open(os.path.join(CONFIG_DIR, name + ".json")) as fh:
            raws.append(json.load(fh))
    for raw in raws:
        for doc in (raw, build_scenario(raw)[2]):
            for path in _numeric_leaves(doc):
                for bad in ("x", None, [1], True, float("nan"), float("inf")):
                    if not (bad is None and path == ("boundary_bid",)):  # the default
                        yield _replaced(doc, path, bad)
    pw = {"family": "piecewise_linear", "knots": [[0.0, 1.0]]}
    for knots in ([[0, 1, 2]], 5, [[0, None]]):
        yield _replaced(dict(FPA_CFG, utility=pw), ("utility", "knots"), knots)
    mix = json.loads(json.dumps(SPA_CFG))
    mix["values"] = {"support": [0.0, 1.0], "n": 3, "kind": "mixture", "components": 5}
    yield mix
    yield _replaced(SPA_CFG, ("win_payoff", "noise", "probs"), 5)
    yield _replaced(FPA_CFG, ("utility", "family"), [1])
    yield _replaced(FPA_CFG, ("values", "dist", "family"), 5)


def test_config_errors_exit_3(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 3
    bad.write_text('{"format": "fpa", "grid": ' + "9" * 5000 + "}")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 3
    unknown = dict(FPA_CFG)
    unknown["extra_knob"] = 1
    cfg = write_cfg(tmp_path, unknown, "unknown.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    misformat = dict(FPA_CFG)
    misformat["format"] = "english"
    cfg = write_cfg(tmp_path, misformat, "fmt.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    capsys.readouterr()
    count = 0
    for doc in _malformed_configs():
        cfg = write_cfg(tmp_path, doc, "malformed.json")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 3, doc
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        count += 1
    assert count > 400
    assert not (tmp_path / "x").exists()


def test_zero_mass_noise_exits_3(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "spa_noisy_cara.json")) as fh:
        doc = json.load(fh)
    doc["win_payoff"]["noise"] = {"kind": "truncated_normal", "mu": 0.5, "sigma": 1e-10,
                                  "lo": 0.0, "hi": 1.0}
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "quadrature mass 0" in err
    assert not (tmp_path / "x").exists()


def test_argparse_errors_exit_3(tmp_path):
    assert main(["frobnicate"]) == 3
    assert main(["solve", "--config", "x.json"]) == 3  # missing --out
    assert main([]) == 3


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_fpa(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["ordering_holds"] is True
    assert verdict["min_d"] >= -verdict["tolerance"]
    text = (out / "comparison.csv").read_text()
    assert text.splitlines()[0] == "v,beta,beta_hat,d"
    assert len(text.splitlines()) == 66


def test_compare_spa(tmp_path):
    cfg = write_cfg(tmp_path, SPA_CFG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["ordering_holds"] is True
    assert verdict["max_d"] <= verdict["tolerance"]


@pytest.mark.parametrize("doc, compare, extremum, tol_key", [
    (FPA_CFG, "compare_risk_aversion_fpa", "min_d", "ode_tol"),
    (SPA_CFG, "compare_risk_aversion_spa", "max_d", "root_tol"),
])
def test_compare_violation_exits_4(tmp_path, capsys, monkeypatch, doc, compare, extremum,
                                   tol_key):
    real = getattr(cli, compare)

    def violated(scenario):
        raise OrderingViolation("forced violation", report=real(scenario))

    monkeypatch.setattr(cli, compare, violated)
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", "ordering violated: forced violation\n")
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "v,beta,beta_hat,d" and len(lines) == doc["grid"] + 1
    _, scenario, canonical = build_scenario(doc)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict == {
        "ordering_holds": False,
        extremum: getattr(real(scenario), extremum),
        "tolerance": 10.0 * canonical["tolerances"][tol_key],
        "detail": "forced violation",
    }
    assert list(verdict) == ["ordering_holds", extremum, "tolerance", "detail"]


@pytest.mark.parametrize("doc, doctor, extremum, detail", [
    (FPA_CFG, lambda mp: doctor_fpa_compare(mp, 1e-3), "min_d",
     "transformed bids fall 1.000e-03 below the baseline"),
    (SPA_CFG, lambda mp: doctor_spa_compare(mp, 0.0, 1e-3), "max_d",
     "transformed bids rise 1.000e-03 above the baseline"),
], ids=["fpa", "spa"])
def test_compare_of_doctored_schedules_exits_4(tmp_path, capsys, monkeypatch, doc, doctor,
                                               extremum, detail):
    # the comparison itself raises, on solved schedules doctored to violate the ordering
    doctor(monkeypatch)
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"ordering violated: {detail}\n")
    d = np.loadtxt(out / "comparison.csv", delimiter=",", skiprows=1)[:, 3]
    assert d.size == doc["grid"]
    verdict = json.loads((out / "verdict.json").read_text())
    assert list(verdict) == ["ordering_holds", extremum, "tolerance", "detail"]
    assert verdict["ordering_holds"] is False and verdict["detail"] == detail
    assert verdict[extremum] == (d.min() if extremum == "min_d" else d.max())


def test_compare_requires_transform(tmp_path):
    doc = dict(FPA_CFG)
    doc["transform"] = None
    cfg = write_cfg(tmp_path, doc)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("compare, scenario", [
    (compare_risk_aversion_fpa, FPAScenario(values=UNIT3)),
    (compare_risk_aversion_spa, SPAScenario(values=UNIT3)),
])
def test_compare_transform_rule_has_one_message(compare, scenario):
    with pytest.raises(ConfigError, match="^comparison needs a transform on the scenario$"):
        compare(scenario)


def test_compare_config_without_transform_exits_3(tmp_path, capsys):
    cfg = os.path.join(CONFIG_DIR, "uniform_two_units.json")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr() == (
        "", "config error: comparison needs a transform on the scenario\n"
    )
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# safety
# ---------------------------------------------------------------------------

def test_safety_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SAFE_PROBLEM, "problem.json")
    assert main(["safety", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bid_a"] == 0.7
    assert doc["first_price"]["higher_bid_safer"] is True
    assert doc["first_price"]["winning_cannot_hurt"] is True
    assert doc["first_price"]["witness"] is None
    assert doc["auction_partition"]["both"] == [0]
    assert doc["auction_partition"]["pivotal"] == [1]
    assert doc["auction_partition"]["neither"] == [2]
    # with winning always a gain, the higher bid dominates in second
    # price, so that side reports its degeneracy instead of a verdict
    assert doc["second_price"]["error"] == "DominancePrecondition"


def test_safety_mixed_pivotal_spa_safer(tmp_path, capsys):
    problem = {
        "states": [
            {"gamma": 0.5, "value": 1.2, "outside": 0.2},
            {"gamma": 0.6, "value": 0.5, "outside": 0.2},
            {"gamma": 0.1, "value": 1.0, "outside": 0.2},
        ],
        "bid_a": 0.8,
        "bid_b": 0.4,
    }
    cfg = write_cfg(tmp_path, problem, "problem.json")
    assert main(["safety", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["second_price"]["lower_bid_safer"] is True
    # the high bid wins a losing state, so it is not safer in first price
    assert doc["first_price"]["higher_bid_safer"] is False
    assert doc["first_price"]["witness"] is not None


def test_safety_dominated_exits_5(tmp_path, capsys):
    problem = {
        "states": [
            {"gamma": 0.5, "value": 2.0, "outside": 0.0},
            {"gamma": 0.6, "value": 2.0, "outside": 0.0},
        ],
        "bid_a": 0.8,
        "bid_b": 0.4,
    }
    cfg = write_cfg(tmp_path, problem, "problem.json")
    assert main(["safety", "--config", cfg]) == 5
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "DominancePrecondition"


def test_safety_rejects_malformed_problem(tmp_path, capsys):
    docs = [{"states": [], "bid_a": 1.0}]
    for key, bad in (("gamma", "x"), ("value", [1]), ("gamma", float("nan")),
                     ("outside", True), ("tie_high", "no"), ("tie_low", 1)):
        doc = json.loads(json.dumps(SAFE_PROBLEM))
        doc["states"][1][key] = bad
        docs.append(doc)
    docs += [dict(SAFE_PROBLEM, bid_a=None), dict(SAFE_PROBLEM, bid_b=float("inf"))]
    for doc in docs:
        cfg = write_cfg(tmp_path, doc, "problem.json")
        assert main(["safety", "--config", cfg]) == 3, doc
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("bid_a, bid_b", [(0.4, 0.7), (0.7, 0.7)])
def test_safety_unordered_bids_exit_3(tmp_path, capsys, bid_a, bid_b):
    cfg = write_cfg(tmp_path, dict(SAFE_PROBLEM, bid_a=bid_a, bid_b=bid_b), "problem.json")
    assert main(["safety", "--config", cfg]) == 3
    assert capsys.readouterr() == (
        "", "input error: need bid_a > bid_b separated by more than 1e-09\n"
    )


# ---------------------------------------------------------------------------
# audit and simulate
# ---------------------------------------------------------------------------

def test_audit_passes_after_solve(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "audit.json").read_text())
    assert doc["passed"] is True
    assert doc["max_gain"] <= doc["audit_tol"]


def test_audit_detects_corruption(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    path = out / "solution.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    corrupted = [lines[0]] + [f"{v},{float(b) * 1.1},{r}" for v, b, r in rows]
    path.write_text("\n".join(corrupted) + "\n")
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 6
    doc = json.loads((out / "audit.json").read_text())
    assert doc["passed"] is False


def _swap_v(rows):
    rows[5][0], rows[6][0] = rows[6][0], rows[5][0]


def _repeat_v(rows):
    rows[6][0] = rows[5][0]


def _set(col, text):
    def edit(rows):
        rows[7][col] = text
    return edit


@pytest.mark.parametrize("edit", [
    _swap_v, _repeat_v, _set(0, "nan"), _set(0, "inf"), _set(1, "nan"), _set(1, "-inf"),
], ids=["swapped-v", "duplicate-v", "nan-v", "inf-v", "nan-beta", "inf-beta"])
@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_malformed_solution_rows_exit_3(tmp_path, capsys, edit, command):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    path = out / "solution.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "config error:" in err and "row " in err
    assert sorted(os.listdir(out)) == before  # no audit.json / stats.json


def test_audit_without_solution_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "empty")]) == 3


def test_audit_rejects_wrong_header(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "solution.csv").read_text()
    (out / "solution.csv").write_text("a,b,c\n" + text.split("\n", 1)[1])
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 3


@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_header_only_solution_is_one_config_error(tmp_path, command):
    # a fresh process, so stderr shows any warning numpy prints on the way
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    out.mkdir()
    (out / "solution.csv").write_text("v,beta,foc_residual\n")
    proc = subprocess.run([sys.executable, "-m", "riskbid", command, "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (3, "")
    path = os.path.join(str(out), "solution.csv")
    assert proc.stderr == f"config error: solution {path} must have >= 2 rows of 3 columns\n"
    assert sorted(os.listdir(out)) == ["solution.csv"]


def test_simulate_writes_stats(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--rounds", "20000"]) == 0
    doc = json.loads((out / "stats.json").read_text())
    assert doc["rounds"] == 20000
    assert doc["seed"] == 0
    assert 0.4 < doc["mean_revenue"] < 0.6  # risk-averse uniform, three bidders
    assert len(doc["win_freq"]) == 3


def test_simulate_seed_control(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    main(["solve", "--config", cfg, "--out", str(out)])
    main(["simulate", "--config", cfg, "--out", str(out), "--rounds", "5000"])
    first = json.loads((out / "stats.json").read_text())
    main(["simulate", "--config", cfg, "--out", str(out), "--rounds", "5000"])
    second = json.loads((out / "stats.json").read_text())
    assert first["mean_revenue"] == second["mean_revenue"]
    main(["simulate", "--config", cfg, "--out", str(out), "--rounds", "5000",
          "--seed", "7"])
    third = json.loads((out / "stats.json").read_text())
    assert third["seed"] == 7
    assert third["mean_revenue"] != first["mean_revenue"]


def test_simulate_zero_rounds(tmp_path):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    main(["solve", "--config", cfg, "--out", str(out)])
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--rounds", "0"]) == 0
    doc = json.loads((out / "stats.json").read_text())
    assert doc["rounds"] == 0


def test_simulate_negative_seed_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--rounds", "100",
                 "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: seed must be an integer >= 0, got -1")
    assert not (out / "stats.json").exists()


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_console_script(tmp_path):
    exe = shutil.which("riskbid")
    if exe is None:
        pytest.skip("console script not installed")
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    proc = subprocess.run([exe, "solve", "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "solved fpa" in proc.stdout
    proc2 = subprocess.run([exe, "safety", "--config", cfg],
                           capture_output=True, text=True)
    assert proc2.returncode == 3  # a scenario config is not a problem file


def test_import_leaves_scipy_stats_out():
    # importing the package loads no scipy module at all: the first-price
    # solver integrates, fits its splines and finds its start bid with its
    # own ports, and the truncated normal imports scipy.special on first use
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, riskbid; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


#: runs CLI commands in one fresh process and prints, after each, a line
#: "@ command exit-code" with the scipy modules loaded so far
_SCIPY_PROBE = """
import sys
from riskbid.cli import main
cfg, out = sys.argv[1:3]
for cmd in sys.argv[3:]:
    code = main([cmd, "--config", cfg, "--out", out] + (["--rounds", "2000"] if cmd == "simulate" else []))
    print("@", cmd, code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("name, commands", [
    ("fpa_crra.json", ["solve", "audit", "simulate", "compare"]),
    ("spa_noisy_cara.json", ["solve", "audit", "simulate", "compare"]),
    ("uniform_two_units.json", ["solve", "audit", "simulate"]),  # no transform, so no compare
    ("spa_tnorm_crra.json", ["solve", "audit", "simulate"]),
])
def test_commands_load_scipy_only_for_the_truncated_normal(tmp_path, name, commands):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, os.path.join(CONFIG_DIR, name), str(tmp_path), *commands],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("@ ")]
    assert [line[:2] for line in lines] == [[cmd, "0"] for cmd in commands]
    for line in lines:
        loaded = set(line[2:])
        if name != "spa_tnorm_crra.json":
            assert not loaded, line
        else:  # the truncated normal's scipy.special, and no interpolation, root or linear algebra
            assert "scipy.special" in loaded, line
            assert not {m for m in loaded
                        if m.startswith(("scipy.interpolate", "scipy.optimize", "scipy.linalg"))}, line


def test_module_entry_point(tmp_path):
    # ``python -m riskbid`` runs the same main as the console script
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, "-m", "riskbid"]
    cfg = write_cfg(tmp_path, FPA_CFG)
    out = tmp_path / "run"
    proc = subprocess.run(cmd + ["solve", "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "solved fpa" in proc.stdout
    proc2 = subprocess.run(cmd + ["safety", "--config", cfg],
                           capture_output=True, text=True, env=env)
    assert proc2.returncode == 3  # a scenario config is not a problem file
