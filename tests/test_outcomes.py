"""Tabulated outside options: config round trip, validation, and solves."""

import numpy as np
import pytest

from riskbid import (
    CARAUtility,
    ConfigError,
    ConstantOutside,
    DiscreteNoise,
    FPAScenario,
    NoisyWin,
    SPAScenario,
    TableOutside,
    UniformDist,
    ValueModel,
    solve_fpa,
    solve_spa,
)
from riskbid.config import build_scenario

UNIT3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)
UNIFORM3 = {"support": [0.0, 1.0], "n": 3, "kind": "iid", "dist": {"family": "uniform"}}
TABLE = {"form": "table", "points": [[0.0, 0.0], [0.5, 0.1], [1.0, 0.05]]}


@pytest.mark.parametrize("fmt", ["fpa", "spa", "uniform"])
def test_table_config_round_trip(fmt):
    doc = {"format": fmt, "values": UNIFORM3, "outside_option": TABLE, "grid": 65}
    _, scenario, canonical = build_scenario(doc)
    assert isinstance(scenario.outside, TableOutside)
    assert canonical["outside_option"] == TABLE
    assert build_scenario(canonical)[2] == canonical


@pytest.mark.parametrize("points, match", [
    ([[0.0, 0.1]], "^table outside option needs at least two points$"),
    ([[0.0, 0.1], [0.5, 0.2], [0.5, 0.3]], "^table abscissae must be strictly increasing$"),
    ([[0.0, 0.1], [1.0, 0.2], [0.5, 0.3]], "^table abscissae must be strictly increasing$"),
])
def test_table_config_errors(points, match):
    doc = {"format": "fpa", "values": UNIFORM3,
           "outside_option": {"form": "table", "points": points}}
    with pytest.raises(ConfigError, match=match):
        build_scenario(doc)


def test_table_rejects_non_finite_values():
    # the config parser refuses non-finite numbers itself, so only the
    # library reaches this check
    for bad in ("nan", "inf"):
        with pytest.raises(ConfigError,
                           match=rf"^table points\[1\]\[1\] must be a finite number, got {bad}$"):
            TableOutside([(0.0, 0.0), (1.0, float(bad))])


def test_spa_cara_table_matches_certainty_equivalent():
    # under CARA the indifference surplus is the outside option plus the
    # noise's certainty-equivalent shortfall: x(v) = s(v) + log E[exp(-alpha o)] / alpha
    alpha = 2.0
    scn = SPAScenario(
        values=UNIT3,
        outside=TableOutside(TABLE["points"]),
        utility=CARAUtility(alpha),
        win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.3, 0.7]), scale=0.2),
        grid=129,
    )
    sol = solve_spa(scn)
    offsets, weights = scn.win_payoff.rules[-1]
    s = scn.outside.value(sol.grid)
    x = s + np.log(np.sum(weights * np.exp(-alpha * offsets))) / alpha
    assert np.max(np.abs((sol.grid - sol.bids) - x)) <= 10.0 * scn.root_tol


def test_fpa_flat_table_equals_constant_outside():
    flat = FPAScenario(values=UNIT3, outside=TableOutside([(0.0, 0.1), (1.0, 0.1)]))
    const = FPAScenario(values=UNIT3, outside=ConstantOutside(0.1))
    a, b = solve_fpa(flat), solve_fpa(const)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.bids, b.bids)
