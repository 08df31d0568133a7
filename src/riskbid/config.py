"""Scenario configuration: strict JSON schema in, solver objects out.

A scenario document selects the auction format and describes the value
model, utility (plus optional concave transform), outside option, and
— for second-price formats — the winning-payoff noise and the number of
units.  Unknown keys are rejected so typos fail loudly, and
``build_scenario`` returns a canonical config with every default
materialized, which makes the echoed configuration in a run's metadata
sufficient to reproduce the run bit for bit.
"""

import json

from .errors import ConfigError
from .fpa import FPAScenario
from .outcomes import (
    AffineOutside,
    ConstantOutside,
    DeterministicWin,
    DiscreteNoise,
    NoisyWin,
    TableOutside,
    TruncatedNormalNoise,
    UniformNoise,
)
from .spa import SPAScenario
from .utility import (
    CARAUtility,
    CRRAUtility,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
)
from .values import PowerDist, TruncatedNormalDist, UniformDist, ValueModel

FORMATS = ("fpa", "spa", "uniform")
_DEFAULT_TOLERANCES = {"ode_tol": 1e-8, "root_tol": 1e-10, "audit_tol": 1e-6}
_COMMON_KEYS = {
    "format",
    "values",
    "utility",
    "transform",
    "outside_option",
    "grid",
    "tolerances",
    "seed",
}
_FPA_KEYS = _COMMON_KEYS | {"boundary_bid"}
_SPA_KEYS = _COMMON_KEYS | {"win_payoff", "K"}


def _check_keys(doc, allowed, required, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


def _build_dist(doc, lo, hi):
    _check_keys(
        doc,
        allowed={"family", "k", "mu", "sigma"},
        required={"family"},
        where="values.dist",
    )
    family = doc["family"]
    if family == "uniform":
        _check_keys(doc, {"family"}, {"family"}, "uniform dist")
        return UniformDist(lo, hi)
    if family == "power":
        _check_keys(doc, {"family", "k"}, {"family", "k"}, "power dist")
        return PowerDist(doc["k"], lo, hi)
    if family == "truncated_normal":
        _check_keys(
            doc,
            {"family", "mu", "sigma"},
            {"family", "mu", "sigma"},
            "truncated_normal dist",
        )
        return TruncatedNormalDist(doc["mu"], doc["sigma"], lo, hi)
    raise ConfigError(f"unknown value distribution family {family!r}")


def _build_values(doc):
    _check_keys(
        doc,
        allowed={"support", "n", "kind", "dist", "components"},
        required={"support", "n", "kind"},
        where="values",
    )
    support = doc["support"]
    if not (isinstance(support, (list, tuple)) and len(support) == 2):
        raise ConfigError(f"values.support must be [lo, hi], got {support!r}")
    lo, hi = float(support[0]), float(support[1])
    kind = doc["kind"]
    if kind == "iid":
        if "dist" not in doc or "components" in doc:
            raise ConfigError("iid values need a 'dist' key and no 'components'")
        return ValueModel.iid(_build_dist(doc["dist"], lo, hi), doc["n"])
    if kind == "mixture":
        if "components" not in doc or "dist" in doc:
            raise ConfigError("mixture values need a 'components' key and no 'dist'")
        comps = []
        for i, c in enumerate(doc["components"]):
            _check_keys(
                c,
                {"weight", "dist"},
                {"weight", "dist"},
                f"values.components[{i}]",
            )
            comps.append((c["weight"], _build_dist(c["dist"], lo, hi)))
        return ValueModel.mixture(comps, doc["n"])
    raise ConfigError(f"values.kind must be 'iid' or 'mixture', got {kind!r}")


def _build_utility(doc, where):
    _check_keys(
        doc,
        allowed={"family", "rho", "alpha", "knots", "shift"},
        required={"family"},
        where=where,
    )
    family = doc["family"]
    shift = doc.get("shift", 0.0)
    if family == "linear":
        _check_keys(doc, {"family", "shift"}, {"family"}, where)
        return LinearUtility(shift)
    if family == "crra":
        _check_keys(doc, {"family", "rho", "shift"}, {"family", "rho"}, where)
        return CRRAUtility(doc["rho"], shift)
    if family == "crra_log":
        _check_keys(doc, {"family", "shift"}, {"family"}, where)
        return LogUtility(shift)
    if family == "cara":
        _check_keys(doc, {"family", "alpha", "shift"}, {"family", "alpha"}, where)
        return CARAUtility(doc["alpha"], shift)
    if family == "piecewise_linear":
        _check_keys(doc, {"family", "knots", "shift"}, {"family", "knots"}, where)
        return PiecewiseLinearUtility([tuple(k) for k in doc["knots"]], shift)
    raise ConfigError(f"unknown utility family {family!r} in {where}")


def _build_outside(doc):
    _check_keys(
        doc,
        allowed={"form", "s0", "c0", "c1", "points"},
        required={"form"},
        where="outside_option",
    )
    form = doc["form"]
    if form == "constant":
        _check_keys(doc, {"form", "s0"}, {"form"}, "constant outside_option")
        return ConstantOutside(doc.get("s0", 0.0))
    if form == "affine":
        _check_keys(doc, {"form", "c0", "c1"}, {"form", "c0", "c1"}, "affine outside_option")
        return AffineOutside(doc["c0"], doc["c1"])
    if form == "table":
        _check_keys(doc, {"form", "points"}, {"form", "points"}, "table outside_option")
        return TableOutside([tuple(p) for p in doc["points"]])
    raise ConfigError(f"unknown outside_option form {form!r}")


def _build_noise(doc):
    _check_keys(
        doc,
        allowed={"kind", "points", "probs", "lo", "hi", "mu", "sigma"},
        required={"kind"},
        where="win_payoff.noise",
    )
    kind = doc["kind"]
    if kind == "discrete":
        _check_keys(doc, {"kind", "points", "probs"}, {"kind", "points", "probs"}, "discrete noise")
        return DiscreteNoise(doc["points"], doc["probs"])
    if kind == "uniform":
        _check_keys(doc, {"kind", "lo", "hi"}, {"kind", "lo", "hi"}, "uniform noise")
        return UniformNoise(doc["lo"], doc["hi"])
    if kind == "truncated_normal":
        _check_keys(
            doc,
            {"kind", "mu", "sigma", "lo", "hi"},
            {"kind", "mu", "sigma", "lo", "hi"},
            "truncated_normal noise",
        )
        return TruncatedNormalNoise(doc["mu"], doc["sigma"], doc["lo"], doc["hi"])
    raise ConfigError(f"unknown noise kind {kind!r}")


def _build_win_payoff(doc):
    _check_keys(
        doc,
        allowed={"form", "scale", "noise"},
        required={"form"},
        where="win_payoff",
    )
    form = doc["form"]
    if form == "deterministic":
        _check_keys(doc, {"form"}, {"form"}, "deterministic win_payoff")
        return DeterministicWin()
    if form == "additive_noise":
        _check_keys(doc, {"form", "scale", "noise"}, {"form", "scale", "noise"}, "win_payoff")
        return NoisyWin(_build_noise(doc["noise"]), doc["scale"])
    raise ConfigError(f"unknown win_payoff form {form!r}")


def _build_tolerances(doc):
    if doc is None:
        return dict(_DEFAULT_TOLERANCES)
    _check_keys(
        doc,
        allowed=set(_DEFAULT_TOLERANCES),
        required=set(),
        where="tolerances",
    )
    out = dict(_DEFAULT_TOLERANCES)
    for key, val in doc.items():
        val = float(val)
        if not val > 0:
            raise ConfigError(f"tolerances.{key} must be > 0, got {val}")
        out[key] = val
    return out


def _unwrap(doc):
    """Accept either a bare config or a solve run's metadata document."""
    if isinstance(doc, dict) and "config" in doc and "format" not in doc:
        inner = doc["config"]
        if isinstance(inner, dict) and "format" in inner:
            return inner
    return doc


def build_scenario(doc):
    """Validate a config document; return (format, scenario, canonical config).

    The canonical config is the input with every default materialized;
    feeding it back reproduces the identical scenario.
    """
    doc = _unwrap(doc)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    fmt = doc.get("format")
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    allowed = _FPA_KEYS if fmt == "fpa" else _SPA_KEYS
    _check_keys(doc, allowed, {"format", "values"}, "config")

    values = _build_values(doc["values"])
    utility = _build_utility(doc.get("utility", {"family": "linear"}), "utility")
    transform = (
        _build_utility(doc["transform"], "transform")
        if doc.get("transform") is not None
        else None
    )
    outside = _build_outside(doc.get("outside_option", {"form": "constant"}))
    tolerances = _build_tolerances(doc.get("tolerances"))
    grid = doc.get("grid", 257)
    if not isinstance(grid, int) or isinstance(grid, bool):
        raise ConfigError(f"grid must be an integer, got {grid!r}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    common = {
        "utility": utility.to_config(),
        "transform": None if transform is None else transform.to_config(),
        "outside_option": outside.to_config(),
        "grid": grid,
        "tolerances": tolerances,
        "seed": seed,
    }

    if fmt == "fpa":
        scenario = FPAScenario(
            values=values,
            outside=outside,
            utility=utility,
            transform=transform,
            boundary_bid=doc.get("boundary_bid"),
            grid=grid,
            ode_tol=tolerances["ode_tol"],
        )
        canonical = {
            "format": fmt,
            "values": values.to_config(),
            **common,
            "boundary_bid": scenario.boundary_bid,
        }
        return fmt, scenario, canonical

    units = doc.get("K", 1)
    if not isinstance(units, int) or isinstance(units, bool):
        raise ConfigError(f"K must be an integer, got {units!r}")
    if fmt == "spa" and units != 1:
        raise ConfigError(
            "second price sells exactly one unit; use format 'uniform' for K >= 2"
        )
    win_payoff = _build_win_payoff(doc.get("win_payoff", {"form": "deterministic"}))
    scenario = SPAScenario(
        values=values,
        outside=outside,
        utility=utility,
        transform=transform,
        win_payoff=win_payoff,
        units=units,
        grid=grid,
        root_tol=tolerances["root_tol"],
    )
    canonical = {
        "format": fmt,
        "values": values.to_config(),
        **common,
        "win_payoff": win_payoff.to_config(),
        "K": units,
    }
    return fmt, scenario, canonical


def load_config(path):
    """Read a JSON document: a config, solve metadata or a safety problem."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
