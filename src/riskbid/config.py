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

from .errors import (ConfigError, finite_number, finite_numbers, finite_pairs, integer_count,
                     positive_number)
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


def _build_tagged(doc, tag, table, where, *extra):
    """Build the object a tagged document names.

    ``table`` maps each tag value to (constructor, required fields,
    optional fields), the fields as {name: parser}.  The constructor gets
    the required fields in order, then ``extra``, then the optional
    fields present in the document by name.
    """
    fields = {f for _, req, opt in table.values() for f in (*req, *opt)}
    _check_keys(doc, fields | {tag}, {tag}, where)
    name = doc[tag]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {where} {tag} {name!r}")
    make, req, opt = table[name]
    _check_keys(doc, {tag, *req, *opt}, {tag, *req}, f"{name} {where}")
    args = [parse(doc[f], f"{where}.{f}") for f, parse in req.items()]
    kwargs = {f: parse(doc[f], f"{where}.{f}") for f, parse in opt.items() if f in doc}
    return make(*args, *extra, **kwargs)


_NUM = finite_number
_SHIFT = {"shift": _NUM}
_DISTS = {
    "uniform": (UniformDist, {}, {}),
    "power": (PowerDist, {"k": _NUM}, {}),
    "truncated_normal": (TruncatedNormalDist, {"mu": _NUM, "sigma": _NUM}, {}),
}
_UTILITIES = {
    "linear": (LinearUtility, {}, _SHIFT),
    "crra": (CRRAUtility, {"rho": _NUM}, _SHIFT),
    "crra_log": (LogUtility, {}, _SHIFT),
    "cara": (CARAUtility, {"alpha": _NUM}, _SHIFT),
    "piecewise_linear": (PiecewiseLinearUtility, {"knots": finite_pairs}, _SHIFT),
}
_OUTSIDES = {
    "constant": (ConstantOutside, {}, {"s0": _NUM}),
    "affine": (AffineOutside, {"c0": _NUM, "c1": _NUM}, {}),
    "table": (TableOutside, {"points": finite_pairs}, {}),
}
_NOISES = {
    "discrete": (DiscreteNoise, {"points": finite_numbers, "probs": finite_numbers}, {}),
    "uniform": (UniformNoise, {"lo": _NUM, "hi": _NUM}, {}),
    "truncated_normal": (
        TruncatedNormalNoise,
        {"mu": _NUM, "sigma": _NUM, "lo": _NUM, "hi": _NUM},
        {},
    ),
}


def _build_noise(doc, where):
    return _build_tagged(doc, "kind", _NOISES, where)


_WIN_PAYOFFS = {
    "deterministic": (DeterministicWin, {}, {}),
    "additive_noise": (NoisyWin, {"noise": _build_noise, "scale": _NUM}, {}),
}


def _build_values(doc):
    _check_keys(
        doc,
        allowed={"support", "n", "kind", "dist", "components"},
        required={"support", "n", "kind"},
        where="values",
    )
    lo, hi = finite_numbers(doc["support"], "values.support", 2)
    kind = doc["kind"]
    if kind == "iid":
        if "dist" not in doc or "components" in doc:
            raise ConfigError("iid values need a 'dist' key and no 'components'")
        dist = _build_tagged(doc["dist"], "family", _DISTS, "values.dist", lo, hi)
        return ValueModel.iid(dist, doc["n"])
    if kind == "mixture":
        if "components" not in doc or "dist" in doc:
            raise ConfigError("mixture values need a 'components' key and no 'dist'")
        raw = doc["components"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"values.components must be a list, got {raw!r}")
        comps = []
        for i, c in enumerate(raw):
            where = f"values.components[{i}]"
            _check_keys(c, {"weight", "dist"}, {"weight", "dist"}, where)
            comps.append((
                finite_number(c["weight"], f"{where}.weight"),
                _build_tagged(c["dist"], "family", _DISTS, f"{where}.dist", lo, hi),
            ))
        return ValueModel.mixture(comps, doc["n"])
    raise ConfigError(f"values.kind must be 'iid' or 'mixture', got {kind!r}")


def _build_utility(doc, where):
    return _build_tagged(doc, "family", _UTILITIES, where)


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
        out[key] = positive_number(val, f"tolerances.{key}")
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
    outside_doc = doc.get("outside_option", {"form": "constant"})
    outside = _build_tagged(outside_doc, "form", _OUTSIDES, "outside_option")
    tolerances = _build_tolerances(doc.get("tolerances"))
    seed = integer_count(doc.get("seed", 0), "seed", 0)

    shared = dict(values=values, outside=outside, utility=utility, transform=transform,
                  grid=doc.get("grid", 257))
    if fmt == "fpa":
        boundary = doc.get("boundary_bid")
        scenario = FPAScenario(
            **shared,
            boundary_bid=None if boundary is None else finite_number(boundary, "boundary_bid"),
            ode_tol=tolerances["ode_tol"],
        )
        own = {"boundary_bid": scenario.boundary_bid}
    else:
        units = integer_count(doc.get("K", 1), "K", 1)
        if fmt == "spa" and units != 1:
            raise ConfigError(
                "second price sells exactly one unit; use format 'uniform' for K >= 2"
            )
        win_doc = doc.get("win_payoff", {"form": "deterministic"})
        win_payoff = _build_tagged(win_doc, "form", _WIN_PAYOFFS, "win_payoff")
        scenario = SPAScenario(
            **shared,
            win_payoff=win_payoff,
            units=units,
            root_tol=tolerances["root_tol"],
        )
        own = {"win_payoff": win_payoff.to_config(), "K": units}

    canonical = {
        "format": fmt,
        "values": values.to_config(),
        "utility": utility.to_config(),
        "transform": None if transform is None else transform.to_config(),
        "outside_option": outside.to_config(),
        "grid": scenario.grid,
        "tolerances": tolerances,
        "seed": seed,
        **own,
    }
    return fmt, scenario, canonical


def load_config(path):
    """Read a JSON document: a config, solve metadata or a safety problem."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
