"""Command-line front end: solve, compare, safety, audit, simulate.

Every command reads a JSON configuration, writes machine-readable
artifacts (CSV for tables, JSON for reports) atomically, and signals
its outcome through a fixed exit-code taxonomy:

    0  success
    2  solver failure (singular boundary, domain breach, no root, ...)
    3  configuration or input error
    4  bid ordering violated in a comparison run
    5  dominance precondition failed in a safety check
    6  best-response audit failed

so CI scripts can assert specific failure modes.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from .config import build_scenario, load_config
from .errors import (
    BidOrderError,
    ConfigError,
    DominancePrecondition,
    IdenticalActions,
    OrderingViolation,
    RiskbidError,
)
from .fpa import EquilibriumSolution, compare_risk_aversion_fpa, solve_fpa
from .safety import (
    auction_partition,
    fpa_higher_bid_safer,
    problem_from_dict,
    spa_lower_bid_safer,
)
from .spa import compare_risk_aversion_spa, solve_spa, solve_uniform_price
from .verification import best_response_audit, monte_carlo_auction

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3
EXIT_ORDERING = 4
EXIT_DOMINANCE = 5
EXIT_AUDIT = 6

_SOLVERS = {"fpa": solve_fpa, "spa": solve_spa, "uniform": solve_uniform_price}


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj):
    _write_atomic(path, json.dumps(obj, indent=2) + "\n")


SOLUTION_HEADER = "v,beta,foc_residual"
COMPARISON_HEADER = "v,beta,beta_hat,d"


def _write_table(path, header, *columns):
    """Write the columns as a CSV table, each number to 17 significant digits."""
    rows = (",".join(f"{float(x):.17g}" for x in row) for row in zip(*columns))
    _write_atomic(path, "\n".join([header, *rows]) + "\n")


def read_solution_csv(path):
    """Load a solution table; returns (v, beta, foc_residual) arrays."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != SOLUTION_HEADER:
                raise ConfigError(
                    f"{path}: expected header {SOLUTION_HEADER!r}, got {header!r}"
                )
            with warnings.catch_warnings():  # a table with no rows is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read solution {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"solution {path} is malformed: {exc}") from exc
    if data.shape[1] != 3 or data.shape[0] < 2:
        raise ConfigError(f"solution {path} must have >= 2 rows of 3 columns")
    return data[:, 0], data[:, 1], data[:, 2]


def _load_solution(fmt, scenario, out_dir):
    path = os.path.join(out_dir, "solution.csv")
    grid, bids, residuals = read_solution_csv(path)
    boundary = scenario.boundary_bid if fmt == "fpa" else None
    return EquilibriumSolution.from_grid(
        grid,
        bids,
        residuals,
        v_floor=scenario.values.lo,
        boundary_bid=boundary,
    )


def cmd_solve(args):
    fmt, scenario, canonical = build_scenario(load_config(args.config))
    solution = _SOLVERS[fmt](scenario)
    path = os.path.join(args.out, "solution.csv")
    _write_table(path, SOLUTION_HEADER, solution.grid, solution.bids, solution.residuals)
    meta = {
        "config": canonical,
        "diagnostics": {
            "format": fmt,
            "grid_points": len(solution.grid),
            "derivative_check": solution.derivative_check,
            "monotone": solution.monotone,
            "v_floor": solution.v_floor,
            "boundary_bid": solution.boundary_bid,
        },
    }
    _write_json(os.path.join(args.out, "meta.json"), meta)
    print(
        f"solved {fmt}: {len(solution.grid)} grid points, "
        f"max scaled residual {solution.derivative_check:.3e}"
    )
    return EXIT_OK


def cmd_compare(args):
    fmt, scenario, _ = build_scenario(load_config(args.config))
    compare = {"fpa": compare_risk_aversion_fpa}.get(fmt, compare_risk_aversion_spa)
    detail = None
    try:
        report = compare(scenario)
    except OrderingViolation as exc:
        if exc.report is None:
            raise
        report, detail = exc.report, str(exc)
    path = os.path.join(args.out, "comparison.csv")
    _write_table(path, COMPARISON_HEADER, report.grid, report.beta, report.beta_hat, report.d)
    extent = getattr(report, report.extremum)
    verdict = {"ordering_holds": detail is None, report.extremum: extent, "tolerance": report.tolerance}
    if detail is not None:
        verdict["detail"] = detail
    _write_json(os.path.join(args.out, "verdict.json"), verdict)
    if detail is None:
        print(f"ordering holds for {fmt}: extremal d = {extent:.3e}")
        return EXIT_OK
    print(f"ordering violated: {detail}", file=sys.stderr)
    return EXIT_ORDERING


def _int_list(arr):
    return [int(i) for i in np.asarray(arr).tolist()]


def _witness(verdict):
    return None if verdict.witness is None else _int_list(verdict.witness)


def _section(build, *args):
    """(build(*args), None); an error section and the exception instead
    when that format's comparison is degenerate."""
    try:
        return build(*args), None
    except (DominancePrecondition, IdenticalActions) as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}, exc


def _fpa_section(bid_a, bid_b, states):
    rep = fpa_higher_bid_safer(bid_a, bid_b, states)
    return {
        "higher_bid_safer": bool(rep.verdict.safer),
        "winning_cannot_hurt": bool(rep.winning_cannot_hurt),
        "low_bids_better_winners": bool(rep.low_bids_better_winners),
        "witness": _witness(rep.verdict),
        "payoff_partition": {
            "a_better": _int_list(rep.partition.a_better),
            "b_better": _int_list(rep.partition.b_better),
            "equal": _int_list(rep.partition.equal),
        },
    }


def _spa_section(bid_a, bid_b, states):
    rep = spa_lower_bid_safer(bid_a, bid_b, states, require_constant_outside=False)
    return {
        "lower_bid_safer": bool(rep.verdict.safer),
        "outside_constant": bool(rep.outside_constant),
        "witness": _witness(rep.verdict),
    }


def cmd_safety(args):
    states, bid_a, bid_b = problem_from_dict(load_config(args.config))

    # one format can be degenerate (e.g. the higher bid dominates in
    # second price whenever winning is always a gain) while the other
    # still has a meaningful verdict; fail only when both collapse
    fpa_out, fpa_exc = _section(_fpa_section, bid_a, bid_b, states)
    spa_out, spa_exc = _section(_spa_section, bid_a, bid_b, states)
    if fpa_exc is not None and spa_exc is not None:
        print(json.dumps(fpa_out, indent=2))
        print(f"dominance precondition failed: {fpa_exc}", file=sys.stderr)
        return EXIT_DOMINANCE

    apart = auction_partition(bid_a, bid_b, states)
    out = {
        "bid_a": bid_a,
        "bid_b": bid_b,
        "auction_partition": {
            "both": _int_list(apart.both),
            "pivotal": _int_list(apart.pivotal),
            "neither": _int_list(apart.neither),
        },
        "first_price": fpa_out,
        "second_price": spa_out,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_audit(args):
    fmt, scenario, canonical = build_scenario(load_config(args.config))
    solution = _load_solution(fmt, scenario, args.out)
    report = best_response_audit(
        fmt, scenario, solution, audit_tol=canonical["tolerances"]["audit_tol"]
    )
    _write_json(os.path.join(args.out, "audit.json"), report.to_json())
    print(
        f"audit {'passed' if report.passed else 'FAILED'}: "
        f"max_gain = {report.max_gain:.3e} (tol {report.audit_tol:g})"
    )
    return EXIT_OK if report.passed else EXIT_AUDIT


def cmd_simulate(args):
    fmt, scenario, canonical = build_scenario(load_config(args.config))
    solution = _load_solution(fmt, scenario, args.out)
    seed = canonical["seed"] if args.seed is None else args.seed
    report = monte_carlo_auction(fmt, scenario, solution, args.rounds, seed)
    _write_json(os.path.join(args.out, "stats.json"), report.to_json())
    if report.rounds:
        print(
            f"simulated {report.rounds} rounds: mean revenue "
            f"{report.mean_revenue:.6f} (se {report.se_revenue:.2e})"
        )
    else:
        print("simulated 0 rounds")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 3)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser():
    parser = _Parser(
        prog="riskbid",
        description="Auction equilibrium solvers and bid-safety checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, out=True, rounds=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        if out:
            sp.add_argument("--out", required=True, help="artifact directory")
        if rounds:
            sp.add_argument("--rounds", type=int, default=100_000)
            sp.add_argument("--seed", type=int, default=None)
        return sp

    add("solve", "solve the equilibrium bid function")
    add("compare", "solve with and without the transform and check the ordering")
    add("safety", "analyze a finite two-bid problem (prints JSON)", out=False)
    add("audit", "best-response audit of a solved scenario")
    add("simulate", "Monte Carlo replay of a solved scenario", rounds=True)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "solve": cmd_solve,
        "compare": cmd_compare,
        "safety": cmd_safety,
        "audit": cmd_audit,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BidOrderError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DominancePrecondition, IdenticalActions) as exc:
        print(f"dominance precondition failed: {exc}", file=sys.stderr)
        return EXIT_DOMINANCE
    except OrderingViolation as exc:
        print(f"ordering violated: {exc}", file=sys.stderr)
        return EXIT_ORDERING
    except RiskbidError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
