"""Command-line front end: constants, space diagnostics, verification
suites, and the finite-metric sandbox, emitted as plot-ready CSV or JSON.

Exit codes are a stable CI contract: 0 success, 1 inequality or hard
invariant violation, 2 usage or domain error.  Identical flags and seed
produce byte-identical output.  Sweep CSV numerics are written with
repr (shortest round-trip form); the constants table prints 15
significant digits.

The environment variable ISOSHARP_OUTPUT_DIR supplies the directory for
relative --output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import SobolevParams, fk_constant, isoperimetric_constant, \
    rayleigh_constant, sharp_constants
from .errors import ConvergenceError, DomainError, InvariantViolation, \
    UnsupportedOperationError
from .sandbox import brunn_minkowski_report, grid_graph, path_graph, \
    seeded_z_inclusion, z_inclusion_check
from .spaces import avr, bishop_gromov_check, curvature_check, \
    isoperimetric_sharpness_sweep, space_from_descriptor
from .specfun import omega
from .verify import SUITE_NAMES, run_suite

_NAMED_GRAPHS = {
    "path3": lambda: path_graph(3),
    "path5": lambda: path_graph(5),
    "grid4": lambda: grid_graph(4, 4),
    "grid5": lambda: grid_graph(5, 5),
}

_VARIANT_DEFAULTS = {
    "euclidean": {"n": 3},
    "warped": {"n": 2, "a": 0.5, "beta": 1.0},
    "cone": {"n": 2},
    "monomial": {"n": 2, "alpha_w": 1.0},
    "ale": {"n": 2, "k": 2},
}


@dataclass(frozen=True)
class RunConfig:
    """Flat record of one invocation's output plumbing."""

    fmt: str
    output: str | None
    seed: int
    tol: float | None

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"unknown output format {self.fmt!r}")
        if self.tol is not None and not self.tol > 0.0:
            raise DomainError(f"tolerance must be positive, got {self.tol!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--output", default=None,
                        help="output file; relative paths resolve against "
                             "ISOSHARP_OUTPUT_DIR; default stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="base seed for randomized experiments")
    common.add_argument("--tol", type=float, default=None,
                        help="override the pass/fail margin tolerance")

    space_flags = argparse.ArgumentParser(add_help=False)
    space_flags.add_argument("--variant", default="euclidean",
                             choices=sorted(_VARIANT_DEFAULTS))
    space_flags.add_argument("--n", type=float, default=None,
                             help="dimension parameter")
    space_flags.add_argument("--a", type=float, default=None,
                             help="warped profile asymptote in (0,1]")
    space_flags.add_argument("--beta", type=float, default=None,
                             help="warped profile decay rate")
    space_flags.add_argument("--m", type=float, default=None,
                             help="cone link total measure m_M")
    space_flags.add_argument("--alpha-w", type=float, default=None,
                             dest="alpha_w", help="monomial weight exponent")
    space_flags.add_argument("--k", type=int, default=None,
                             help="quotient group order")

    p = argparse.ArgumentParser(
        prog="isosharp",
        description="Sharp-constant calculators and inequality verifiers "
                    "on spaces of nonnegative curvature.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", parents=[common],
                       help="print the sharp constants table")
    c.add_argument("--n", type=float, required=True)
    c.add_argument("--p", type=float, default=None)
    c.add_argument("--alpha", type=float, default=None)
    c.add_argument("--avr", type=float, default=1.0)

    s = sub.add_parser("space", parents=[common, space_flags],
                       help="space diagnostics and isoperimetric sweep")
    s.add_argument("--sweep", default=None,
                   help="radius sweep start:stop:lin|log[:count], "
                        "count default 50")

    v = sub.add_parser("verify", parents=[common, space_flags],
                       help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--p", type=float, default=2.0)
    v.add_argument("--alpha", type=float, default=None)
    v.add_argument("--R", type=float, action="append", default=None,
                   help="radius (repeatable) for the faber-krahn suites")

    z = sub.add_parser("sandbox", parents=[common],
                       help="finite-metric-space experiments")
    z.add_argument("experiment", choices=("z-inclusion", "bm"))
    z.add_argument("--seeds", type=int, default=200)
    z.add_argument("--graph", choices=sorted(_NAMED_GRAPHS), default=None)
    z.add_argument("--s", type=float, default=0.5)
    z.add_argument("--slack", type=float, default=0.0)
    z.add_argument("--R", type=float, default=None)
    z.add_argument("--n", type=int, default=2)
    z.add_argument("--h", type=float, default=1.0 / 64.0)
    return p


def parse_sweep(spec: str, default_count: int = 50) -> np.ndarray:
    """start:stop:lin|log[:count] -> radius grid."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise DomainError(
            f"sweep must be start:stop:lin|log[:count], got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
    except ValueError:
        raise DomainError(f"bad sweep bounds in {spec!r}") from None
    mode = parts[2]
    if mode not in ("lin", "log"):
        raise DomainError(f"sweep mode must be lin or log, got {mode!r}")
    count = default_count
    if len(parts) == 4:
        try:
            count = int(parts[3])
        except ValueError:
            raise DomainError(f"bad sweep count in {spec!r}") from None
    if count < 2:
        raise DomainError("sweep needs at least two radii")
    if not 0.0 < start < stop < math.inf:
        raise DomainError("sweep requires 0 < start < stop < inf")
    if mode == "log":
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _descriptor_from_flags(args) -> dict:
    defaults = _VARIANT_DEFAULTS[args.variant]
    n = float(args.n if args.n is not None else defaults["n"])
    # every variant except euclidean demands an integer dimension; a
    # fractional one stays as given for the space to reject
    if args.variant != "euclidean" and n.is_integer():
        n = int(n)
    desc = {"variant": args.variant, "n": n}
    if args.variant == "warped":
        desc["a"] = args.a if args.a is not None else defaults["a"]
        desc["beta"] = args.beta if args.beta is not None else defaults["beta"]
    elif args.variant == "cone":
        if args.m is None:
            raise DomainError("cone requires --m (link total measure)")
        desc["m_M"] = args.m
    elif args.variant == "monomial":
        desc["alpha_w"] = (args.alpha_w if args.alpha_w is not None
                           else defaults["alpha_w"])
    elif args.variant == "ale":
        desc["k"] = args.k if args.k is not None else defaults["k"]
    return desc


def _fmt15(x: float) -> str:
    return f"{float(x):.15g}"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_table(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (text, passed)

def cmd_constants(cfg: RunConfig, args) -> tuple:
    entries = []
    if args.p is not None:
        params = SobolevParams(n=args.n, p=args.p, alpha=args.alpha)
        t = sharp_constants(params, args.avr)
        entries = [("omega_n", t.omega_n), ("at", t.at), ("theta", t.theta),
                   ("gn", t.gn), ("sobolev", t.sobolev),
                   ("gn_sharp", t.gn_sharp), ("fk", t.fk),
                   ("rayleigh", t.rayleigh),
                   ("isoperimetric", isoperimetric_constant(args.n, args.avr)),
                   ("avr", t.avr)]
    else:
        entries = [("omega_n", omega(args.n)),
                   ("fk", fk_constant(args.n, args.avr)),
                   ("rayleigh", rayleigh_constant(args.n, args.avr)),
                   ("isoperimetric", isoperimetric_constant(args.n, args.avr)),
                   ("avr", args.avr)]
    if cfg.fmt == "json":
        return _json_doc({"command": "constants",
                          "values": {k: float(v) for k, v in entries}}), True
    lines = ["name,value"] + [f"{k},{_fmt15(v)}" for k, v in entries]
    return "\n".join(lines) + "\n", True


def cmd_space(cfg: RunConfig, args) -> tuple:
    desc = _descriptor_from_flags(args)
    space = space_from_descriptor(desc)
    diag = {"avr": avr(space)}
    passed = True

    radial = space.radial_supported
    radii = None
    if args.sweep is not None:
        radii = parse_sweep(args.sweep)
    elif radial:
        radii = parse_sweep("1:1000:log")

    if radii is not None:
        # non-radial spaces reject sweeps inside the space module
        bg = bishop_gromov_check(space, radii)
        diag["bishop_gromov_passed"] = bg.passed
        diag["bishop_gromov_max_increase"] = bg.max_increase
        passed = passed and bg.passed
        if desc["variant"] == "warped":
            grid = np.linspace(0.0, min(60.0 / desc["beta"], 1000.0), 201)
            curv = curvature_check(space.profile, grid)
            diag["curvature_passed"] = curv.passed
            passed = passed and curv.passed
        table = isoperimetric_sharpness_sweep(space, radii)
        diag["sharp_bound"] = table.sharp_bound
        diag["tail_gap"] = table.tail_gap
        rows = [(row.r, row.vol, row.mink_content, row.ratio,
                 row.sharp_bound, row.margin) for row in table.rows]
    else:
        rows = []

    if cfg.fmt == "json":
        payload = {"command": "space", "descriptor": desc,
                   "diagnostics": diag, "passed": passed,
                   "rows": [dict(zip(("r", "vol", "mink_content", "ratio",
                                      "sharp_bound", "margin"), r))
                            for r in rows]}
        return _json_doc(payload), passed
    head = [f"# {k}={_fmt15(v) if isinstance(v, float) else v}"
            for k, v in sorted(diag.items())]
    body = _csv_table(("r", "vol", "mink_content", "ratio",
                       "sharp_bound", "margin"), rows) if rows else ""
    return "\n".join(head) + ("\n" if head else "") + body, passed


def cmd_verify(cfg: RunConfig, args) -> tuple:
    desc = _descriptor_from_flags(args)
    space = space_from_descriptor(desc)
    params = None
    if args.suite == "gn" and args.alpha is not None:
        params = SobolevParams(n=space.effective_dimension, p=args.p,
                               alpha=args.alpha)
    result = run_suite(space, args.suite, p=args.p, params=params,
                       R_list=args.R, tol=cfg.tol)
    rows = [(result.name, desc["variant"], row.label, row.report.lhs,
             row.report.rhs_constant, row.report.quotient, row.report.margin)
            for row in result.rows]
    if cfg.fmt == "json":
        payload = {"command": "verify", "suite": result.name,
                   "descriptor": desc, "passed": result.passed,
                   "rows": [{**row.report.as_dict(), "label": row.label}
                            for row in result.rows]}
        return _json_doc(payload), result.passed
    text = _csv_table(("suite", "variant", "label", "lhs", "rhs_constant",
                       "quotient", "margin"), rows)
    return text, result.passed


def cmd_sandbox(cfg: RunConfig, args) -> tuple:
    if args.experiment == "bm":
        if not (isinstance(args.n, int) and args.n >= 1):
            raise DomainError("bm needs a positive integer --n")
        box_a = [(0.0, 0.25)] * args.n
        box_b = [(0.5, 0.75)] * args.n
        s_grid = [round(0.1 * k, 1) for k in range(11)]
        reports = [brunn_minkowski_report(args.n, args.h, box_a, box_b, s)
                   for s in s_grid]
        rows = [(rep.s, rep.measure_a, rep.measure_b, rep.measure_z,
                 rep.lhs, rep.rhs, rep.deficit, rep.c_estimate)
                for rep in reports]
        if cfg.fmt == "json":
            return _json_doc({"command": "sandbox", "experiment": "bm",
                              "rows": [rep.as_dict() for rep in reports],
                              "passed": True}), True
        return _csv_table(("s", "measure_a", "measure_b", "measure_z",
                           "lhs", "rhs", "deficit", "c_estimate"), rows), True

    if args.graph is not None:
        sp = _NAMED_GRAPHS[args.graph]()
        omega_set = (sp.points[0],)
        x0 = sp.points[0]
        R = args.R if args.R is not None else sp.diameter / 2.0
        res = z_inclusion_check(sp, omega_set, x0, R, args.s,
                                slack=args.slack)
        if cfg.fmt == "json":
            return _json_doc({"command": "sandbox",
                              "experiment": "z-inclusion",
                              "graph": args.graph,
                              "result": res.as_dict(),
                              "passed": res.passed}), res.passed
        lines = ["name,value",
                 f"graph,{args.graph}",
                 f"s,{repr(float(args.s))}",
                 f"R,{repr(float(R))}",
                 f"d0,{repr(res.d0)}",
                 f"radius,{repr(res.radius)}",
                 f"passed,{res.passed}",
                 f"violating,{res.violating}",
                 "z_set," + ";".join(str(z) for z in res.z_set),
                 "neighborhood," + ";".join(str(z) for z in res.neighborhood)]
        return "\n".join(lines) + "\n", res.passed

    if args.seeds < 1:
        raise DomainError("--seeds must be at least 1")
    rows = []
    all_passed = True
    for seed in range(cfg.seed, cfg.seed + args.seeds):
        res = seeded_z_inclusion(seed)
        all_passed = all_passed and res.passed
        rows.append((seed, len(res.z_set), res.d0, res.radius, res.passed))
    summary = f"# {sum(1 for r in rows if r[4])}/{len(rows)} passed"
    if cfg.fmt == "json":
        return _json_doc({"command": "sandbox", "experiment": "z-inclusion",
                          "seeds": args.seeds, "passed": all_passed,
                          "rows": [dict(zip(("seed", "z_count", "d0",
                                             "radius", "passed"), r))
                                   for r in rows]}), all_passed
    text = summary + "\n" + _csv_table(
        ("seed", "z_count", "d0", "radius", "passed"), rows)
    return text, all_passed


_DISPATCH = {"constants": cmd_constants, "space": cmd_space,
             "verify": cmd_verify, "sandbox": cmd_sandbox}


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
        return
    path = cfg.output
    if not os.path.isabs(path):
        base = os.environ.get("ISOSHARP_OUTPUT_DIR")
        if base:
            path = os.path.join(base, path)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = RunConfig(fmt=args.format, output=args.output, seed=args.seed,
                        tol=args.tol)
        text, passed = _DISPATCH[args.command](cfg, args)
        _write(cfg, text)
    except (DomainError, UnsupportedOperationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
