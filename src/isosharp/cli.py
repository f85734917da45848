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
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .constants import SobolevParams, fk_constant, isoperimetric_constant, \
    rayleigh_constant, sharp_constants
from .errors import ConvergenceError, DomainError, InvariantViolation, \
    UnsupportedOperationError
from .sandbox import BmReport, brunn_minkowski_report, grid_graph, \
    path_graph, seeded_z_inclusion, z_inclusion_check
from .spaces import VARIANTS, SweepRow, bishop_gromov_check, \
    curvature_check, isoperimetric_sharpness_sweep
from .specfun import omega
from .verify import SUITES, QuotientReport, run_suite

_NAMED_GRAPHS = {
    "path3": lambda: path_graph(3),
    "path5": lambda: path_graph(5),
    "grid4": lambda: grid_graph(4, 4),
    "grid5": lambda: grid_graph(5, 5),
}

# argparse settings of the flags in verify.SUITES; a flag not given is None
_SUITE_FLAGS = {"p": {"type": float}, "alpha": {"type": float},
                "R": {"type": float, "action": "append", "help": "repeatable"}}

# z-inclusion's flags: the mode that reads each, with --graph (one named
# graph) or without it (a run of seeded random graphs), and its default
_Z_FLAGS = {"s": ("with", 0.5), "slack": ("with", 0.0), "R": ("with", None),
            "seeds": ("without", 200), "seed": ("without", 0)}

# radii of a sweep with no count, and the most one may ask for (each is a
# table row, and a count far past it cannot even be allocated as a grid)
_SWEEP_COUNT, _MAX_SWEEP_COUNT = 50, 10 ** 6


# built on the first main() call, not at import, and kept for the process:
# argparse's parse_args leaves the parser as it found it
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--output", default=None,
                        help="output file; relative paths resolve against "
                             "ISOSHARP_OUTPUT_DIR; default stdout")

    space_flags = argparse.ArgumentParser(add_help=False)
    space_flags.add_argument("--variant", default="euclidean",
                             choices=sorted(VARIANTS))
    space_flags.add_argument("--n", type=float, default=None,
                             help="dimension parameter")
    space_flags.add_argument("--a", type=float, default=None,
                             help="warped profile asymptote in (0,1]")
    space_flags.add_argument("--beta", type=float, default=None,
                             help="warped profile decay rate")
    space_flags.add_argument("--m", type=float, default=None, dest="m_M",
                             metavar="M", help="cone link total measure m_M")
    space_flags.add_argument("--alpha-w", type=float, default=None,
                             dest="alpha_w", help="monomial weight exponent")
    space_flags.add_argument("--k", type=int, default=None,
                             help="quotient group order")

    p = argparse.ArgumentParser(
        prog="isosharp",
        description="Sharp-constant calculators and inequality verifiers "
                    "on spaces of nonnegative curvature.")
    # full flag names only: else --alpha would stand for --alpha-w
    parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True, parser_class=parser)

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

    suites = sub.add_parser("verify", help="run a verification suite"
                            ).add_subparsers(dest="suite", required=True,
                                             parser_class=parser)
    for name, (own, _) in SUITES.items():
        v = suites.add_parser(name, parents=[common, space_flags])
        v.add_argument("--tol", type=float, default=None,
                       help="override the pass/fail margin tolerance")
        for flag in own:
            v.add_argument(f"--{flag}", **_SUITE_FLAGS[flag])

    experiments = sub.add_parser(
        "sandbox", help="finite-metric-space experiments"
    ).add_subparsers(dest="experiment", required=True, parser_class=parser)
    bm = experiments.add_parser("bm", parents=[common])
    bm.add_argument("--n", type=int, default=2)
    bm.add_argument("--h", type=float, default=1.0 / 64.0)
    z = experiments.add_parser("z-inclusion", parents=[common])
    z.add_argument("--graph", choices=sorted(_NAMED_GRAPHS), default=None)
    for flag, (mode, _) in _Z_FLAGS.items():
        z.add_argument(f"--{flag}", type=float if mode == "with" else int)
    return p


def parse_sweep(spec: str) -> np.ndarray:
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
    try:
        count = int(parts[3]) if len(parts) == 4 else _SWEEP_COUNT
    except ValueError:
        raise DomainError(f"bad sweep count in {spec!r}") from None
    if count < 2:
        raise DomainError("sweep needs at least two radii")
    if count > _MAX_SWEEP_COUNT:
        raise DomainError(
            f"sweep takes at most {_MAX_SWEEP_COUNT} radii, got {count}")
    if not 0.0 < start < stop < math.inf:
        raise DomainError("sweep requires 0 < start < stop < inf")
    if mode == "log":
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _space_from_flags(args) -> tuple:
    """(descriptor, space) from the variant's own flags, each given or
    defaulted; a flag of another variant raises DomainError."""
    defaults, build = VARIANTS[args.variant]
    desc = {"variant": args.variant}
    for key in dict.fromkeys(k for own, _ in VARIANTS.values() for k in own):
        value = getattr(args, key)
        if key not in defaults:
            if value is not None:
                flag = "m" if key == "m_M" else key.replace("_", "-")
                raise DomainError(f"{args.variant} takes no --{flag}")
        elif value is None and defaults[key] is None:   # cone's --m
            raise DomainError("cone requires --m (link total measure)")
        else:
            desc[key] = defaults[key] if value is None else value
    # every variant except euclidean demands an integer dimension; a
    # fractional one stays as given for the space to reject
    n = float(desc["n"])
    desc["n"] = int(n) if args.variant != "euclidean" and n.is_integer() else n
    return desc, build(**{key: desc[key] for key in defaults})


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
    lines = [header] + [[_csv_cell(v) for v in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _field_columns(record_type, records, skip=()) -> tuple:
    """(names, rows): the record type's fields in declared order, less those
    in skip, and each record's values of them."""
    names = tuple(f.name for f in fields(record_type) if f.name not in skip)
    return names, [tuple(getattr(rec, k) for k in names) for rec in records]


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (text, passed)

def cmd_constants(args) -> tuple:
    if args.p is None and args.alpha is not None:
        raise DomainError("--alpha is read only with --p")
    if args.p is not None:
        params = SobolevParams(n=args.n, p=args.p, alpha=args.alpha)
        entries = asdict(sharp_constants(params, args.avr)).items()
    else:
        entries = [("omega_n", omega(args.n)),
                   ("fk", fk_constant(args.n, args.avr)),
                   ("rayleigh", rayleigh_constant(args.n, args.avr)),
                   ("isoperimetric", isoperimetric_constant(args.n, args.avr)),
                   ("avr", args.avr)]
    if args.format == "json":
        return _json_doc({"command": "constants",
                          "values": {k: float(v) for k, v in entries}}), True
    lines = ["name,value"] + [f"{k},{_fmt15(v)}" for k, v in entries]
    return "\n".join(lines) + "\n", True


def cmd_space(args) -> tuple:
    desc, space = _space_from_flags(args)
    diag = {"avr": space.avr()}
    passed = True

    radii = None
    if args.sweep is not None:
        radii = parse_sweep(args.sweep)
    elif space.radial_supported:
        radii = parse_sweep("1:1000:log")

    if radii is not None:
        # non-radial spaces reject sweeps inside the space module
        bg = bishop_gromov_check(space, radii)
        diag["bishop_gromov_passed"] = bg.passed
        diag["bishop_gromov_max_increase"] = bg.max_increase
        passed = passed and bg.passed
        if desc["variant"] == "warped":
            grid = np.linspace(0.0, min(space.breaks[-1], 1000.0), 201)
            curv = curvature_check(space.profile, grid)
            diag["curvature_passed"] = curv.passed
            passed = passed and curv.passed
        table = isoperimetric_sharpness_sweep(space, radii)
        diag["sharp_bound"] = table.sharp_bound
        diag["tail_gap"] = table.tail_gap
        sweep = table.rows
    else:
        sweep = ()

    if args.format == "json":
        payload = {"command": "space", "descriptor": desc,
                   "diagnostics": diag, "passed": passed,
                   "rows": [asdict(row) for row in sweep]}
        return _json_doc(payload), passed
    head = [f"# {k}={_fmt15(v) if isinstance(v, float) else v}"
            for k, v in sorted(diag.items())]
    body = _csv_table(*_field_columns(SweepRow, sweep)) if sweep else ""
    return "\n".join(head) + ("\n" if head else "") + body, passed


def cmd_verify(args) -> tuple:
    desc, space = _space_from_flags(args)
    given = {key: getattr(args, key) for key in SUITES[args.suite][0]}
    result = run_suite(space, args.suite, tol=args.tol,
                       **{k: v for k, v in given.items() if v is not None})
    if args.format == "json":
        row_space = space.descriptor()
        payload = {"command": "verify", "suite": result.name,
                   "descriptor": desc, "passed": result.passed,
                   "rows": [{**asdict(row.report), "label": row.label,
                             "space": row_space} for row in result.rows]}
        return _json_doc(payload), result.passed
    names, cells = _field_columns(QuotientReport,
                                  [row.report for row in result.rows],
                                  skip=("params",))
    rows = [(result.name, desc["variant"], row.label) + c
            for row, c in zip(result.rows, cells)]
    text = _csv_table(("suite", "variant", "label") + names, rows)
    return text, result.passed


def cmd_sandbox(args) -> tuple:
    if args.experiment == "bm":
        s_grid = [round(0.1 * k, 1) for k in range(11)]
        reports = [brunn_minkowski_report(args.n, args.h, (0.0, 0.25),
                                          (0.5, 0.75), s) for s in s_grid]
        if args.format == "json":
            return _json_doc({"command": "sandbox", "experiment": "bm",
                              "rows": [asdict(rep) for rep in reports],
                              "passed": True}), True
        return _csv_table(*_field_columns(BmReport, reports,
                                          skip=("n", "h", "N"))), True

    # a flag of the other mode exits 2; one not given takes its default
    mode = "with" if args.graph else "without"
    for key, (key_mode, default) in _Z_FLAGS.items():
        if key_mode != mode and getattr(args, key) is not None:
            raise DomainError(f"z-inclusion {mode} --graph takes no --{key}")
        if getattr(args, key) is None:
            setattr(args, key, default)

    if args.graph is not None:
        sp = _NAMED_GRAPHS[args.graph]()
        R = args.R if args.R is not None else sp.diameter / 2.0
        res = z_inclusion_check(sp, (0,), 0, R, args.s, slack=args.slack)
        if args.format == "json":
            return _json_doc({"command": "sandbox",
                              "experiment": "z-inclusion",
                              "graph": args.graph,
                              "result": asdict(res),
                              "passed": res.passed}), res.passed
        rows = [("graph", args.graph), ("s", args.s), ("R", R)] + [
            (k, ";".join(map(str, v)) if isinstance(v, tuple) else v)
            for k, v in asdict(res).items()]
        return _csv_table(("name", "value"), rows), res.passed

    if args.seeds < 1:
        raise DomainError("--seeds must be at least 1")
    rows = []
    all_passed = True
    for seed in range(args.seed, args.seed + args.seeds):
        res = seeded_z_inclusion(seed)
        all_passed = all_passed and res.passed
        rows.append((seed, len(res.z_set), res.d0, res.radius, res.passed))
    names = ("seed", "z_count", "d0", "radius", "passed")
    if args.format == "json":
        payload = {"command": "sandbox", "experiment": "z-inclusion",
                   "seeds": args.seeds, "passed": all_passed,
                   "rows": [dict(zip(names, r)) for r in rows]}
        return _json_doc(payload), all_passed
    summary = f"# {sum(1 for r in rows if r[4])}/{len(rows)} passed"
    return summary + "\n" + _csv_table(names, rows), all_passed


_DISPATCH = {"constants": cmd_constants, "space": cmd_space,
             "verify": cmd_verify, "sandbox": cmd_sandbox}


def _write(output, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = output
    if not os.path.isabs(path):
        base = os.environ.get("ISOSHARP_OUTPUT_DIR")
        if base:
            path = os.path.join(base, path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, passed = _DISPATCH[args.command](args)
        _write(args.output, text)
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
