"""The four workloads: fixed operation lists generated from a seed.

``build(name, seed)`` returns the list of operations of one pass.  It only
constructs program inputs (spaces, profiles, argv lists), so the set-up
probe can time it; the reference values an operation is checked against
come from ``Op.expect``, which the runner calls once before timing starts.

The seed shuffles the order of a pass and, except in polya-interp, draws
parameters from narrow bands; the make-up of a pass (which kinds of
operation, how many of each) is the same for every seed, so figures from
different seeds are comparable.  See README.md for each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from isosharp.cli import main as cli_main
from isosharp.constants import SobolevParams
from isosharp.rearrange import euclidean_rearrangement, polya_szego_check
from isosharp.spaces import (Euclidean, EuclideanCone, ExponentialTail,
                             MonomialHalfSpace, WarpedProduct)
from isosharp.verify import (curated_profiles, fk_check, fk_sharpness_sweep,
                             gn_quotient, sobolev_quotient, truncated_extremal)

def _never(result):
    return False


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` judges it.

    ``expect`` computes the reference values (mpmath, untimed) that
    ``check(result, expected)`` compares against; ``check`` returns an error
    message or None.  ``failed(result)`` says whether the program itself
    reported failure.  ``known_fault`` names the fault for an operation
    that fails every time on any seed; it is counted in ``failed`` and does
    not make the run incorrect.
    """

    label: str
    run: Callable[[], Any]
    expect: Callable[[], dict]
    check: Callable[[Any, dict], str | None]
    failed: Callable[[Any], bool] = _never
    known_fault: str | None = None
    expected: dict = field(default=None, repr=False)


def _rel(got, want):
    want = float(want)
    return abs(float(got) - want) / max(abs(want), 1e-300)


def _first_error(*pairs):
    """First message whose condition holds, from (condition, message) pairs."""
    return next((msg for bad, msg in pairs if bad), None)


def _oracles():
    import oracles   # mpmath: imported lazily so set-up timing excludes it
    return oracles


def _space_coefficient(space):
    """c with vol(B_r) = c r^N on a power-law space, from mpmath."""
    O = _oracles()
    if isinstance(space, Euclidean):
        return O.omega(space.n)
    if isinstance(space, EuclideanCone):
        return O.mp.mpf(space.m_M) / (space.n + 1)
    if isinstance(space, MonomialHalfSpace):
        return O.monomial_unit_weight(space.n, space.alpha_w)
    return None


def _space_avr(space):
    O = _oracles()
    if isinstance(space, WarpedProduct):
        return O.mp.mpf(space.profile.a) ** (space.n - 1)
    N = space.effective_dimension
    return min(_space_coefficient(space) / O.omega(N), O.mp.mpf(1))


def _warped(n, a, beta):
    return WarpedProduct(n, ExponentialTail(a, beta))


def _near(rng, x, rel=0.02):
    """x moved by up to ``rel`` of itself, rounded to 5 significant digits.

    The bands are narrow on purpose: quadrature and bisection costs jump
    with the parameters, and a wide band lets the seed move the figures.
    """
    return float(f"{x * rng.uniform(1.0 - rel, 1.0 + rel):.5g}")


# ---------------------------------------------------------------------------
# polya-interp: Polya-Szego on warped products; u* exists only as an
# interpolant, so its gradient norm runs QUADPACK across the PCHIP kinks

# (n, profile, a, beta); fixed for every seed, which only sets the order.
# The cost of one operation jumps by up to a quarter when a or beta moves
# by a few percent (the retry cascade depends on where the kinks fall), so
# drawing them from the seed would make the seed, not the code, set the
# figures.  Five operations keep the median on one operation's class.
POLYA_OPS = ((2, "tent_1", 0.5, 1.0), (2, "trapezoid_1_3", 0.45, 1.1),
             (2, "exp_2_3", 0.55, 0.9), (3, "trapezoid_0.5_1.5", 0.5, 1.0),
             (3, "tent_1", 0.55, 1.1))
POLYA_LHS_TOL = 1e-9     # exact derivative callables on the space side
POLYA_RHS_TOL = 1e-3     # u* is a PCHIP interpolant: O(h) near a kink
POLYA_LQ_TOL = 1e-4


def _gauss_segments(f, breaks, order=20):
    """Composite Gauss-Legendre of a vectorized f over consecutive breaks."""
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = breaks[:-1], breaks[1:]
    h = (b - a) / 2.0
    pts = a[:, None] + (x[None, :] + 1.0) * h[:, None]
    return float(np.sum(f(pts) @ w * h))


def _polya_op(n, label, u, a, beta):
    space = _warped(n, a, beta)

    def expect():
        O = _oracles()
        lhs, rhs = O.warped_polya_sides(n, a, beta, label)
        return {"lhs": lhs, "rhs": rhs,
                "lq": {q: O.warped_lq(n, a, beta, label, q) for q in (1, 2)}}

    def check(res, exp):
        star = euclidean_rearrangement(space, u)
        c = n * math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        lq_err = max(_rel(_gauss_segments(
            lambda s: star.value(s) ** q * c * s ** (n - 1), star.r_grid),
            want) for q, want in exp["lq"].items())
        return _first_error(
            (not res.ratio >= 1.0 - 1e-6, f"ratio {res.ratio} < 1 - 1e-6"),
            (_rel(res.lhs, exp["lhs"]) > POLYA_LHS_TOL,
             f"lhs {res.lhs} vs oracle {float(exp['lhs'])}"),
            (_rel(res.rhs, exp["rhs"]) > POLYA_RHS_TOL,
             f"rhs {res.rhs} vs oracle {float(exp['rhs'])}"),
            (lq_err > POLYA_LQ_TOL,
             f"rearrangement moved an Lq norm by {lq_err:.3g}"))

    return Op(f"polya n={n} a={a} beta={beta} {label}",
              lambda: polya_szego_check(space, u, 2.0), expect, check)


def _build_polya(rng):
    profiles = dict(curated_profiles())
    ops = [_polya_op(n, label, profiles[label], a, beta)
           for n, label, a, beta in POLYA_OPS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# quotients: Sobolev and GN quotients on exact callables

QUOTIENT_TENT_TOL = 1e-9
CONSTANT_TOL = 1e-10
GN_ALPHA = 2.0


def _quotient_spaces(rng):
    return [Euclidean(3),
            Euclidean(_near(rng, 3.5)),
            EuclideanCone(2, _near(rng, 0.6 * 4.0 * math.pi)),
            MonomialHalfSpace(2, _near(rng, 1.0)),
            _warped(3, _near(rng, 0.5), _near(rng, 1.0))]


def _quotient_op(space, label, u, kind):
    N = space.effective_dimension
    p = 2.0
    if kind == "sobolev":
        params = SobolevParams(n=N, p=p)
        run = lambda: sobolev_quotient(space, u, p)
    else:
        params = SobolevParams(n=N, p=p, alpha=GN_ALPHA)
        run = lambda: gn_quotient(space, u, params)

    def expect():
        O = _oracles()
        avr = _space_avr(space)
        if kind == "sobolev":
            const = O.aubin_talenti(N, p) * avr ** (-1 / O.mp.mpf(N))
        else:
            theta = O.gn_theta(N, p, GN_ALPHA)
            const = O.gn_constant(N, p, GN_ALPHA) * avr ** (-theta / N)
        exp = {"const": const, "tent": None}
        c = _space_coefficient(space)
        if label.startswith("tent_") and c is not None:
            m = float(label.split("_")[1])
            exp["tent"] = (O.tent_sobolev_quotient(c, N, m, p)
                           if kind == "sobolev"
                           else O.tent_gn_quotient(c, N, m, p, GN_ALPHA))
        return exp

    def check(res, exp):
        tent = exp["tent"]
        return _first_error(
            (res.margin < -1e-6 * res.rhs_constant,
             f"margin {res.margin} below -1e-6 S"),
            (_rel(res.rhs_constant, exp["const"]) > CONSTANT_TOL,
             f"constant {res.rhs_constant} vs mpmath {float(exp['const'])}"),
            (tent is not None and _rel(res.quotient, tent) > QUOTIENT_TENT_TOL,
             f"tent quotient {res.quotient} vs closed form {tent}"))

    return Op(f"{kind} {space.descriptor()} {label}", run, expect, check)


def _build_quotients(rng):
    profiles = curated_profiles()
    ops = []
    for i, space in enumerate(_quotient_spaces(rng)):
        for j, (label, u) in enumerate(profiles):
            kind = "sobolev" if (i + j) % 2 == 0 else "gn"
            ops.append(_quotient_op(space, label, u, kind))
        extremal = truncated_extremal(
            SobolevParams(n=space.effective_dimension, p=2.0))
        ops.append(_quotient_op(space, "extremal", extremal, "sobolev"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# faber-krahn: shooting eigenvalues and Bessel-profile sweeps

FK_EIGEN_TOL = 1e-8


def _fk_spaces(rng):
    return [Euclidean(3),
            Euclidean(_near(rng, 2.5)),
            EuclideanCone(2, _near(rng, 0.6 * 4.0 * math.pi)),
            MonomialHalfSpace(2, _near(rng, 1.0)),
            _warped(2, _near(rng, 0.5), _near(rng, 1.0)),
            _warped(3, _near(rng, 0.5), _near(rng, 1.0))]


def _fk_expect(space):
    def expect():
        O = _oracles()
        N = space.effective_dimension
        return {"lam": O.fk_constant(N, _space_avr(space)),
                "j2": O.bessel_zero(O.mp.mpf(N) / 2 - 1) ** 2}
    return expect


def _fk_check_op(space, R):
    warped = isinstance(space, WarpedProduct)

    def check(res, exp):
        return _first_error(
            (_rel(res.rhs_constant, exp["lam"]) > CONSTANT_TOL,
             f"Lambda {res.rhs_constant} vs mpmath {float(exp['lam'])}"),
            (warped and not res.margin > 0.0,
             f"warped margin {res.margin} is not positive"),
            (not warped and _rel(res.lhs * R * R, exp["j2"]) > FK_EIGEN_TOL,
             f"lambda_1 R^2 = {res.lhs * R * R} vs j^2 = {float(exp['j2'])}"))

    return Op(f"fk_check {space.descriptor()} R={R}",
              lambda: fk_check(space, R), _fk_expect(space), check)


def _fk_sweep_op(space, radii):
    def check(res, exp):
        lam = res.lambda_g
        low = min(row.quotient for row in res.rows)
        return _first_error(
            (_rel(lam, exp["lam"]) > CONSTANT_TOL,
             f"Lambda {lam} vs mpmath {float(exp['lam'])}"),
            (low < lam * (1.0 - 1e-6), f"Q(R) = {low} below Lambda = {lam}"),
            (not res.passed, f"sweep limits failed: {res.limits}"))

    return Op(f"fk_sweep {space.descriptor()} R={radii[0]}..{radii[-1]}",
              lambda: fk_sharpness_sweep(space, radii), _fk_expect(space),
              check)


def _build_fk(rng):
    ops = []
    for space in _fk_spaces(rng):
        # one radius from each third of [1, 20] on a log scale
        for k in range(3):
            lo, hi = 20.0 ** (k / 3.0), 20.0 ** ((k + 1) / 3.0)
            R = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            ops.append(_fk_check_op(space, round(R, 4)))
        r0, r1 = _near(rng, 2.0), _near(rng, 2000.0)
        radii = [float(r) for r in np.geomspace(r0, r1, 8)]
        ops.append(_fk_sweep_op(space, radii))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-short: in-process isosharp.cli.main over short commands

Z_SEEDS = 3
KNOWN_Z_FAULT = ("sandbox.z_inclusion_check takes the closed ball d <= R but "
                 "eps_neighborhood is strict (d < eps), so an interpolant at "
                 "exactly s(d0+R) is reported outside")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def _diag(text):
    return dict(ln[2:].split("=", 1) for ln in text.splitlines()
                if ln.startswith("# ") and "=" in ln)


def _constants_expect(n, p, alpha, avr):
    def expect():
        O = _oracles()
        mp = O.mp
        lam = O.fk_constant(n, avr)
        want = {"omega_n": O.omega(n), "fk": lam, "rayleigh": 1 / lam,
                "isoperimetric": O.isoperimetric_constant(n, avr),
                "avr": mp.mpf(avr)}
        if p is not None:
            a = n / (n - p) if alpha is None else alpha
            at = O.aubin_talenti(n, p)
            theta = O.gn_theta(n, p, a)
            gn = O.gn_constant(n, p, a)
            want.update(at=at, theta=theta, gn=gn,
                        sobolev=at * mp.mpf(avr) ** (-1 / mp.mpf(n)),
                        gn_sharp=gn * mp.mpf(avr) ** (-theta / n))
        return want
    return expect


def _check_constants(values, want, tol):
    if set(values) != set(want):
        return f"constants table has {sorted(values)}, want {sorted(want)}"
    bad = [k for k in want if _rel(values[k], want[k]) > tol]
    return f"constants {bad} differ from mpmath" if bad else None


def _space_expect(space):
    def expect():
        O = _oracles()
        N = space.effective_dimension
        return {"bound": O.isoperimetric_constant(N, _space_avr(space)),
                "coef": _space_coefficient(space)}
    return expect


def _check_sweep(out, exp, space):
    rows = _csv_rows(out)
    diag = _diag(out)
    bound = float(exp["bound"])
    c = exp["coef"]
    N = space.effective_dimension
    for row in rows:
        if float(row["margin"]) < -1e-12 * bound:
            return f"ratio {row['ratio']} below the sharp bound {bound}"
        if c is not None:
            want = c * _oracles().mp.mpf(row["r"]) ** N
        else:
            O = _oracles()
            want = (space.n * O.omega(space.n) * O.warped_F_power_integral(
                space.n, space.profile.a, space.profile.beta, row["r"]))
        if _rel(row["vol"], want) > 1e-9:
            return f"vol {row['vol']} at r={row['r']} vs mpmath {float(want)}"
    return _first_error(
        (not rows, "empty sweep"),
        (_rel(float(diag.get("sharp_bound", "nan")), bound) > 1e-12,
         f"sharp_bound {diag.get('sharp_bound')} vs mpmath {bound}"),
        (diag.get("bishop_gromov_passed") != "True",
         "Bishop-Gromov check did not pass"))


def _cli_op(argv, expect, check, rc_want=0, known_fault=None):
    """A command whose stdout must repeat byte for byte within a run."""
    first = []

    def full_check(res, exp):
        rc, out, err = res
        if rc != rc_want:
            return f"exit code {rc}, want {rc_want}: {err.strip()[:200]}"
        if not first:
            first.append(out)
        elif out != first[0]:
            return "stdout differs from the first run of the same command"
        return check(out, exp)

    return Op("isosharp " + " ".join(argv), lambda: _run_cli(argv), expect,
              full_check, failed=lambda res: res[0] == 1 and rc_want == 0,
              known_fault=known_fault)


def _no_expect():
    return {}


def _constants_op(n, p, alpha, avr, json_format):
    argv = ["constants", "--n", repr(float(n)), "--avr", repr(avr)]
    if p is not None:
        argv += ["--p", repr(p)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]

    def check(out, exp):
        values = (json.loads(out)["values"] if json_format else
                  {r["name"]: float(r["value"]) for r in _csv_rows(out)})
        return _check_constants(values, exp, CONSTANT_TOL)

    return _cli_op(argv + ["--format", "json"] * json_format,
                   _constants_expect(n, p, alpha, avr), check)


def _build_cli(rng):
    ops = []
    # constants: CSV with p, JSON with p and alpha, CSV Faber-Krahn only
    n, p = rng.randint(3, 6), round(rng.uniform(1.3, 2.5), 3)
    avr = round(rng.uniform(0.2, 1.0), 4)
    ops.append(_constants_op(n, p, None, avr, False))
    n, p = rng.randint(3, 6), round(rng.uniform(1.3, 2.5), 3)
    alpha = round(1.0 + rng.uniform(0.2, 0.9) * (p / (n - p)), 4)
    avr = round(rng.uniform(0.2, 1.0), 4)
    ops.append(_constants_op(n, p, alpha, avr, True))
    ops.append(_constants_op(round(rng.uniform(2.5, 6.0), 3), None, None,
                             round(rng.uniform(0.2, 1.0), 4), False))

    # space sweeps on every radial variant
    r_top = _near(rng, 500.0)
    sweeps = [
        (Euclidean(rng.randint(2, 5)), f"1:{r_top}:log:20"),
        (Euclidean(_near(rng, 3.5)), f"0.5:{_near(rng, 50.0)}:lin:20"),
        (EuclideanCone(2, _near(rng, 0.6 * 4.0 * math.pi)),
         f"1:{r_top}:log:20"),
        (MonomialHalfSpace(2, _near(rng, 1.0)), f"1:{r_top}:log:20"),
        (_warped(2, _near(rng, 0.5), _near(rng, 1.0)), f"1:{r_top}:log:20"),
        (_warped(3, _near(rng, 0.5), _near(rng, 1.0)), f"1:{r_top}:log:20"),
    ]
    for space, sweep in sweeps:
        ops.append(_cli_op(
            ["space"] + _space_flags(space) + ["--sweep", sweep],
            _space_expect(space),
            lambda out, exp, space=space: _check_sweep(out, exp, space)))

    # finite sandbox: seeded z-inclusion, lattice BM.  A random graph of
    # 8 to 60 nodes costs 1 to 14 ms, so a few seeds keep the seed's share
    # of the pass time small.
    base = rng.randrange(10 ** 6)
    ops.append(_cli_op(
        ["sandbox", "z-inclusion", "--seeds", str(Z_SEEDS),
         "--seed", str(base)],
        _no_expect, _check_z_seeds))
    for flags in ([], ["--n", "3", "--h", "0.0625"]):
        ops.append(_cli_op(["sandbox", "bm"] + flags, _no_expect, _check_bm))

    # named graphs; path5 and grid5 fail every time (KNOWN_Z_FAULT)
    for graph in ("path3", "grid4", "path5", "grid5"):
        fault = KNOWN_Z_FAULT if graph in ("path5", "grid5") else None
        ops.append(_cli_op(["sandbox", "z-inclusion", "--graph", graph],
                           _no_expect, _check_graph, known_fault=fault))

    # bad input must exit 2
    ops.append(_cli_op(["constants", "--n", "3", "--p", "5"], _no_expect,
                       lambda out, exp: None, rc_want=2))
    ops.append(_cli_op(["space", "--variant", "ale", "--sweep", "1:10:log:5"],
                       _no_expect, lambda out, exp: None, rc_want=2))
    rng.shuffle(ops)
    return ops


def _space_flags(space):
    """The CLI flags that describe ``space``."""
    d = space.descriptor()
    n = repr(d["n"]) if d["variant"] == "euclidean" else str(int(d["n"]))
    flags = ["--variant", d["variant"], "--n", n]
    for key, flag in (("a", "--a"), ("beta", "--beta"), ("m_M", "--m"),
                      ("alpha_w", "--alpha-w")):
        if key in d:
            flags += [flag, repr(float(d[key]))]
    return flags


def _check_z_seeds(out, exp):
    head = out.splitlines()[0]
    rows = _csv_rows(out)
    return _first_error(
        (len(rows) != Z_SEEDS, f"{len(rows)} seeded checks, want {Z_SEEDS}"),
        (head != f"# {len(rows)}/{len(rows)} passed"
         or any(r["passed"] != "True" for r in rows),
         "a seeded z-inclusion failed"))


def _check_bm(out, exp):
    rows = {float(r["s"]): r for r in _csv_rows(out)}
    half = rows.get(0.5)
    return _first_error(
        (half is None, "no s=0.5 row"),
        (half is not None and float(half["deficit"]) != 0.0,
         f"deficit at s=0.5 is {half and half['deficit']}, want 0"))


def _check_graph(out, exp):
    rows = {r["name"]: r["value"] for r in _csv_rows(out)}
    return _first_error((rows.get("passed") != "True",
                         f"z-inclusion reported passed={rows.get('passed')}"))


_BUILDERS = {"polya-interp": _build_polya, "quotients": _build_quotients,
             "faber-krahn": _build_fk, "cli-short": _build_cli}


def build(name, seed):
    """The operation list of one pass of workload ``name`` for ``seed``."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
