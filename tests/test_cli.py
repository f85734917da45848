import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isosharp import cli
from isosharp.cli import main, parse_sweep
from isosharp.errors import DomainError
from isosharp.spaces import Euclidean, EuclideanCone, ExponentialTail, \
    MonomialHalfSpace, WarpedProduct


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestSweepParser:
    def test_log_sweep(self):
        r = parse_sweep("1:1000:log:4")
        assert np.allclose(r, [1.0, 10.0, 100.0, 1000.0])

    def test_lin_sweep_default_count(self):
        r = parse_sweep("0.5:2:lin")
        assert r.size == 50
        assert r[0] == 0.5 and r[-1] == 2.0

    def test_malformed(self):
        for bad in ("1:2", "2:1:log", "1:x:lin", "1:2:geo", "1:2:lin:1",
                    "0:2:log:5", "1:2:lin:x", "1:inf:log:5", "nan:2:lin",
                    "1:10:log:1000000000000"):
            with pytest.raises(DomainError):
                parse_sweep(bad)


class TestConstantsCommand:
    def test_full_table(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "3", "--p", "2",
                               "--alpha", "3", "--avr", "1")
        assert code == 0
        table = dict(ln.split(",") for ln in out.splitlines()[1:])
        # mpmath's AT(3, 2) = 0.42726054286252666..., to 15 digits
        assert table["at"] == "0.427260542862527"
        assert table["at"] == table["sobolev"] == table["gn"]
        assert float(table["theta"]) == 1.0

    def test_fk_only_mode(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "2", "--avr", "1")
        assert code == 0
        table = dict(ln.split(",") for ln in out.splitlines()[1:])
        assert "sobolev" not in table
        assert float(table["fk"]) == pytest.approx(
            math.pi * 2.404825557695773 ** 2, rel=1e-9)

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--n", "3", "--p", "4")
        assert code == 2
        assert "p < n violated" in err

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "constants", "--n", "3", "--frob", "1")
        assert code == 2

    def test_json_format(self, capsys):
        import json
        code, out, _ = run_cli(capsys, "constants", "--n", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "constants"
        assert doc["values"]["fk"] == pytest.approx(18.168414535537232)


    @pytest.mark.parametrize("p", [None, 2.0])
    def test_large_dimension_against_mpmath(self, capsys, p):
        # omega_2000 underflows; every constant is assembled in log space
        import mpmath as mp
        n = 2000
        argv = ["constants", "--n", str(n)] + (["--p", str(p)] if p else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        table = {k: float(v) for k, v in
                 (ln.split(",") for ln in out.splitlines()[1:])}
        with mp.workdps(30):
            nu = mp.mpf(n) / 2 - 1
            j = mp.findroot(lambda x: mp.besselj(nu, x),
                            nu + mp.mpf("1.8557571") * mp.cbrt(nu))
            omega_n = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
            fk = j ** 2 * omega_n ** (mp.mpf(2) / n)
            want = {"omega_n": omega_n, "fk": fk, "rayleigh": 1 / fk,
                    "isoperimetric": n * omega_n ** (mp.mpf(1) / n), "avr": 1}
            if p:
                # Aubin-Talenti; at the Sobolev endpoint GN coincides with it
                p = mp.mpf(p)
                ratio = (mp.gamma(1 + mp.mpf(n) / 2) * mp.gamma(n)
                         / (mp.gamma(n / p) * mp.gamma(1 + n - n / p)))
                at = (mp.pi ** mp.mpf(-0.5) * mp.mpf(n) ** (-1 / p)
                      * ((p - 1) / (n - p)) ** (1 - 1 / p)
                      * ratio ** (mp.mpf(1) / n))
                want.update(at=at, theta=1, gn=at, sobolev=at, gn_sharp=at)
        assert set(table) == set(want)
        for key, value in want.items():
            assert table[key] == pytest.approx(float(value), rel=1e-10), key


class TestSpaceCommand:
    def test_warped_sweep_final_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "space", "--variant", "warped",
                               "--n", "2", "--a", "0.5", "--beta", "1",
                               "--sweep", "1:1000:log:20")
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["r", "vol", "mink_content", "ratio",
                          "sharp_bound", "margin"]
        bound = 2.0 * math.sqrt(math.pi) * math.sqrt(0.5)
        final_ratio = float(rows[-1][3])
        assert final_ratio == pytest.approx(bound, rel=0.01)

    def test_cone_constant_ratio_column(self, capsys):
        code, out, _ = run_cli(capsys, "space", "--variant", "cone",
                               "--n", "2", "--m", "6.0")
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 50    # default sweep count
        ratios = {row[3] for row in rows}
        values = sorted(float(r) for r in ratios)
        assert values[-1] - values[0] < 1e-13

    def test_ale_sweep_unsupported_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "space", "--variant", "ale",
                               "--n", "3", "--k", "4",
                               "--sweep", "1:10:lin:5")
        assert code == 2
        assert "radial" in err

    @pytest.mark.parametrize("variant, desc", [
        ("euclidean", {"variant": "euclidean", "n": 3.0}),
        ("warped", {"variant": "warped", "n": 2, "a": 0.5, "beta": 1.0}),
        ("cone", {"variant": "cone", "n": 2, "m_M": 6.0}),
        ("monomial", {"variant": "monomial", "n": 2, "alpha_w": 1.0}),
        ("ale", {"variant": "ale", "n": 2, "k": 2}),
    ])
    def test_json_descriptor_of_the_defaults(self, capsys, variant, desc):
        # the descriptor as built from the flags: n an int except on
        # euclidean (a float), ale's k an int
        extra = ("--m", "6") if variant == "cone" else ()
        code, out, _ = run_cli(capsys, "space", "--variant", variant, *extra,
                               "--format", "json")
        assert code == 0
        got = json.loads(out)["descriptor"]
        assert got == desc
        assert [type(v) for v in got.values()] == [
            type(desc[k]) for k in got]

    def test_help_names_the_link_measure_flag(self, capsys):
        code, out, _ = run_cli(capsys, "space", "--help")
        assert code == 0
        assert "[--m M]" in out and "  --m M " in out

    def test_ale_without_sweep_reports_avr(self, capsys):
        code, out, _ = run_cli(capsys, "space", "--variant", "ale",
                               "--n", "3", "--k", "4")
        assert code == 0
        assert "# avr=0.25" in out

    def test_csv_numbers_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "space", "--variant", "warped",
                            "--sweep", "1:100:log:8")
        _, rows = data_rows(out)
        for row in rows:
            for cell in row:
                assert repr(float(cell)) == cell    # <= 1 ulp means 0 drift


class TestVerifyCommand:
    def test_gn_extremal_margin_near_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gn", "--n", "3", "--p", "2",
                               "--alpha", "2", "--variant", "euclidean")
        assert code == 0
        _, rows = data_rows(out)
        extremal = [r for r in rows if r[2] == "extremal_gn"]
        assert len(extremal) == 1
        assert abs(float(extremal[0][6])) < 1e-6

    def test_faber_krahn_warped_positive_margin(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "faber-krahn", "--variant",
                               "warped", "--a", "0.5", "--R", "5")
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 1
        assert float(rows[0][6]) > 0.0

    def test_polya_euclidean_ratios_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "polya-szego",
                               "--variant", "euclidean")
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) >= 10
        for row in rows:
            assert float(row[5]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n,want", [("40", 0), ("100", 0), ("200", 2),
                                        ("452", 2)])
    def test_polya_euclidean_large_dimension(self, capsys, n, want):
        # at n = 200 the volume radii of the curated grids underflow to 0
        # and collapse, at n = 452 omega_n is subnormal: bad input, said
        # on one line and with no warning
        code, out, err = run_cli(capsys, "verify", "polya-szego",
                                 "--variant", "euclidean", "--n", n)
        assert code == want
        if want == 2:
            assert out == "" and err.startswith("error:")
            assert err.count("\n") == 1
        else:
            _, rows = data_rows(out)
            assert all(abs(float(row[5]) - 1.0) <= 1e-12 for row in rows)

    def test_strict_tol_override_can_fail(self, capsys):
        # quotients sit strictly below the constant on generic profiles,
        # so demanding margin >= -tol with a huge tol still passes, and
        # the override plumbing is exercised
        code, _, _ = run_cli(capsys, "verify", "faber-krahn", "--variant",
                             "euclidean", "--n", "2", "--R", "1",
                             "--tol", "100")
        assert code == 0

    def test_json_rows_carry_the_space_descriptor(self, capsys):
        # reports carry numbers only; the command adds the space's own
        # descriptor (n a float) to each JSON row
        code, out, _ = run_cli(capsys, "verify", "faber-krahn", "--variant",
                               "warped", "--n", "2", "--R", "1", "--R", "5",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["descriptor"]["n"] == 2
        assert [row["space"] for row in doc["rows"]] == 2 * [
            {"variant": "warped", "n": 2.0, "a": 0.5, "beta": 1.0}]

    @pytest.mark.parametrize("flags, space", [
        (("--variant", "euclidean"), Euclidean(3.0)),
        (("--variant", "warped"), WarpedProduct(2, ExponentialTail(0.5, 1.0))),
        (("--variant", "cone", "--m", "6"), EuclideanCone(2, 6.0)),
        (("--variant", "monomial", "--alpha-w", "0.5"),
         MonomialHalfSpace(2, 0.5)),
    ])
    def test_json_rows_carry_the_built_space(self, capsys, flags, space):
        code, out, _ = run_cli(capsys, "verify", "faber-krahn", *flags,
                               "--R", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows and all(row["space"] == space.descriptor() for row in rows)

    def test_fk_sweep_far_radius_on_warped(self, capsys):
        # the layer-cake cross-check once tripped here (exit 1): the direct
        # quadrature missed where F turns affine, by 1.3e-7 at R=5000
        code, out, _ = run_cli(capsys, "verify", "fk-sweep", "--variant",
                               "warped", "--n", "2", "--a", "0.7", "--beta",
                               "1.0", "--R", "2", "--R", "5000")
        assert code == 0
        assert len(data_rows(out)[1]) == 2

    def test_fk_sweep_default_radii_on_warped(self, capsys):
        # the mass integral's 1/R bias is 1.2e-2 at the last default radius
        # (500), so this argv exited 1 before the limits were extrapolated
        code, out, _ = run_cli(capsys, "verify", "fk-sweep", "--variant",
                               "warped", "--n", "3", "--a", "0.45")
        assert code == 0
        assert len(data_rows(out)[1]) == 8

    def test_faber_krahn_tiny_radius_is_quiet(self, capsys):
        # the eigenfunction interpolant on a 1e-108-wide grid once
        # overflowed in its cubic coefficients, with a warning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "faber-krahn",
                                     "--variant", "warped", "--n", "3",
                                     "--R", "1e-100")
        assert code == 0
        assert err == ""
        assert float(data_rows(out)[1][0][6]) > 0.0

    def test_faber_krahn_on_a_tiny_decay_length(self, capsys):
        # the ball volume past the profile's last break was nan (F_e^n
        # underflowed, (F/F_e)^n overflowed), so this exited 2
        code, out, err = run_cli(capsys, "verify", "faber-krahn",
                                 "--variant", "warped", "--n", "2",
                                 "--beta", "1e300")
        assert (code, err) == (0, "")
        assert all(float(row[6]) > 0.0 for row in data_rows(out)[1])

    def test_faber_krahn_equality_in_high_dimension(self, capsys):
        # from n = 12 on the bisection once settled on a higher eigenvalue
        # (margin 1857 at n = 20)
        code, out, _ = run_cli(capsys, "verify", "faber-krahn", "--variant",
                               "euclidean", "--n", "20")
        assert code == 0
        _, rows = data_rows(out)
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row[6])) <= 1e-6 * float(row[4])

    def test_fk_sweep_large_dimension(self, capsys):
        # the Bessel profile's scale (k/2)^nu / Gamma(nu + 1) is formed in
        # log space; (k/2)^169 alone overflows here
        code, out, err = run_cli(capsys, "verify", "fk-sweep", "--variant",
                                 "euclidean", "--n", "340", "--R", "1")
        assert code == 0 and err == ""
        assert len(data_rows(out)[1]) == 1

    @pytest.mark.parametrize("argv", [
        ("euclidean", "--n", "3", "--R", "1e-90"),
        ("euclidean", "--n", "3", "--R", "1e-77"),
        ("euclidean", "--n", "3", "--R", "1e80"),
        ("euclidean", "--n", "3", "--R", "1e100"),
        ("euclidean", "--n", "2.5", "--R", "1e103"),
        ("warped", "--n", "3", "--R", "1e80"),
    ])
    def test_fk_sweep_extreme_radii(self, capsys, argv):
        # the test function is integrated at unit height and its scale c
        # applied after; the slope 2 u' u'', of order c^2 k^3, once
        # overflowed at R = 1e-90 (exit 2) and underflowed at R = 1e80
        # (exit 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "fk-sweep",
                                     "--variant", *argv)
        assert (code, err) == (0, "")
        (row,) = data_rows(out)[1]
        assert abs(float(row[5]) / float(row[4]) - 1.0) <= 1e-12

    def test_sobolev_near_p_one_is_quiet(self, capsys):
        # p' = 101: the truncated extremal underflows to a step past r = 1,
        # and an interpolant through it once warned of an overflow
        code, _, err = run_cli(capsys, "verify", "sobolev", "--variant",
                               "euclidean", "--n", "3", "--p", "1.01")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ("polya-szego",), ("polya-szego", "--p", "3"), ("sobolev",), ("gn",),
        ("faber-krahn", "--R", "1"), ("fk-sweep",)])
    def test_csv_rows_have_the_header_cell_count(self, capsys, argv):
        # polya-szego once labelled a p != 2 row "tent_1,p=3.0", one cell
        # too many
        code, out, _ = run_cli(capsys, "verify", *argv, "--variant",
                               "euclidean", "--n", "3")
        assert code == 0
        header, rows = data_rows(out)
        assert rows and all(len(row) == len(header) for row in rows)

    def test_bad_dimension_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "sobolev", "--variant",
                               "euclidean", "--n", "2", "--p", "2")
        assert code == 2
        assert "p < n" in err


class TestSandboxCommand:
    def test_seeded_batch_passes(self, capsys):
        code, out, _ = run_cli(capsys, "sandbox", "z-inclusion",
                               "--seeds", "12")
        assert code == 0
        assert "# 12/12 passed" in out
        _, rows = data_rows(out.split("passed\n", 1)[1])
        assert all(row[4] == "True" for row in rows)

    def test_path3_witness_sets(self, capsys):
        code, out, _ = run_cli(capsys, "sandbox", "z-inclusion",
                               "--graph", "path3", "--s", "0.5")
        assert code == 0
        table = dict(ln.split(",", 1) for ln in out.splitlines()[1:])
        assert table["passed"] == "True"
        assert table["z_set"] != ""
        assert "neighborhood" in table

    def test_graph_json_holds_point_indices(self, capsys):
        code, out, _ = run_cli(capsys, "sandbox", "z-inclusion",
                               "--graph", "grid5", "--format", "json")
        assert code == 0
        res = json.loads(out)["result"]
        assert res["z_set"] and all(type(z) is int for z in res["z_set"])
        assert res["neighborhood"][0] == 0

    @pytest.mark.parametrize("graph", ["path5", "grid5"])
    def test_interpolant_on_the_boundary_passes(self, capsys, graph):
        # z at distance exactly s(d0+R) lies in the closed neighbourhood
        code, out, _ = run_cli(capsys, "sandbox", "z-inclusion",
                               "--graph", graph)
        assert code == 0
        assert "passed,True" in out.splitlines()

    def test_bm_deficit_table(self, capsys):
        code, out, _ = run_cli(capsys, "sandbox", "bm", "--n", "2",
                               "--h", "0.015625")
        assert code == 0
        header, rows = data_rows(out)
        assert header[0] == "s" and "deficit" in header
        assert len(rows) == 11
        mid = [r for r in rows if float(r[0]) == 0.5][0]
        assert float(mid[6]) == pytest.approx(0.0, abs=1e-12)

    def test_bad_h_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sandbox", "bm", "--h", "0.3")
        assert code == 2


class TestTolPlumbing:
    def test_nonpositive_tol_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "polya-szego",
                               "--variant", "euclidean", "--n", "3",
                               "--tol", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_tiny_tol_turns_rounding_into_failure(self, capsys):
        # the euclidean fk-sweep margins are rounding, in [-3.6e-14,
        # -7.1e-15]: the default tolerance passes them, and a 1e-30 one
        # reclassifies them as violations and the run exits 1
        argv = ("verify", "fk-sweep", "--variant", "euclidean", "--n", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert data_rows(out)
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-30")
        assert code == 1
        assert data_rows(out)


    def test_tol_keeps_the_fk_sweep_limit_check(self, capsys):
        # two small radii put the extrapolated limits 92% (grad) and 138%
        # (mass) off; a loose margin tolerance must not pass them
        code, out, _ = run_cli(capsys, "verify", "fk-sweep", "--variant",
                               "warped", "--n", "3", "--R", "1", "--R", "1.5",
                               "--tol", "1e-3", "--format", "json")
        assert code == 1
        assert '"passed": false' in out
        code, _, _ = run_cli(capsys, "verify", "fk-sweep", "--variant",
                             "euclidean", "--n", "3", "--tol", "1e-6")
        assert code == 0


class TestPlumbing:
    def test_byte_identical_reruns(self, capsys):
        argv = ("sandbox", "z-inclusion", "--seeds", "6")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        argv = ("space", "--variant", "cone", "--n", "1", "--m", "2.0",
                "--sweep", "1:50:log:9")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "constants", "--n", "2",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("name,value")
        monkeypatch.setenv("ISOSHARP_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "constants", "--n", "2",
                             "--output", "rel.csv")
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        # a missing directory and a directory in place of the file
        for target in (tmp_path / "missing" / "x.csv", tmp_path):
            code, out, err = run_cli(capsys, "constants", "--n", "3",
                                     "--output", str(target))
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write {target}: ")

    def test_missing_subcommand_exit_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("argv, columns, json_keys, json_record", [
        (("constants", "--n", "3"),
         "omega_n fk rayleigh isoperimetric avr",
         "omega_n fk rayleigh isoperimetric avr", lambda d: d["values"]),
        (("constants", "--n", "3", "--p", "2"),
         "omega_n at theta gn sobolev gn_sharp fk rayleigh isoperimetric avr",
         "omega_n at theta gn sobolev gn_sharp fk rayleigh isoperimetric avr",
         lambda d: d["values"]),
        (("space", "--variant", "euclidean", "--n", "3",
          "--sweep", "1:10:log:3"),
         "r vol mink_content ratio sharp_bound margin",
         "r vol mink_content ratio sharp_bound margin",
         lambda d: d["rows"][0]),
        (("verify", "sobolev", "--variant", "euclidean", "--n", "3"),
         "suite variant label lhs rhs_constant quotient margin",
         "lhs rhs_constant quotient margin params label space",
         lambda d: d["rows"][0]),
        (("sandbox", "bm"),
         "s measure_a measure_b measure_z lhs rhs deficit c_estimate",
         "n h s N measure_a measure_b measure_z lhs rhs deficit c_estimate",
         lambda d: d["rows"][0]),
        (("sandbox", "z-inclusion", "--seeds", "2"),
         "seed z_count d0 radius passed",
         "seed z_count d0 radius passed", lambda d: d["rows"][0]),
        (("sandbox", "z-inclusion", "--graph", "path5"),
         "graph s R d0 radius passed violating z_set neighborhood",
         "passed violating z_set neighborhood radius d0",
         lambda d: d["result"]),
    ])
    def test_table_columns(self, capsys, argv, columns, json_keys,
                           json_record):
        # the record's field order is the output contract: the CSV header
        # (the name column of a name,value table) in order, the JSON keys
        # as a set
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, rows = data_rows(out)
        if header == ["name", "value"]:
            header = [row[0] for row in rows]
        assert header == columns.split()
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert set(json_record(json.loads(out))) == set(json_keys.split())

    @pytest.mark.parametrize("argv", [
        # a fractional dimension where the variant needs an integer
        ("space", "--variant", "warped", "--n", "2.7"),
        ("space", "--variant", "cone", "--n", "2.7", "--m", "3"),
        ("space", "--variant", "monomial", "--n", "2.7"),
        ("space", "--variant", "ale", "--n", "2.7"),
        # ball volumes past double precision, above and below
        ("space", "--variant", "euclidean", "--n", "2.5",
         "--sweep", "1:1e300:log:5"),
        ("space", "--variant", "euclidean", "--n", "3",
         "--sweep", "1e-300:1:log:5"),
        # an eigenvalue j^2/R^2 past double precision
        ("verify", "faber-krahn", "--variant", "euclidean", "--n", "3",
         "--R", "1e-300"),
        # a ball volume past double precision ahead of the Bessel profile's
        # scale (k/2)^nu / Gamma(nu + 1), which once overflowed first
        ("verify", "fk-sweep", "--variant", "euclidean", "--n", "340",
         "--R", "0.5", "--R", "1"),
        # omega_N and the unit-ball volumes underflow: AVR was 0/0
        ("space", "--variant", "euclidean", "--n", "500"),
        ("space", "--variant", "euclidean", "--n", "1e308"),
        ("space", "--variant", "monomial", "--n", "500", "--alpha-w", "1"),
        ("verify", "fk-sweep", "--variant", "euclidean", "--n", "500",
         "--R", "1"),
        # numpy's generator rejects a negative seed
        ("sandbox", "z-inclusion", "--seeds", "1", "--seed", "-5"),
        # non-finite bounds, rates and exponents
        ("space", "--variant", "euclidean", "--n", "3",
         "--sweep", "1:inf:log:5"),
        ("space", "--variant", "warped", "--n", "2", "--beta", "inf"),
        ("space", "--variant", "warped", "--n", "2", "--beta", "1e-310"),
        ("space", "--variant", "warped", "--n", "1e308"),
        ("constants", "--n", "2", "--avr", "5e-324"),
        ("verify", "polya-szego", "--variant", "euclidean", "--n", "3",
         "--p", "inf"),
        # |u*'|^p overflows on the rearranged tent's steeper slopes
        ("verify", "polya-szego", "--variant", "warped", "--n", "2",
         "--p", "1e308"),
        # a Bessel zero of order n/2 - 1 past the cost bound
        ("constants", "--n", "1e15"),
        ("constants", "--n", "1e308"),
        # a lattice spacing whose 1/h overflows
        ("sandbox", "bm", "--h", "5e-324"),
        # a radius whose first shooting node R * 1e-8 underflows to 0
        ("verify", "faber-krahn", "--variant", "euclidean", "--n", "3",
         "--R", "5e-324"),
        # a subnormal vol(B_R), which the volume guard rejects
        ("verify", "fk-sweep", "--variant", "euclidean", "--n", "3",
         "--R", "1e-103"),
        ("verify", "fk-sweep", "--variant", "euclidean", "--n", "60",
         "--R", "1e-5"),
        ("space", "--variant", "euclidean", "--n", "3",
         "--sweep", "1e-107:1e-103:log:5"),
        # the unit-height test function's integrals leave double precision
        # beside a normal vol(B_R): at n = 60 the mass integral is 1.8e-11
        # vol(B_R), subnormal at R = 2e-5
        ("verify", "fk-sweep", "--variant", "euclidean", "--n", "60",
         "--R", "2e-5"),
        # the extremal's r_cut^{p'} overflows as p' = p/(p-1) grows
        ("verify", "sobolev", "--variant", "euclidean", "--n", "3",
         "--p", "1.000001"),
        # a lattice cell volume (1/64)^n below the least normal double; n =
        # 300 used to end in an OverflowError, n = 200 in zero measures
        ("sandbox", "bm", "--n", "300"),
        ("sandbox", "bm", "--n", "200"),
        # omega_N underflows to 0 (n = 453) or is subnormal (n = 440); the
        # rearrangement divided by it, ending in a ZeroDivisionError
        ("verify", "polya-szego", "--variant", "euclidean", "--n", "453"),
        ("verify", "polya-szego", "--variant", "euclidean", "--n", "440"),
        # a space flag that the variant does not take; each once printed
        # the rows of the flag's absence
        ("space", "--variant", "euclidean", "--n", "3", "--a", "0.3"),
        ("space", "--variant", "cone", "--n", "2", "--m", "6", "--k", "9"),
        ("verify", "sobolev", "--variant", "monomial", "--n", "3",
         "--beta", "2"),
        # a sweep count whose grid cannot be allocated; it once ended in
        # numpy's _ArrayMemoryError
        ("space", "--variant", "euclidean", "--n", "3",
         "--sweep", "1:10:log:1000000000000"),
        # bm dimensions whose h^n cell is 0, or whose n leaves the doubles;
        # the boxes of n pairs were built first, ending in a MemoryError or
        # an OverflowError
        ("sandbox", "bm", "--n", "10000000000"),
        ("sandbox", "bm", "--n", "1" + "0" * 400),
        # a cone without its link measure
        ("space", "--variant", "cone", "--n", "2"),
        # s (d0 + R) = 0 * inf; once a message about an internal eps
        ("sandbox", "z-inclusion", "--graph", "path3", "--s", "0",
         "--R", "inf"),
        # a group order whose 1/k is not a normal double; it once ended in
        # an OverflowError
        ("space", "--variant", "ale", "--k", "1" + "0" * 400),
        # a flag that the command reads only beside another, or a flag of
        # z-inclusion's other mode; each once was ignored
        ("constants", "--n", "3", "--alpha", "2"),
        ("sandbox", "z-inclusion", "--seeds", "2", "--s", "0.9"),
        ("sandbox", "z-inclusion", "--graph", "path3", "--seed", "1"),
    ])
    def test_bad_input_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        ("space", "--variant", "torus"),
        # a flag of a command that never reads it
        ("constants", "--n", "3", "--seed", "4"),
        ("constants", "--n", "3", "--tol", "-1"),
        ("sandbox", "bm", "--tol", "1"),
        ("space", "--variant", "euclidean", "--seed", "2"),
        # a flag of another suite or experiment; each once was ignored
        ("verify", "faber-krahn", "--variant", "euclidean", "--n", "3",
         "--p", "7"),
        ("verify", "sobolev", "--R", "5"),
        ("sandbox", "bm", "--graph", "path3"),
        # nor does a prefix stand for a flag the command reads (--alpha-w)
        ("verify", "polya-szego", "--variant", "monomial", "--alpha", "2"),
        # the space flags follow the suite's name
        ("verify", "--n", "3", "sobolev"),
    ])
    def test_usage_error_exit_2(self, capsys, argv):
        # argparse rejects these: a usage line, then its error
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: isosharp") and "error: " in err


class TestCachedParser:
    # the argparse tree is built on the first main() call and kept

    def test_calls_share_no_state(self, capsys, monkeypatch):
        # a fixed width: help and usage text wrap to the terminal's
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(cli.__file__)),
            os.environ.get("PYTHONPATH")])))
        fk = ("verify", "faber-krahn", "--variant", "euclidean", "--n", "3")
        runs = [(fk + ("--R", "1", "--R", "5"), 0),
                (("constants", "--n", "3", "--frob", "1"), 2),
                (("--help",), 0),
                (fk, 0)]
        for argv, want in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code == want
            fresh = subprocess.run(
                [sys.executable, "-m", "isosharp.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120)
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr), argv
        # the default radii, no --R left over from the first call
        _, rows = data_rows(out)
        assert [row[2] for row in rows] == ["R=1", "R=5", "R=20"]

    def test_warm_calls_build_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        cli._build_parser.cache_clear()
        assert run_cli(capsys, "constants", "--n", "3")[0] == 0
        assert "isosharp" in built
        built.clear()
        for argv in (("constants", "--n", "3"), ("sandbox", "bm"),
                     ("constants", "--frob"), ("--help",)):
            run_cli(capsys, *argv)
        assert built == []


# every float flag takes finite, zero, negative, subnormal, huge and
# non-finite values; integer flags small signed ones
_FLOAT = st.one_of(st.floats(min_value=1e-3, max_value=1e3).map(repr),
                   st.sampled_from(["0", "-0.0", "-1", "-7.5", "5e-324",
                                    "1e-310", "1e308", "inf", "-inf", "nan"]))
_INT = st.integers(min_value=-3, max_value=5).map(str)


def _flags(**strategies):
    """argv of the given flags, each absent or with a drawn value."""
    def one(flag, value):
        name = "--" + flag.replace("_", "-")
        return st.one_of(st.just([]), value.map(lambda v: [name, v]))

    return st.tuples(*(one(flag, value) for flag, value in strategies.items())
                     ).map(lambda parts: sum(parts, []))


_SWEEP = st.tuples(_FLOAT, _FLOAT, st.sampled_from(["lin", "log"]),
                   st.integers(min_value=2, max_value=5)).map(
    lambda parts: ":".join(map(str, parts)))

# each variant's own space flags: a foreign one exits 2 before the sweep
_VARIANT_FLAGS = {"euclidean": {}, "warped": {"a": _FLOAT, "beta": _FLOAT},
                  "cone": {"m": _FLOAT}, "monomial": {"alpha_w": _FLOAT},
                  "ale": {"k": _INT}}

# each quotient suite's own flags, drawn for that suite only
_SUITE_FLAGS = {"polya-szego": {"p": _FLOAT}, "sobolev": {"p": _FLOAT},
                "gn": {"p": _FLOAT, "alpha": _FLOAT}}

_ARGV = st.one_of(
    st.tuples(_FLOAT, _flags(p=_FLOAT, alpha=_FLOAT, avr=_FLOAT)).map(
        lambda v: ["constants", "--n", v[0]] + v[1]),
    *(_flags(n=_FLOAT, sweep=_SWEEP, **own).map(
        lambda v, variant=variant: ["space", "--variant", variant] + v)
      for variant, own in _VARIANT_FLAGS.items()),
    # bm's --n also around and past the least normal cell volume (1/64)^n
    _flags(n=st.one_of(_INT, st.sampled_from(["170", "171", "300", "1100"])),
           h=_FLOAT).map(lambda v: ["sandbox", "bm"] + v),
    st.tuples(st.sampled_from(["path3", "path5", "grid4", "grid5"]),
              _flags(s=_FLOAT, slack=_FLOAT, R=_FLOAT)).map(
        lambda v: ["sandbox", "z-inclusion", "--graph", v[0]] + v[1]),
    st.tuples(st.sampled_from(["1", "2"]), _INT).map(
        lambda v: ["sandbox", "z-inclusion", "--seeds", v[0], "--seed", v[1]]),
    st.sampled_from(sorted(_SUITE_FLAGS.items())).flatmap(
        lambda suite: st.tuples(
            st.sampled_from(["euclidean", "warped", "cone", "monomial"]),
            _flags(n=_FLOAT, **suite[1])).map(
            lambda v: ["verify", suite[0], "--variant", v[0]] + v[1])),
    st.tuples(st.sampled_from(["faber-krahn", "fk-sweep"]),
              st.sampled_from(["euclidean", "warped", "cone", "monomial"]),
              st.lists(_FLOAT, max_size=3)).map(
        lambda v: ["verify", v[0], "--variant", v[1]]
        + sum((["--R", R] for R in v[2]), [])),
)


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=360, deadline=None, derandomize=True)
@given(_ARGV)
# a radius whose first shooting node R * 1e-8 underflows to 0 once escaped
# as numpy's ValueError; the draws above need not reach it
@example(["verify", "faber-krahn", "--variant", "euclidean", "--R", "5e-324"])
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    # an exception or a warning (an error under the suite's filter) escaping
    # main fails the test; so does output that differs on a rerun
    code, out = _run_quiet(argv)
    assert code in (0, 1, 2)
    assert _run_quiet(argv) == (code, out)


# each command, suite or z-inclusion mode beside flags that it does not read
# and that another one does
_NOT_READ = [
    (["constants", "--n", "3"], ("alpha", "seed", "tol", "R")),
    (["space"], ("p", "alpha", "R", "tol", "seed", "s")),
    (["verify", "polya-szego"], ("alpha", "R", "seed")),
    (["verify", "sobolev"], ("alpha", "R", "seed")),
    (["verify", "gn"], ("R", "seed", "avr")),
    (["verify", "faber-krahn"], ("p", "alpha", "seed")),
    (["verify", "fk-sweep"], ("p", "alpha", "seed")),
    (["sandbox", "bm"], ("seeds", "seed", "graph", "s", "slack", "R", "tol")),
    (["sandbox", "z-inclusion", "--graph", "path3"],
     ("seeds", "seed", "n", "h")),
    (["sandbox", "z-inclusion"], ("s", "slack", "R", "n", "h")),
]
_VALUES = {"graph": st.sampled_from(["path3", "grid4"]), "seeds": _INT,
           "seed": _INT, "n": _INT}

_FOREIGN_ARGV = st.sampled_from(
    [(argv, flag) for argv, flags in _NOT_READ for flag in flags]).flatmap(
    lambda case: _VALUES.get(case[1], _FLOAT).map(
        lambda value: case[0] + ["--" + case[1], value]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_FOREIGN_ARGV)
def test_a_flag_not_read_exits_2(argv):
    assert _run_quiet(argv) == (2, "")
