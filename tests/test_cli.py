"""Command-line interface tests: formats, exit codes, determinism and
round-trip parsing of emitted matrices."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import diagprod.verify as verify_module
from diagprod import big_gamma, gamma, is_special_unitary, jacobian_big_gamma
from diagprod.cli import OutputRecord, main


def read_csv(path):
    """Parse our CSV format: '#'-prefixed header map, column row, float rows."""
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, columns, np.array(rows)


def per_cell_table(rows):
    """CSV table lines formatted one cell at a time (reference only)."""
    return [",".join(format(float(x), ".17g") for x in row) for row in rows]


cells = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.79e308, -1.79e308]),
)


class TestOutputRecord:
    tables = hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7), elements=cells
    )

    @given(tables)
    @settings(max_examples=200, deadline=None)
    def test_writers_match_the_per_cell_writer(self, table):
        columns = [f"c{j}" for j in range(table.shape[1])]
        record = OutputRecord("1", "t", {"b": 2, "a": "x"}, columns, table)
        header = ["# schema_version=1", "# command=t", "# a=x", "# b=2", ",".join(columns)]
        assert record.to_csv() == "\n".join(header + per_cell_table(table)) + "\n"
        payload = {
            "schema_version": "1",
            "command": "t",
            "parameters": {"b": 2, "a": "x"},
            "columns": columns,
            "rows": [[float(x) for x in row] for row in table],
        }
        assert record.to_json() == json.dumps(payload, indent=2) + "\n"


class TestBoundaryCommand:
    def test_csv_first_row_and_headers(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["boundary", "--n", "3", "--samples", "64", "--out", str(out)])
        assert rc == 0
        meta, columns, rows = read_csv(out)
        assert meta["schema_version"] == "1"
        assert meta["seed"] == "0"
        assert columns == ["alpha", "re", "im", "theta", "r"]
        assert rows.shape == (64, 5)
        assert rows[0, 0] == pytest.approx(-np.pi)
        assert rows[0, 1] == pytest.approx(-1 / 27, abs=1e-12)
        assert rows[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_rows_round_trip_at_17_digits(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["boundary", "--n", "5", "--samples", "16", "--out", str(out)])
        _, _, rows = read_csv(out)
        want = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        np.testing.assert_array_equal(rows[:, 0], want)
        np.testing.assert_array_equal(rows[:, 1] + 1j * rows[:, 2], gamma(5, want))

    def test_trivial_group(self, tmp_path):
        out = tmp_path / "b1.csv"
        main(["boundary", "--n", "1", "--samples", "8", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert np.all(rows[:, 1] == 1.0)
        assert np.all(rows[:, 2] == 0.0)

    def test_modulus_peaks_at_origin(self, tmp_path):
        # even sample counts pass through alpha = 0, where |gamma| = 1
        out = tmp_path / "b12.csv"
        main(["boundary", "--n", "12", "--samples", "64", "--out", str(out)])
        _, _, rows = read_csv(out)
        k = int(np.argmax(rows[:, 4]))
        assert rows[k, 0] == 0.0
        assert rows[k, 4] == 1.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["boundary", "--n", "4", "--samples", "8", "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == "1"
        assert payload["command"] == "boundary"
        assert payload["columns"][0] == "alpha"
        assert len(payload["rows"]) == 8

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["boundary", "--n", "6", "--samples", "32", "--out", str(a)])
        main(["boundary", "--n", "6", "--samples", "32", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_io_failure_exit_code(self):
        rc = main(["boundary", "--n", "3", "--out", "/nonexistent/dir/x.csv"])
        assert rc == 3

    def test_usage_errors(self, capsys):
        # the library rejects n; the parser rejects what no library call checks
        assert main(["boundary", "--n", "0"]) == 2
        assert "matrix size n must be an integer >= 1, got 0" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "--n", "3", "--samples", "1"])
        assert exc.value.code == 2


class TestGammaImageCommand:
    def test_grid_properties(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(
            ["gamma-image", "--n", "12", "--alpha-samples", "24", "--y-samples", "12", "--out", str(out)]
        )
        assert rc == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["alpha", "y", "re", "im", "jacobian"]
        assert float(meta["reference_circle_radius"]) == pytest.approx((1 - 2 / 12) ** 12)
        assert rows.shape == (24 * 12, 5)
        assert np.all(rows[:, 4] >= 0)
        origin = rows[rows[:, 0] == 0.0]
        assert np.allclose(origin[:, 2], 1.0, atol=1e-12)
        assert np.allclose(origin[:, 3], 0.0, atol=1e-12)
        assert np.all(origin[:, 4] == 0.0)
        corner = rows[(rows[:, 0] == rows[:, 0].max()) & (rows[:, 1] == 1.0)]
        assert corner[0, 2] == pytest.approx(-((1 - 2 / 12) ** 12), abs=1e-12)
        assert corner[0, 3] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_table_matches_the_per_alpha_loop(self, tmp_path, n):
        out = tmp_path / "g.csv"
        main(
            ["gamma-image", "--n", str(n), "--alpha-samples", "33", "--y-samples", "17", "--out", str(out)]
        )
        ys = np.linspace(1.0, n - 1.0, 17)
        rows = []
        for a in np.linspace(0.0, np.pi, 33):
            zs = big_gamma(n, a, ys)
            jac = jacobian_big_gamma(n, np.full_like(ys, a), ys)
            rows.extend((a, ys[j], zs[j].real, zs[j].imag, jac[j]) for j in range(len(ys)))
        lines = out.read_text().splitlines()
        assert lines[lines.index("alpha,y,re,im,jacobian") + 1 :] == per_cell_table(rows)

    def test_underscore_alias(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(
            ["gamma_image", "--n", "5", "--alpha-samples", "4", "--y-samples", "4", "--out", str(out)]
        )
        assert rc == 0


class TestMembershipCommand:
    def test_inside_point(self, capsys):
        rc = main(["membership", "--n", "3", "--re", "0", "--im", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "polar=Inside" in out
        assert "winding=Inside" in out

    def test_boundary_point(self, capsys):
        rc = main(["membership", "--n", "3", "--re", "1", "--im", "0"])
        assert rc == 0
        assert "polar=OnBoundary" in capsys.readouterr().out

    def test_outside_point(self, capsys):
        rc = main(["membership", "--n", "3", "--re", "0.9", "--im", "0.4"])
        out = capsys.readouterr().out
        polar_status = out.split("polar=")[1].split()[0]
        winding_status = out.split("winding=")[1].split()[0]
        assert polar_status == winding_status
        assert rc == (1 if polar_status == "Outside" else 0)

    def test_non_finite_point_is_usage_error(self, capsys):
        rc = main(["membership", "--n", "3", "--re", "nan", "--im", "0"])
        assert rc == 2
        assert "z must be finite, got (nan+0j)" in capsys.readouterr().err

    def test_small_n_prints_single_oracle(self, capsys):
        rc = main(["membership", "--n", "2", "--re", "0.5", "--im", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "winding" not in out


class TestExtremalCommand:
    def test_alpha_mode_round_trips(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["extremal", "--n", "5", "--alpha", "1.2", "--seed", "7", "--out", str(out)])
        assert rc == 0
        meta, columns, rows = read_csv(out)
        u = rows[:, 0::2] + 1j * rows[:, 1::2]
        assert is_special_unitary(u, 1e-10)
        pd = complex(float(meta["diag_product_re"]), float(meta["diag_product_im"]))
        assert abs(pd - np.prod(np.diagonal(u))) <= 1e-12
        assert abs(pd - gamma(5, 1.2)) <= 1e-10
        assert float(meta["abs_error"]) <= 1e-10

    def test_theta_mode(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["extremal", "--n", "3", "--theta", "3.14159265", "--out", str(out)])
        assert rc == 0
        meta, _, rows = read_csv(out)
        pd = complex(float(meta["diag_product_re"]), float(meta["diag_product_im"]))
        assert pd.real == pytest.approx(-1 / 27, abs=1e-8)

    def test_zero_alpha_gives_diagonal(self, tmp_path):
        out = tmp_path / "e.csv"
        main(["extremal", "--n", "4", "--alpha", "0", "--out", str(out)])
        meta, _, rows = read_csv(out)
        u = rows[:, 0::2] + 1j * rows[:, 1::2]
        assert np.abs(u - np.diag(np.diagonal(u))).max() <= 1e-12
        pd = complex(float(meta["diag_product_re"]), float(meta["diag_product_im"]))
        assert abs(pd - 1.0) <= 1e-12

    def test_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--n", "4"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--n", "4", "--alpha", "1", "--theta", "1"])
        assert exc.value.code == 2


class TestPreimageCommand:
    def test_interior_point(self, capsys):
        rc = main(["preimage", "--n", "3", "--re", "0.1", "--im", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        residual = float(out.splitlines()[0].split("=")[1])
        assert residual <= 1e-9

    def test_spec_point_needs_larger_group(self, capsys):
        # 0.2+0.1i sits just outside the thin SU(3) region but inside SU(4)
        rc = main(["preimage", "--n", "4", "--re", "0.2", "--im", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.splitlines()[0].split("=")[1]) <= 1e-9

    def test_outside_point_is_usage_error(self, capsys):
        rc = main(["preimage", "--n", "3", "--re", "2", "--im", "0"])
        assert rc == 2

    def test_unconverged_solve_names_stages(self, monkeypatch, capsys):
        descend = verify_module._descend
        monkeypatch.setattr(
            verify_module, "_descend", lambda n, z, a, q: descend(n, z, a, q, max_iter=0)
        )
        rc = main(["preimage", "--n", "4", "--re", "0.2", "--im", "0.1"])
        assert rc == 4
        err = capsys.readouterr().err
        for stage in ("cusp seed", "boundary seed", "origin seed"):
            assert stage in err


class TestVerifyCommand:
    def test_montecarlo(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        rc = main(
            ["verify", "--kind", "montecarlo", "--n", "3", "--trials", "2000", "--seed", "42", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["failures"] == 0
        assert payload["parameters"]["seed"] == 42

    def test_so_kind(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            ["verify", "--kind", "so", "--n", "2", "--trials", "500", "--sweep", "2000", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())["report"]
        assert report["failures"] == 0

    def test_disk_kind(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            ["verify", "--kind", "disk", "--n", "4", "--trials", "500", "--grid", "11", "--out", str(out)]
        )
        assert rc == 0

    def test_disk_grid_without_a_point_in_the_disk_exits_2(self, capsys):
        # regression: --grid 2 checked no grid target and exited 0
        assert main(["verify", "--kind", "disk", "--n", "3", "--trials", "5", "--grid", "2"]) == 2
        assert "grid must be an integer >= 3, got 2" in capsys.readouterr().err

    def test_preimage_kind(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            ["verify", "--kind", "preimage", "--n", "3", "--trials", "5", "--tol", "1e-8", "--out", str(out)]
        )
        assert rc == 0

    # regression: a report whose best value overshot the analytic maximum
    # passed, so the command exited 0
    def test_constrainedmax_overshoot_exits_1(self, monkeypatch, tmp_path):
        radius = verify_module._radius_many

        def lowered(n, thetas):
            alpha, r = radius(n, thetas)
            return alpha, r - 1e-3

        monkeypatch.setattr(verify_module, "_radius_many", lowered)
        out = tmp_path / "v.json"
        rc = main(["verify", "--kind", "constrainedmax", "--n", "4", "--theta", "0.7", "--out", str(out)])
        assert rc == 1
        assert json.loads(out.read_text())["report"]["failures"] == 1

    def test_constrainedmax_requires_theta(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kind", "constrainedmax", "--n", "3"])
        assert exc.value.code == 2
        # regression: the top-level parser reported it, with its own usage
        err = capsys.readouterr().err
        assert err.startswith("usage: diagprod verify")
        assert "diagprod verify: error: --theta is required for --kind constrainedmax" in err

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("montecarlo", ["--n", "2", "--trials", "300"]),
            ("disk", ["--n", "3", "--trials", "50", "--grid", "5"]),
            ("so", ["--n", "4", "--trials", "50", "--sweep", "100"]),
            ("preimage", ["--n", "3", "--trials", "3", "--tol", "1e-8"]),
            ("constrainedmax", ["--n", "3", "--theta", "0.7"]),
        ],
        ids=["montecarlo", "disk", "so", "preimage", "constrainedmax"],
    )
    def test_byte_identical_reruns(self, tmp_path, kind, flags):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["verify", "--kind", kind, *flags, "--seed", "5", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["membership", "--n", "3", "--re", "5", "--im", "0"],
            ["preimage", "--n", "3", "--re", "0.5", "--im", "0.3"],
            ["verify", "--kind", "montecarlo", "--n", "3", "--trials", "20"],
            ["verify", "--kind", "preimage", "--n", "3", "--trials", "2"],
        ],
        ids=["membership", "preimage", "verify-montecarlo", "verify-preimage"],
    )
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    def test_garbage_tolerance_is_usage_error(self, argv, tol):
        # regression: --tol nan passed the Monte-Carlo run and --tol inf a
        # membership query for a point far outside
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={tol}"])
        assert exc.value.code == 2

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kind", "bogus", "--n", "3"])
        assert exc.value.code == 2

    def test_unwritable_report_exits_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        rc = main(["verify", "--kind", "so", "--n", "2", "--trials", "50", "--sweep", "100", "--out", str(out)])
        assert rc == 3
        assert "error: cannot write" in capsys.readouterr().err
        assert not out.exists()


class TestMatrixSizeFlag:
    # n is checked by the library alone, whose message names it
    @pytest.mark.parametrize(
        "argv, least",
        [
            (["boundary", "--samples", "8"], 1),
            (["gamma-image", "--alpha-samples", "3", "--y-samples", "2"], 3),
            (["membership", "--re", "0.1", "--im", "0"], 1),
            (["extremal", "--alpha", "0.5"], 1),
            (["extremal", "--theta", "0.5"], 3),
            (["preimage", "--re", "0.1", "--im", "0"], 3),
            (["verify", "--kind", "montecarlo", "--trials", "5"], 1),
            (["verify", "--kind", "preimage", "--trials", "2"], 3),
            (["verify", "--kind", "constrainedmax", "--theta", "0.5"], 3),
            (["verify", "--kind", "disk", "--trials", "5", "--grid", "3"], 2),
            (["verify", "--kind", "so", "--trials", "5", "--sweep", "10"], 2),
        ],
        ids=lambda v: " ".join(v[:3]) if isinstance(v, list) else str(v),
    )
    def test_n_below_the_minimum_exits_2_naming_it(self, capsys, argv, least):
        assert main([*argv, "--n", str(least - 1)]) == 2
        err = capsys.readouterr().err
        assert f"matrix size n must be an integer >= {least}, got {least - 1}" in err
        assert main([*argv, "--n", str(least)]) in (0, 1)


class TestModuleEntryPoint:
    """``python -m diagprod`` exits with the code that :func:`main` returns."""

    @staticmethod
    def run(*argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "diagprod", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_table_exits_0_with_mains_output(self, capsys):
        argv = ["boundary", "--n", "3", "--samples", "4"]
        done = self.run(*argv)
        assert done.returncode == 0
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out

    def test_outside_verdict_exits_1(self):
        assert self.run("membership", "--n", "4", "--re", "1.5", "--im", "0").returncode == 1

    def test_usage_error_exits_2(self):
        assert self.run("boundary", "--n", "3", "--samples", "1").returncode == 2
