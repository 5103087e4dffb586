import hashlib
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model import random_model

from tvfspec import ingest as ingest_module
from tvfspec.evaluate import McReport
from tvfspec.funspace import BasisSpec, kernel_grid
from tvfspec.ingest import (
    ParseError,
    RawSeries,
    model_document,
    model_from_document,
    project_to_basis,
    read_kernel_table,
    read_model,
    read_series,
    read_spectral_grid,
    render_grid,
    write_json,
    write_report,
    write_series,
    write_spectral_grid,
)
from tvfspec.model import InnovationSpec, TvFarmaModel, far1, far2
from tvfspec.spectrum import TWO_PI, SpectralGrid, truth_grid


def white(sigma):
    return TvFarmaModel(innovations=InnovationSpec(np.asarray(sigma, dtype=float)))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bits(values):
    """Bit patterns of a float or complex array: tells -0.0 from 0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


# Finite float64 values that stress formatting and parsing: signed zeros,
# subnormals, the extremes of the exponent range, and ordinary values.
edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
        2.2250738585072014e-308, -1.7976931348623157e308, 1e-300, 1e300,
        0.1, 1.0 / 3.0,
    ]),
)


class TestRawSeries:
    def test_length_and_storage(self):
        raw = RawSeries(grid=[0.0, 0.5, 1.0], data=np.zeros((4, 3)))
        assert raw.length == 4
        assert raw.grid.dtype == float

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            RawSeries(grid=[0.5], data=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="strictly increasing"):
            RawSeries(grid=[0.0, 0.6, 0.4], data=np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RawSeries(grid=[0.0, 1.2], data=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="match the grid"):
            RawSeries(grid=[0.0, 1.0], data=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            RawSeries(grid=[0.0, 1.0], data=np.array([[0.0, np.nan]]))


class TestSeriesFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = RawSeries(grid=np.sort(rng.uniform(0, 1, 6)), data=rng.standard_normal((5, 6)))
        path = tmp_path / "series.csv"
        write_series(raw, path)
        back = read_series(path)
        assert np.array_equal(back.grid, raw.grid)
        assert np.array_equal(back.data, raw.data)

    def test_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ParseError, match=r"bad\.csv:1: empty file"):
            read_series(path)
        path.write_text("# wrong header\n0,1\n0,0\n")
        with pytest.raises(ParseError, match=":1: expected header"):
            read_series(path)
        path.write_text("# tvfspec series v1\n0,0.5,1\n1,2,3\n4,5\n")
        with pytest.raises(ParseError, match=":4: expected 3 fields"):
            read_series(path)
        path.write_text("# tvfspec series v1\n0,0.5,1\n1,oops,3\n")
        with pytest.raises(ParseError, match=":3: non-numeric"):
            read_series(path)
        path.write_text("# tvfspec series v1\n0,0.5,1\n")
        with pytest.raises(ParseError, match="missing grid or data"):
            read_series(path)

    def test_bad_grid_reported_at_grid_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# tvfspec series v1\n0,0.7,0.5\n1,2,3\n")
        with pytest.raises(ParseError, match=":2: .*strictly increasing"):
            read_series(path)

    @given(
        data=st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_exact_for_any_finite_values(self, data):
        raw = RawSeries(grid=[0.0, 0.5, 1.0], data=np.asarray(data, dtype=float))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "series.csv")
            write_series(raw, path)
            assert np.array_equal(read_series(path).data, raw.data)

    @pytest.mark.parametrize("T", [1, 1023, 1024, 1025, 2500])
    def test_matches_row_at_a_time_formatting(self, tmp_path, T):
        # rows are written in blocks; the bytes must be those of one
        # "%.17g" row per line, whatever the block boundaries
        rng = np.random.default_rng(T)
        data = rng.standard_normal((T, 3)) * 10.0 ** rng.integers(-300, 300, (T, 3))
        data[0, :2] = [-0.0, 5e-324]
        raw = RawSeries(grid=[0.0, 0.25, 1.0], data=data)
        path = tmp_path / "series.csv"
        write_series(raw, path)
        rows = [",".join("%.17g" % v for v in row) for row in [raw.grid, *raw.data]]
        assert path.read_text() == "# tvfspec series v1\n" + "".join(r + "\n" for r in rows)


class TestProjection:
    def test_basis_functions_map_to_unit_vectors(self):
        basis = BasisSpec(size=4)
        grid = np.linspace(0.0, 1.0, 257)
        design = basis.evaluate(grid)
        raw = RawSeries(grid=grid, data=np.stack([design[:, 0], design[:, 1]]))
        out = project_to_basis(raw, basis)
        assert np.allclose(out.coefficients[0], [1, 0, 0, 0], atol=1e-8)
        assert np.allclose(out.coefficients[1], [0, 1, 0, 0], atol=1e-8)
        assert out.residuals.max() < 1e-8

    def test_ramp_residual_matches_truncation_error(self):
        # projecting tau leaves exactly the tail of its sine expansion
        basis = BasisSpec(size=15)
        grid = np.linspace(0.0, 1.0, 1025)
        raw = RawSeries(grid=grid, data=grid[None, :])
        out = project_to_basis(raw, basis)
        tail = 1.0 / 12.0 - sum(1.0 / (2.0 * np.pi**2 * l**2) for l in range(1, 8))
        assert out.residuals[0] == pytest.approx(np.sqrt(tail), abs=1e-3)

    def test_under_determined_rejected(self):
        basis = BasisSpec(size=8)
        raw = RawSeries(grid=[0.0, 0.3, 0.6, 1.0], data=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="under-determined"):
            project_to_basis(raw, basis)


class TestSpectralGridFiles:
    def test_coeff_round_trip(self, tmp_path):
        grid = truth_grid(far1(size=3), [0.25, 0.75], np.linspace(-3.0, 3.0, 4))
        path = tmp_path / "grid.csv"
        write_spectral_grid(grid, path)
        back = read_spectral_grid(path)
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.u, grid.u)
        assert np.array_equal(back.omega, grid.omega)
        assert back.provenance == "truth"

    def test_tampered_files_rejected(self, tmp_path):
        grid = truth_grid(white([1.0, 0.5]), [0.5], [0.0, 1.0])
        path = tmp_path / "grid.csv"
        write_spectral_grid(grid, path)
        lines = path.read_text().split("\n")

        swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
        path.write_text("\n".join(swapped))
        with pytest.raises(ParseError, match="order"):
            read_spectral_grid(path)

        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ParseError, match="data rows"):
            read_spectral_grid(path)

        bad_prov = [lines[0], lines[1].replace("truth", "mystery")] + lines[2:]
        path.write_text("\n".join(bad_prov))
        with pytest.raises(ParseError, match="unknown provenance"):
            read_spectral_grid(path)

        path.write_text("\n".join([lines[0]] + lines[2:]))
        with pytest.raises(ParseError, match=":2: missing metadata line"):
            read_spectral_grid(path)

        bad_meta = [lines[0], lines[1].replace("dim 2", "dim two")] + lines[2:]
        path.write_text("\n".join(bad_meta))
        with pytest.raises(ParseError, match=":2: bad metadata line"):
            read_spectral_grid(path)

    def test_inconsistent_axis_values_rejected(self, tmp_path):
        # 2 u x 2 omega x 2 x 2 coefficients, four rows per (u, omega) block;
        # data row r is file line r + 2
        grid = truth_grid(white([1.0, 0.5]), [0.25, 0.75], [0.0, 1.0])
        path = tmp_path / "grid.csv"
        write_spectral_grid(grid, path)
        lines = path.read_text().split("\n")
        for row, field, name in ((4, 0, "u"), (6, 1, "omega"), (13, 1, "omega")):
            tampered = list(lines)
            parts = tampered[row + 1].split(",")
            parts[field] = "0.5"
            tampered[row + 1] = ",".join(parts)
            path.write_text("\n".join(tampered))
            with pytest.raises(ParseError, match=rf":{row + 2}: {name} 0.5 differs"):
                read_spectral_grid(path)

    def test_kernel_layout(self, tmp_path):
        sigma = np.array([1.0, 0.5, 0.25])
        grid = truth_grid(white(sigma), [0.5], [0.7])
        path = tmp_path / "kernel.csv"
        taus = render_grid(9)
        write_spectral_grid(grid, path, mode="kernel", taus=taus)
        table = read_kernel_table(path)
        assert table.shape == (9 * 9, 7)
        # amplitude column is the modulus of (re, im)
        assert np.allclose(table[:, 6], np.hypot(table[:, 4], table[:, 5]), atol=1e-12)
        # hermitian operator: swapping (tau, sigma) conjugates the kernel
        ker = table[:, 4].reshape(9, 9) + 1j * table[:, 5].reshape(9, 9)
        assert np.abs(ker - np.conj(ker.T)).max() < 1e-12
        # diagonal innovation covariance: kernel is the weighted basis sum
        basis = BasisSpec(size=3)
        at = basis.evaluate(taus)
        expected = (at * sigma**2) @ at.T / TWO_PI
        assert np.abs(ker - expected).max() < 1e-10

    def test_prerendered_kernels_write_the_same_bytes(self, tmp_path):
        grid = truth_grid(far1(size=5), [0.3, 0.6], [-1.0, 0.4, 2.5])
        basis = BasisSpec(size=5)
        taus = render_grid(7)
        inside, given = tmp_path / "inside.csv", tmp_path / "given.csv"
        write_spectral_grid(grid, inside, mode="kernel", taus=taus)
        # one render of the whole (u, omega) stack
        kernels = kernel_grid(grid.values, basis, taus, taus)
        assert kernels.shape == (2, 3, 7, 7)
        write_spectral_grid(grid, given, mode="kernel", taus=taus, kernels=kernels)
        assert given.read_bytes() == inside.read_bytes()

    def test_kernel_header_required(self, tmp_path):
        grid = truth_grid(white([1.0]), [0.5], [0.0])
        coeff_path = tmp_path / "coeff.csv"
        write_spectral_grid(grid, coeff_path)
        with pytest.raises(ParseError, match="expected header"):
            read_kernel_table(coeff_path)
        with pytest.raises(ValueError, match="unknown grid mode"):
            write_spectral_grid(grid, tmp_path / "x.csv", mode="surface")
        with pytest.raises(ValueError, match="kernel mode needs the render axis taus"):
            write_spectral_grid(grid, tmp_path / "y.csv", mode="kernel")
        assert not (tmp_path / "y.csv").exists()

    def test_retired_periodogram_provenance_rejected(self, tmp_path):
        grid = truth_grid(white([1.0]), [0.5], [0.0])
        path = tmp_path / "grid.csv"
        write_spectral_grid(grid, path)
        lines = path.read_text().split("\n")
        lines[1] = lines[1].replace("truth", "periodogram")
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=r"grid\.csv:2: unknown provenance 'periodogram'"):
            read_spectral_grid(path)

    @given(data=st.data(), dim=st.sampled_from([1, 2, 4]),
           nu=st.integers(1, 3), nw=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_coeff_round_trip_exact_for_any_finite_values(self, data, dim, nu, nw):
        grid = random_grid(data, dim, nu, nw)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            write_spectral_grid(grid, path)
            back = read_spectral_grid(path)
        assert np.array_equal(bits(back.u), bits(grid.u))
        assert np.array_equal(bits(back.omega), bits(grid.omega))
        assert np.array_equal(bits(back.values), bits(grid.values))
        assert back.provenance == grid.provenance

    @given(data=st.data(), dim=st.sampled_from([1, 2, 4]),
           nu=st.integers(1, 3), nw=st.integers(1, 4), render=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_block_writer_matches_row_at_a_time_formatting(self, data, dim, nu, nw, render):
        grid = random_grid(data, dim, nu, nw)
        basis = BasisSpec(size=dim)
        taus = render_grid(render)
        # render 9 gives 81 rows per block, past one write block; extreme
        # entries overflow the rendered kernel, and both sides must agree
        with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
            path = os.path.join(tmp, "grid.csv")
            write_spectral_grid(grid, path)
            with open(path) as fh:
                assert fh.read() == reference_grid_text(grid, "coeff")
            write_spectral_grid(grid, path, mode="kernel", taus=taus)
            with open(path) as fh:
                assert fh.read() == reference_grid_text(grid, "kernel", basis, taus)


def retyped(line, field, text):
    """Edit: field ``field`` of file line ``line`` replaced by ``text``."""
    def edit(lines):
        parts = lines[line - 1].split(",")
        parts[field] = text
        lines[line - 1] = ",".join(parts)
    return edit


def truncated(line):
    """Edit: file line ``line`` loses its last field."""
    def edit(lines):
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0]
    return edit


def swapped(first, second):
    """Edit: file lines ``first`` and ``second`` trade places."""
    def edit(lines):
        lines[first - 1], lines[second - 1] = lines[second - 1], lines[first - 1]
    return edit


TABLE_READERS = {"series": (read_series, 3), "coeff": (read_spectral_grid, 6),
                 "kernel": (read_kernel_table, 7)}


# Series: grid on line 2, data rows on lines 3-5.  Grids: 2 u x 2 omega
# blocks of 2 x 2 coefficients (coeff, lines 3-18) or 3 x 3 render points
# (kernel), u = 0.25, 0.75 and omega = 0, 1.
@pytest.mark.parametrize("kind, edits, line, reason", [
    *[(kind, [truncated(4)], 4, f"expected {width} fields, got {width - 1}")
      for kind, (_, width) in TABLE_READERS.items()],
    *[(kind, [retyped(4, 1, "x")], 4, "non-numeric field in '[^']*,x,")
      for kind in TABLE_READERS],
    # float() reads 1_0 as 10; numpy's number syntax does not
    *[(kind, [retyped(5, 2, "1_0")], 5, "non-numeric field in '[^']*,1_0")
      for kind in TABLE_READERS],
    ("series", [retyped(2, 0, "")], 2, "non-numeric field in ',0.5,1'"),
    ("coeff", [swapped(4, 5)], 4, r"rows out of nested \(u, omega, i, j\) order"),
    ("coeff", [retyped(7, 0, "0.5")], 7, "u 0.5 differs from 0.25 in earlier rows"),
    ("coeff", [retyped(11, 1, "0.5")], 11, "omega 0.5 differs from 0 in earlier rows"),
    # a field error is reported before an order error on an earlier line
    ("coeff", [swapped(4, 5), retyped(9, 4, "x")], 9, "non-numeric field"),
], ids=[*(f"{kind}-{case}" for case in ("fields", "text", "1_0") for kind in TABLE_READERS),
        "series-grid", "coeff-swapped", "coeff-u", "coeff-omega", "coeff-fields-first"])
def test_tampered_tables_name_the_first_bad_line(tmp_path, kind, edits, line, reason):
    path = tmp_path / f"{kind}.csv"
    if kind == "series":
        write_series(RawSeries(grid=[0.0, 0.5, 1.0], data=np.arange(9.0).reshape(3, 3)), path)
    else:
        grid = truth_grid(white([1.0, 0.5]), [0.25, 0.75], [0.0, 1.0])
        write_spectral_grid(grid, path, mode=kind, taus=render_grid(3))
    lines = path.read_text().split("\n")
    for edit in edits:
        edit(lines)
    path.write_text("\n".join(lines))
    read, _ = TABLE_READERS[kind]
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:{line}: {reason}") as exc:
        read(path)
    assert exc.value.line == line


def random_grid(data, dim, nu, nw):
    floats = lambda n: np.array(data.draw(st.lists(edge_floats, min_size=n, max_size=n)))
    # set real and imaginary parts apart: re + 1j * im would lose signed zeros
    values = np.empty((nu, nw, dim, dim), dtype=complex)
    values.real = floats(values.size).reshape(values.shape)
    values.imag = floats(values.size).reshape(values.shape)
    return SpectralGrid(u=floats(nu), omega=floats(nw), values=values,
                        provenance=data.draw(st.sampled_from(["truth", "smoothed"])))


def reference_grid_text(grid, mode, basis=None, taus=None):
    """One "%.17g" row per line, scalar abs(): the layout the writer must keep."""
    dim = grid.values.shape[-1]
    lines = [
        f"# tvfspec spectral-grid {mode} v1",
        f"# u {grid.u.size} omega {grid.omega.size} dim {dim} provenance {grid.provenance}",
    ]
    for iu, u in enumerate(grid.u):
        for iw, omega in enumerate(grid.omega):
            mat = grid.values[iu, iw]
            if mode == "coeff":
                for i in range(dim):
                    for j in range(dim):
                        z = mat[i, j]
                        lines.append("%.17g,%.17g,%d,%d,%.17g,%.17g"
                                     % (u, omega, i, j, z.real, z.imag))
            else:
                ker = kernel_grid(mat, basis, taus, taus)
                for i, tau in enumerate(taus):
                    for j, sigma in enumerate(taus):
                        z = ker[i, j]
                        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                                     % (u, omega, tau, sigma, z.real, z.imag, abs(z)))
    return "".join(line + "\n" for line in lines)


def formatted(values):
    """Texts of the block formatter, one per entry."""
    canvas = ingest_module._format(np.asarray(values, dtype=float))
    return [col.tobytes().translate(None, b"\0").decode() for col in canvas.T]


def percent_g17(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


class TestBlockFormatter:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert formatted(values) == percent_g17(values)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        assert formatted(values) == percent_g17(values)

    @given(st.lists(st.floats(1e-4, 1e17), min_size=1, max_size=64), st.data())
    @settings(max_examples=300, deadline=None)
    def test_fixed_notation_range(self, values, data):
        # random bit patterns seldom land in -4 <= exponent <= 16, the exact path
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(values),
                                   max_size=len(values)))
        values = np.array(values) * signs
        assert formatted(values) == percent_g17(values)

    def test_signed_zeros_and_powers_of_ten_with_neighbours(self):
        powers = 10.0 ** np.arange(-30, 31)
        values = np.concatenate([[0.0, -0.0], powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        assert formatted(values) == percent_g17(values)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, np.inf, -np.inf, np.nan,
        9.99e-5, -1e17, 3.5e21, 5e-324, -1.7976931348623157e308,
        np.nextafter(1e-3, 0.0), np.nextafter(1e16, 0.0), 1.0,
        (1e14 + 1) / 32, -(1e14 + 3) / 32,
    ], ids=["zero", "negative_zero", "inf", "negative_inf", "nan",
            "below_range", "above_range", "far_above_range", "subnormal", "most_negative",
            "estimate_high_small", "estimate_high_large", "product_at_1e16",
            "tie", "negative_tie"])
    def test_fallback_branches(self, value):
        exp, sig, exact = ingest_module._significand(np.array([value]))
        assert not exact[0]
        assert formatted([value, 0.5]) == percent_g17([value, 0.5])

    def test_fallback_branches_are_the_named_ones(self):
        # the log10 estimate of a value just below a power of ten rounds up
        below = np.nextafter(np.array([1e-3, 1e16]), 0.0)
        assert np.array_equal(np.floor(np.log10(below)), [-3.0, 16.0])
        # |v| 10**(16 - e), e = 12, is exactly halfway between two integers
        assert (Fraction((1e14 + 1) / 32) * 10**4).denominator == 2
        exp, sig, exact = ingest_module._significand(np.array([0.3, -2.5e-4, 123.456, 9.87e15]))
        assert exact.all() and np.array_equal(exp, [-1, -4, 2, 15])

    def test_no_runtime_warning_for_zeros_inf_and_nan(self, tmp_path):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5])
        values = np.empty((1, 2, 3, 3), dtype=complex)
        values.real = np.resize(special, 18).reshape(1, 2, 3, 3)
        values.imag = np.resize(special[::-1], 18).reshape(1, 2, 3, 3)
        grid = SpectralGrid(u=np.array([0.0]), omega=np.array([-0.0, np.nan]), values=values,
                            provenance="smoothed")
        taus = render_grid(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_spectral_grid(grid, tmp_path / "coeff.csv")
            write_spectral_grid(grid, tmp_path / "kernel.csv", mode="kernel", taus=taus,
                                kernels=values)
            write_series(RawSeries(grid=taus, data=np.zeros((4, 3))), tmp_path / "series.csv")
        assert (tmp_path / "coeff.csv").read_text() == reference_grid_text(grid, "coeff")
        assert (tmp_path / "series.csv").read_text().split("\n")[1:-1] == ["0,0.5,1"] + ["0,0,0"] * 4

    def test_one_kernel_slice_is_written_in_blocks(self, tmp_path):
        model = far2()
        grid = truth_grid(model, [0.3], [1.2])
        taus = render_grid(64)
        kernels = kernel_grid(grid.values, model.basis, taus, taus)
        path = tmp_path / "slice.csv"
        # the first write caches the (tau, sigma) columns
        write_spectral_grid(grid, path, mode="kernel", taus=taus, kernels=kernels)
        tracemalloc.start()
        try:
            write_spectral_grid(grid, path, mode="kernel", taus=taus, kernels=kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # formatting the 4096 rows as one block peaks near 5x the file's bytes
        assert peak < 2 * path.stat().st_size


class TestGoldenBytes:
    """SHA-256 of files written before the block writers replaced the row loops.

    A changed hash means a changed on-disk format: that needs a new version
    header, not a new hash.
    """

    def test_kernel_layout(self, tmp_path):
        model = far2()
        grid = truth_grid(model, [0.25, 0.75], [0.0, 1.0, 2.5])
        path = tmp_path / "kernel.csv"
        write_spectral_grid(grid, path, mode="kernel", taus=render_grid(64))
        assert sha256(path) == "4b9ba1b25ad3f1ed5646c1b86f26780b5124fa17e2370d53cfcff49d862efab4"

    def test_coeff_layout(self, tmp_path):
        path = tmp_path / "coeff.csv"
        grid = truth_grid(far1(size=3), [0.25, 0.5, 0.75], np.linspace(-np.pi, np.pi, 4))
        write_spectral_grid(grid, path)
        assert sha256(path) == "73585541fe7b7cf6289cb20948101280b0033d95456f0a1b81ffc83c9ab978e0"
        write_spectral_grid(truth_grid(far2(), [0.25, 0.75], [0.0, 1.0, 2.5]), path)
        assert sha256(path) == "a6e12668479968d4b1c86eacbc93ed8237f7871080cda92710fb2df44b598679"

    def test_series(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = RawSeries(grid=np.linspace(0, 1, 17), data=rng.standard_normal((50, 17)))
        path = tmp_path / "series.csv"
        write_series(raw, path)
        assert sha256(path) == "b1a7000c62a69f69a06eefc45b6ba7f2bcedf97adc327aae36468e73c7efab40"


class TestModelDocuments:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 4]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        doc_seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
    )
    def test_round_trip(self, seed, dim, m, n, with_c, doc_seed):
        model = random_model(seed, dim, m, n, with_c)
        sigma = np.random.default_rng(seed).uniform(0.0, 2.0, dim)
        model = TvFarmaModel(ar=model.ar, ma=model.ma, c=model.c, innovations=InnovationSpec(sigma))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            write_json(model_document(model, seed=doc_seed), path)
            back, back_seed = read_model(path)
        assert back_seed == doc_seed
        assert back.innovations.sigma.tobytes() == sigma.tobytes()
        assert (back.c is None) == (model.c is None)
        pairs = list(zip(back.ar + back.ma, model.ar + model.ma))
        assert len(pairs) == m + n and (back.ar_order, back.ma_order) == (m, n)
        if model.c is not None:
            pairs.append((back.c, model.c))
        for got, want in pairs:
            assert got.knots.tobytes() == want.knots.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        model = far1(size=3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(model_document(model, seed=1), a)
        write_json(model_document(model, seed=1), b)
        assert a.read_bytes() == b.read_bytes()

    def test_document_validation(self, tmp_path):
        doc = model_document(far1(size=3), seed=0)
        wrong_format = dict(doc, format="other")
        with pytest.raises(ValueError, match="not a tvfspec-model"):
            model_from_document(wrong_format)
        wrong_version = dict(doc, version=99)
        with pytest.raises(ValueError, match="unsupported model document version"):
            model_from_document(wrong_version)
        wrong_order = dict(doc, ar_order=2)
        with pytest.raises(ValueError, match="declared orders"):
            model_from_document(wrong_order)
        path = tmp_path / "broken.json"
        path.write_text('{"format": "tvfspec-model",\n  "version": oops\n}')
        with pytest.raises(ParseError, match="broken"):
            read_model(path)


class TestReports:
    def test_write_report_deterministic(self, tmp_path):
        rep = McReport(name="demo", seed=0, replications=2)
        rep.quantities = {"value": 1.5}
        rep.passes = {"ok": True}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(rep, a)
        write_report(rep, b)
        assert a.read_bytes() == b.read_bytes()
        decoded = json.loads(a.read_text())
        assert decoded["passed"] is True
