"""Discrete functional data ingestion and the on-disk formats.

Functions observed on a grid enter as ``RawSeries`` and leave as basis
coefficient rows via least-squares projection (the fit residual is always
reported, never hidden).  Everything the pipeline writes is versioned,
deterministic, delimited text: series files, spectral grid tables (coefficient
or rendered-kernel layout), model documents (JSON), and evaluation reports.
All floats are written with 17 significant digits so write -> read round trips
are exact for float64.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .funspace import BasisSpec, kernel_grid
from .model import InnovationSpec, OperatorCurve, TvFarmaModel
from .spectrum import PROVENANCES, SpectralGrid

SERIES_HEADER = "# tvfspec series v1"
GRID_HEADERS = {
    "coeff": "# tvfspec spectral-grid coeff v1",
    "kernel": "# tvfspec spectral-grid kernel v1",
}
MODEL_FORMAT = "tvfspec-model"
MODEL_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; message names the file and 1-based line."""

    def __init__(self, path, line, reason):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {reason}")


# Every float is written as "%.17g" (exact float64 round trips).  Rows are
# formatted and written in blocks of at most _BLOCK_ROWS, one ``%`` call per
# block: formatting row by row in Python dominated the cost of writing.
# Small blocks write as fast as whole 64 x 64 kernels but keep every
# temporary string small, which the allocator reuses; 1024-row blocks raised
# the peak RSS of ``reproduce far2 --T 512`` from 56 to 64 MB.
_FLOAT = "%.17g"
_BLOCK_ROWS = 64


def _fields(count):
    return ",".join([_FLOAT] * count)


def _write_rows(fh, templates, values, prefix=""):
    """Write ``prefix`` + ``templates[r]`` filled from row r of ``values``."""
    for start in range(0, len(templates), _BLOCK_ROWS):
        text = prefix + prefix.join(templates[start:start + _BLOCK_ROWS])
        fh.write(text % tuple(values[start:start + _BLOCK_ROWS].ravel().tolist()))


@functools.lru_cache(maxsize=8)
def _grid_rows(first, second, count):
    """Row templates of one (u, omega) block of a spectral grid file.

    Row (a, b) is "a,b," followed by ``count`` float fields: the leading
    columns (render axes or coefficient indices) are formatted once per
    axis pair, not once per block.
    """
    tail = _fields(count) + "\n"
    return tuple(f"{_FLOAT % a},{_FLOAT % b},{tail}" for a in first for b in second)


@dataclass(frozen=True)
class RawSeries:
    """Functional observations sampled on a shared grid.

    ``grid`` holds M strictly increasing points in [0, 1]; ``data`` is the
    T x M matrix whose row t is X_t on that grid.  Missing entries are out
    of scope, so everything must be finite.
    """

    grid: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        data = np.asarray(self.data, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two points")
        if np.any(grid < 0.0) or np.any(grid > 1.0):
            raise ValueError("grid points must lie in [0, 1]")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if data.ndim != 2 or data.shape[1] != grid.size:
            raise ValueError(
                f"data must be T x {grid.size} to match the grid, got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", data)

    @property
    def length(self):
        return self.data.shape[0]


@dataclass(frozen=True)
class ProjectionResult:
    """Basis coefficients plus the per-row L2 fit residual."""

    coefficients: np.ndarray
    residuals: np.ndarray


def project_to_basis(raw, basis):
    """Project each observed row onto the span of the basis on the grid.

    Solves the per-row least-squares problem against the basis evaluated on
    the grid, which is exact for data in the span.  Returns a
    ``ProjectionResult`` whose residuals are L2 norms of data minus fit
    (trapezoid rule on the grid), so in-span data shows residuals at
    rounding level.
    """
    design = basis.evaluate(raw.grid)
    m, k = design.shape
    if m < k:
        raise ValueError(
            f"under-determined projection: {m} grid points for {k} basis functions"
        )
    coeffs = np.linalg.lstsq(design, raw.data.T, rcond=None)[0].T
    resid = raw.data - coeffs @ design.T
    residuals = np.sqrt(np.trapezoid(resid**2, raw.grid, axis=1))
    return ProjectionResult(coefficients=coeffs, residuals=residuals)


def write_series(raw, path):
    """Write a versioned delimited-text series file: grid row, then data rows."""
    row = _fields(raw.grid.size) + "\n"
    with open(path, "w") as fh:
        fh.write(SERIES_HEADER + "\n")
        _write_rows(fh, (row,), raw.grid[None, :])
        _write_rows(fh, (row,) * raw.length, raw.data)


def _numeric_row(path, number, line, width=None):
    parts = line.split(",")
    if width is not None and len(parts) != width:
        raise ParseError(path, number, f"expected {width} fields, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(path, number, f"non-numeric field in {line!r}") from None


def read_series(path):
    """Parse a series file back into a ``RawSeries``; errors name the line."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(path, 1, "empty file, expected a header line")
    if lines[0].strip() != SERIES_HEADER:
        raise ParseError(path, 1, f"expected header {SERIES_HEADER!r}")
    if len(lines) < 3:
        raise ParseError(path, len(lines) + 1, "missing grid or data rows")
    grid = _numeric_row(path, 2, lines[1])
    rows = [
        _numeric_row(path, number, line, width=grid.size)
        for number, line in enumerate(lines[2:], start=3)
    ]
    try:
        return RawSeries(grid=grid, data=np.vstack(rows))
    except ValueError as exc:
        raise ParseError(path, 2, str(exc)) from None


def render_grid(count=64):
    """Default uniform [0, 1] render axis for kernel-layout output."""
    return np.linspace(0.0, 1.0, count)


def write_spectral_grid(grid, path, mode="coeff", basis=None, taus=None, kernels=None):
    """Write a spectral grid as long-format delimited text.

    ``coeff`` rows are (u, omega, i, j, Re, Im) over the stored basis
    coefficients, zero-based indices.  ``kernel`` rows are
    (u, omega, tau, sigma, Re, Im, abs) with the operator rendered as a
    kernel on the taus x taus grid (default 64 uniform points); the abs column
    is the amplitude surface contour plots display.  Rows are emitted in
    nested (u, omega, first index, second index) order, one u at a time.
    ``kernels``, shape (len(u), len(omega), len(taus), len(taus)), passes the
    grid already rendered by ``kernel_grid`` on ``taus``; ``basis`` is then
    unused.
    """
    if mode not in GRID_HEADERS:
        raise ValueError(f"unknown grid mode {mode!r}")
    if mode == "kernel":
        if basis is None:
            basis = BasisSpec(size=grid.values.shape[-1])
        taus = render_grid() if taus is None else np.asarray(taus, dtype=float)
    dim = grid.values.shape[-1]
    if mode == "coeff":
        rows = _grid_rows(tuple(range(dim)), tuple(range(dim)), 2)
    else:
        rows = _grid_rows(tuple(taus.tolist()), tuple(taus.tolist()), 3)
    with open(path, "w") as fh:
        fh.write(GRID_HEADERS[mode] + "\n")
        fh.write(
            f"# u {grid.u.size} omega {grid.omega.size} dim {dim} "
            f"provenance {grid.provenance}\n"
        )
        for iu, u in enumerate(grid.u):
            for iw, omega in enumerate(grid.omega):
                mat = grid.values[iu, iw]
                if mode == "coeff":
                    columns = [mat.real, mat.imag]
                else:
                    if kernels is None:
                        ker = kernel_grid(mat, basis, taus, taus)
                    else:
                        ker = kernels[iu, iw]
                    # np.hypot, not np.abs: the vectorised complex abs can
                    # differ from the scalar abs() in the last digit
                    columns = [ker.real, ker.imag, np.hypot(ker.real, ker.imag)]
                values = np.stack(columns, axis=-1).reshape(len(rows), -1)
                _write_rows(fh, rows, values, prefix=f"{_FLOAT % u},{_FLOAT % omega},")


def _grid_meta(path, line):
    parts = line.lstrip("# ").split()
    # layout: u <nu> omega <nw> dim <K> provenance <name>
    try:
        meta = dict(zip(parts[0::2], parts[1::2]))
        return int(meta["u"]), int(meta["omega"]), int(meta["dim"]), meta["provenance"]
    except (KeyError, ValueError, IndexError):
        raise ParseError(path, line=2, reason=f"bad metadata line {line!r}") from None


def read_spectral_grid(path):
    """Read a coeff-layout grid file back into a ``SpectralGrid``.

    The data rows are parsed in one numpy call and their order and u/omega
    columns checked as arrays; only rows that fail either are rescanned one
    by one, so every error names its first bad line.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(path, 1, "empty file, expected a header line")
    if lines[0].strip() != GRID_HEADERS["coeff"]:
        raise ParseError(path, 1, f"expected header {GRID_HEADERS['coeff']!r}")
    if len(lines) < 2 or not lines[1].startswith("#"):
        raise ParseError(path, 2, "missing metadata line")
    nu, nw, dim, provenance = _grid_meta(path, lines[1])
    if provenance not in PROVENANCES:
        raise ParseError(path, 2, f"unknown provenance {provenance!r}")
    expected = nu * nw * dim * dim
    if len(lines) - 2 != expected:
        raise ParseError(
            path, len(lines), f"expected {expected} data rows, got {len(lines) - 2}"
        )
    block = _parse_grid_block(lines[2:], nu, nw, dim)
    if block is None:
        block = _parse_grid_rows(path, lines[2:], nu, nw, dim)
    return SpectralGrid(*block, provenance=provenance)


def _parse_grid_block(rows, nu, nw, dim):
    """(u, omega, values) parsed in one call, or None if any row needs a closer look."""
    if not rows:
        return None  # np.loadtxt warns on empty input; the row scan needs no parse
    try:
        # comments=None: a "#" inside a data row is an error, not a comment
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(rows), 6):
        return None
    table = table.reshape(nu, nw, dim, dim, 6)
    index = np.arange(dim)
    # the first row of each u block fixes u, the first u block fixes omega
    u = table[:, 0, 0, 0, 0]
    omega = table[0, :, 0, 0, 1]
    if not (np.all(table[..., 2] == index[:, None]) and np.all(table[..., 3] == index)
            and np.all(table[..., 0] == u[:, None, None, None])
            and np.all(table[..., 1] == omega[:, None, None])):
        return None
    values = np.empty((nu, nw, dim, dim), dtype=complex)
    # parts assigned apart, not re + 1j * im, which loses a signed zero
    values.real = table[..., 4]
    values.imag = table[..., 5]
    return u.copy(), omega.copy(), values


def _parse_grid_rows(path, rows, nu, nw, dim):
    """(u, omega, values) parsed row by row; raises at the first bad line."""
    u = np.empty(nu)
    omega = np.empty(nw)
    values = np.empty((nu, nw, dim, dim), dtype=complex)
    per_omega = dim * dim
    per_u = nw * per_omega
    for number, line in enumerate(rows, start=3):
        row = _numeric_row(path, number, line, width=6)
        flat = number - 3
        iu, rest = divmod(flat, per_u)
        iw, rest = divmod(rest, per_omega)
        i, j = divmod(rest, dim)
        if (int(row[2]), int(row[3])) != (i, j):
            raise ParseError(path, number, "rows out of nested (u, omega, i, j) order")
        # the first row of each u block fixes u, the first u block fixes omega
        if iw == i == j == 0:
            u[iu] = row[0]
        elif row[0] != u[iu]:
            raise ParseError(
                path, number, f"u {row[0]:.17g} differs from {u[iu]:.17g} in earlier rows"
            )
        if iu == i == j == 0:
            omega[iw] = row[1]
        elif row[1] != omega[iw]:
            raise ParseError(
                path, number, f"omega {row[1]:.17g} differs from {omega[iw]:.17g} in earlier rows"
            )
        # complex(re, im), not re + 1j * im, which loses a signed zero
        values[iu, iw, i, j] = complex(row[4], row[5])
    return u, omega, values


def read_kernel_table(path):
    """Read a kernel-layout grid file as a plain (rows, 7) float array."""
    with open(path) as fh:
        first = fh.readline().strip()
    if first != GRID_HEADERS["kernel"]:
        raise ParseError(path, 1, f"expected header {GRID_HEADERS['kernel']!r}")
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _curve_doc(curve):
    return {
        "knots": curve.knots.tolist(),
        "values": [mat.ravel().tolist() for mat in curve.values],
    }


def _curve_from_doc(doc, dim):
    knots = np.asarray(doc["knots"], dtype=float)
    values = np.array(
        [np.asarray(mat, dtype=float).reshape(dim, dim) for mat in doc["values"]]
    )
    return OperatorCurve(knots=knots, values=values)


def model_document(model, seed=None):
    """JSON-ready dict for a model: orders, knots, row-major matrices, sigma."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dim": model.dim,
        "ar_order": model.ar_order,
        "ma_order": model.ma_order,
        "ar": [_curve_doc(c) for c in model.ar],
        "ma": [_curve_doc(c) for c in model.ma],
        "c": None if model.c is None else _curve_doc(model.c),
        "sigma": model.innovations.sigma.tolist(),
        "seed": seed,
    }


def write_model(model, path, seed=None):
    with open(path, "w") as fh:
        json.dump(model_document(model, seed=seed), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def model_from_document(doc):
    """Rebuild a ``TvFarmaModel`` from its document; returns (model, seed)."""
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    dim = int(doc["dim"])
    ar = tuple(_curve_from_doc(c, dim) for c in doc["ar"])
    ma = tuple(_curve_from_doc(c, dim) for c in doc["ma"])
    c = doc.get("c")
    model = TvFarmaModel(
        ar=ar,
        ma=ma,
        c=None if c is None else _curve_from_doc(c, dim),
        innovations=InnovationSpec(np.asarray(doc["sigma"], dtype=float)),
    )
    if model.ar_order != int(doc["ar_order"]) or model.ma_order != int(doc["ma_order"]):
        raise ValueError("declared orders disagree with the stored curves")
    return model, doc.get("seed")


def read_model(path):
    """Read a model document; returns (model, seed)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, exc.msg) from None
    return model_from_document(doc)


def write_report(report, path):
    """Write an evaluation report as deterministic JSON."""
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
