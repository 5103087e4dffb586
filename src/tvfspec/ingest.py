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
import math
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


# Every float is written byte for byte as "%.17g" would write it (exact
# float64 round trips), but a block of values at a time: ``_format`` lays out
# the fixed-notation cases, -4 <= exponent <= 16, with numpy and hands every
# other entry to ``%`` itself.  Blocks hold whole rows and at most
# _BLOCK_VALUES values: larger blocks spill the (width, n) canvas out of the
# CPU caches and raise the peak RSS of ``reproduce far2 --T 512``.
_FLOAT = "%.17g"
_BLOCK_VALUES = 3072
# sign, "0.000" prefix, 17 digits with a point slot after each but the last;
# every "%.17g" text, at most 24 bytes, fits
_WIDTH = 39
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")


def _dekker_split(a):
    """(hi, lo) with hi + lo == a and both halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _byte_rows(texts):
    """Read-only (len(texts), width) uint8 block of NUL-padded ASCII rows."""
    block = np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)
    block.flags.writeable = False
    return block


# 10**s for the shifts s = 16 - exponent of the fixed-notation range; every
# one is exact in float64, so the Dekker product below is the exact product.
_POW10 = 10.0 ** np.arange(21)
_POW10_HI, _POW10_LO = _dekker_split(_POW10)
# _QUADS[:, q] holds the four ASCII digits of q; _TRAILING[q] its trailing zeros
_QUADS = (np.arange(10000, dtype=np.int16) // np.array([[1000], [100], [10], [1]], dtype=np.int16)
          % 10 + _ZERO).astype(np.uint8)
_TRAILING = np.logical_and.accumulate(_QUADS[::-1] == _ZERO).sum(axis=0)
# sign and "0.000" prefix rows, column e + 4 + 21 * negative for exponent e
_LEAD = _byte_rows([sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"").ljust(5, b"\0")
                    for sign in (b"\0", b"-") for e in range(-4, 17)]).T
_DIGIT = np.arange(17)[:, None]


def _significand(values):
    """Decimal exponent e, 17-digit significand D and exactness of each |v|.

    e = floor(log10 |v|) clipped to the fixed-notation range -4..16, and
    D = round(|v| 10**(16 - e)) half to even from an error-free (Dekker)
    product.  ``exact`` is False for zeros, inf, nan, values outside that
    range, a wrong exponent estimate (the rounded product outside
    (1e16, 1e17), which also catches the few D = 1e16) and products within
    1e-6 of a rounding tie.
    """
    with np.errstate(all="ignore"):  # zeros, inf and nan fail the range test
        mag = np.abs(values)
        exp = np.clip(np.floor(np.log10(mag)), -4, 16).astype(np.intp)
        shift = 16 - exp
        scale_hi = _POW10_HI.take(shift, mode="clip")
        scale_lo = _POW10_LO.take(shift, mode="clip")
        hi = mag * _POW10.take(shift, mode="clip")
        mag_hi, mag_lo = _dekker_split(mag)
        lo = ((mag_hi * scale_hi - hi) + mag_hi * scale_lo + mag_lo * scale_hi) + mag_lo * scale_lo
        # hi is an even integer above 2**53, so hi + rint(lo) rounds hi + lo
        # half to even
        up = np.rint(lo)
        exact = (hi > 1e16) & (hi < 1e17) & (np.abs(lo - up) < 0.5 - 1e-6)
        sig = hi.astype(np.int64) + up.astype(np.int64)
    return exp, sig, exact


def _digit_groups(sig):
    """Leading digit, the four 4-digit groups after it and the last nonzero digit's index."""
    top = sig // 10**8
    low = sig - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    quads = []
    for half in (top, low):
        high = half // 10**4
        quads += [high, half - high * 10**4]
    last = 16 - _TRAILING.take(quads[3], mode="clip")
    short = np.flatnonzero(quads[3] == 0)
    if short.size:
        found = np.zeros(short.size, dtype=np.intp)  # digit 0 is never zero
        for q in range(3):
            part = quads[q][short]
            found = np.where(part != 0, 4 + 4 * q - _TRAILING.take(part, mode="clip"), found)
        last[short] = found
    return first, quads, last


def _format(values):
    """Bytes of ``"%.17g" % v`` for each v of ``values``, NUL padded.

    Returns a (_WIDTH, n) uint8 canvas whose column i, with its NUL bytes
    removed, is the text of ``values[i]``.  Entries ``_significand`` cannot
    decide exactly are formatted with ``%`` one at a time.
    """
    values = np.asarray(values, dtype=float).ravel()
    exp, sig, exact = _significand(values)
    first, quads, last = _digit_groups(sig)
    canvas = np.empty((_WIDTH, values.size), dtype=np.uint8)
    np.take(_LEAD, exp + 4 + 21 * (values < 0), axis=1, out=canvas[:6], mode="clip")
    digits = canvas[6::2]
    digits[0] = first + _ZERO
    for q, quad in enumerate(quads):
        np.take(_QUADS, quad, axis=1, out=digits[1 + 4 * q:5 + 4 * q], mode="clip")
    # strip the fraction's trailing zeros; the point follows digit exp
    keep = np.maximum(last, exp)
    cut = np.flatnonzero(keep < 16)
    digits[:, cut] *= _DIGIT <= keep[cut]
    points = canvas[7::2]
    points[...] = 0
    point = np.flatnonzero((last > exp) & (exp >= 0))
    points[exp[point], point] = _DOT
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = [_FLOAT % v for v in values[slow].tolist()]
        canvas[:, slow] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH).T
    return canvas


def _write_rows(fh, values, lead=None, prefix=b""):
    """Write ``prefix + lead[r]`` and row r of ``values`` as one text line per row.

    ``lead`` is a NUL-padded (rows, width) byte block of leading columns; the
    fields of a row are "%.17g" texts joined by commas.
    """
    rows, count = values.shape
    start_bytes = np.frombuffer(prefix, dtype=np.uint8)
    head = start_bytes.size + (0 if lead is None else lead.shape[1])
    step = max(1, _BLOCK_VALUES // count)
    for start in range(0, rows, step):
        block = values[start:start + step]
        size = len(block)
        line = np.empty((size, head + count * (_WIDTH + 1)), dtype=np.uint8)
        line[:, :start_bytes.size] = start_bytes
        if lead is not None:
            line[:, start_bytes.size:head] = lead[start:start + step]
        body = line[:, head:].reshape(size, count, _WIDTH + 1)
        body[..., :_WIDTH] = _format(block).T.reshape(size, count, _WIDTH)
        body[..., _WIDTH] = ord(",")
        body[:, -1, _WIDTH] = ord("\n")
        fh.write(line.tobytes().translate(None, b"\0"))


@functools.lru_cache(maxsize=8)
def _grid_rows(first, second):
    """Leading columns "a,b," of one (u, omega) block of a spectral grid file.

    The render axes or coefficient indices are formatted once per axis pair,
    not once per block.
    """
    return _byte_rows([f"{_FLOAT % a},{_FLOAT % b},".encode() for a in first for b in second])


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
    m, k = raw.grid.size, basis.size
    if m < k:  # checked before the (m, k) design matrix is built
        raise ValueError(
            f"under-determined projection: {m} grid points for {k} basis functions"
        )
    design = basis.evaluate(raw.grid)
    coeffs = np.linalg.lstsq(design, raw.data.T, rcond=None)[0].T
    resid = raw.data - coeffs @ design.T
    residuals = np.sqrt(np.trapezoid(resid**2, raw.grid, axis=1))
    return ProjectionResult(coefficients=coeffs, residuals=residuals)


def write_series(raw, path):
    """Write a versioned delimited-text series file: grid row, then data rows."""
    with open(path, "wb") as fh:
        fh.write(f"{SERIES_HEADER}\n".encode())
        _write_rows(fh, raw.grid[None, :])
        _write_rows(fh, raw.data)


def _newlines(text):
    """``text`` with "\\r\\n" and "\\r" read as "\\n", as a text-mode file reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(path, header, meta=False):
    """The UTF-8 file's lines minus trailing empty ones; checks its header and
    ``meta`` line 2.  A byte that is no UTF-8 is a ParseError on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = _newlines(data.decode()).rstrip("\n")
    except UnicodeDecodeError as exc:
        line = _newlines(data[:exc.start].decode()).count("\n") + 1
        raise ParseError(path, line, f"byte 0x{data[exc.start]:02x} is not UTF-8 text") from None
    if not text:
        raise ParseError(path, 1, "empty file, expected a header line")
    lines = text.split("\n")
    if lines[0].strip() != header:
        raise ParseError(path, 1, f"expected header {header!r}")
    if meta and (len(lines) < 2 or not lines[1].startswith("#")):
        raise ParseError(path, 2, "missing metadata line")
    return lines


def _table(path, lines, start, width=None):
    """Rows ``lines[start:]`` as one (rows, width) float64 array, parsed in one numpy call.

    ``width`` defaults to the first row's field count.  Only if that call
    fails are the rows scanned one by one, with the same (numpy's) number
    syntax, to name the first line with a wrong field count or a bad number.
    """
    rows = lines[start:]
    if not rows:
        return np.empty((0, width))  # np.loadtxt warns on empty input
    if width is None:
        width = rows[0].count(",") + 1
    try:
        # comments=None: a "#" inside a data row is an error, not a comment
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if table.shape == (len(rows), width):  # np.loadtxt skips blank lines
            return table
    except ValueError:
        pass
    for number, line in enumerate(rows, start=start + 1):
        fields = line.count(",") + 1
        if fields != width:
            raise ParseError(path, number, f"expected {width} fields, got {fields}")
        try:
            if line and np.loadtxt([line], delimiter=",", comments=None).size == width:
                continue
        except ValueError:
            pass
        raise ParseError(path, number, f"non-numeric field in {line!r}")
    raise AssertionError("np.loadtxt rejected rows that parse one by one")


def read_series(path):
    """Parse a series file back into a ``RawSeries``; errors name the line."""
    lines = _lines(path, SERIES_HEADER)
    if len(lines) < 3:
        raise ParseError(path, len(lines) + 1, "missing grid or data rows")
    table = _table(path, lines, 1)
    try:
        return RawSeries(grid=table[0], data=table[1:])
    except ValueError as exc:
        raise ParseError(path, 2, str(exc)) from None


def render_grid(count):
    """Uniform [0, 1] render axis of ``count`` points for kernel-layout output."""
    return np.linspace(0.0, 1.0, count)


def write_spectral_grid(grid, path, mode="coeff", taus=None, kernels=None):
    """Write a spectral grid as long-format delimited text.

    ``coeff`` rows are (u, omega, i, j, Re, Im) over the stored basis
    coefficients, zero-based indices.  ``kernel`` rows are
    (u, omega, tau, sigma, Re, Im, abs) with the operator rendered as a
    kernel in the K-function Fourier basis of the grid's dimension K on the
    taus x taus grid, which kernel mode requires; the abs column is the
    amplitude surface contour plots display.  Rows are emitted in nested
    (u, omega, first index, second index) order, one u at a time.
    ``kernels``, shape (len(u), len(omega), len(taus), len(taus)), passes the
    grid already rendered by ``kernel_grid`` on ``taus``.
    """
    if mode not in GRID_HEADERS:
        raise ValueError(f"unknown grid mode {mode!r}")
    dim = grid.values.shape[-1]
    if mode == "coeff":
        axis = tuple(range(dim))
    else:
        if taus is None:
            raise ValueError("kernel mode needs the render axis taus")
        basis = BasisSpec(size=dim)
        taus = np.asarray(taus, dtype=float)
        axis = tuple(taus.tolist())
    lead = _grid_rows(axis, axis)
    with open(path, "wb") as fh:
        fh.write(
            f"{GRID_HEADERS[mode]}\n# u {grid.u.size} omega {grid.omega.size} dim {dim} "
            f"provenance {grid.provenance}\n".encode()
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
                values = np.stack(columns, axis=-1).reshape(len(lead), -1)
                _write_rows(fh, values, lead, prefix=f"{_FLOAT % u},{_FLOAT % omega},".encode())


def read_spectral_grid(path):
    """Read a coeff-layout grid file back into a ``SpectralGrid``.

    The data rows are parsed in one numpy call, then their order and u/omega
    columns are checked as arrays; every error names its first bad line.
    """
    lines = _lines(path, GRID_HEADERS["coeff"], meta=True)
    # layout: u <nu> omega <nw> dim <K> provenance <name>
    parts = lines[1].lstrip("# ").split()
    try:
        meta = dict(zip(parts[0::2], parts[1::2]))
        nu, nw, dim = (int(meta[key]) for key in ("u", "omega", "dim"))
        provenance = meta["provenance"]
    except (KeyError, ValueError):
        nu = nw = dim = 0
    if min(nu, nw, dim) < 1:
        raise ParseError(path, 2, f"bad metadata line {lines[1]!r}")
    if provenance not in PROVENANCES:
        raise ParseError(path, 2, f"unknown provenance {provenance!r}")
    expected = nu * nw * dim * dim
    if len(lines) - 2 != expected:
        raise ParseError(
            path, len(lines), f"expected {expected} data rows, got {len(lines) - 2}"
        )
    table = _table(path, lines, 2, width=6)
    blocks = table.reshape(nu, nw, dim, dim, 6)
    # the first row of each u block fixes u, the first u block fixes omega
    u = blocks[:, 0, 0, 0, 0].copy()
    omega = blocks[0, :, 0, 0, 1].copy()
    index = np.arange(dim)
    disorder = (blocks[..., 2] != index[:, None]) | (blocks[..., 3] != index)
    off_u = blocks[..., 0] != u[:, None, None, None]
    off_omega = blocks[..., 1] != omega[:, None, None]
    off_u[:, 0, 0, 0] = off_omega[0, :, 0, 0] = False  # a NaN that fixes its axis
    bad = np.flatnonzero(disorder | off_u | off_omega)
    if bad.size:
        row = int(bad[0])
        iu, iw = divmod(row // (dim * dim), nw)
        if disorder.flat[row]:
            reason = "rows out of nested (u, omega, i, j) order"
        elif off_u.flat[row]:
            reason = f"u {table[row, 0]:.17g} differs from {u[iu]:.17g} in earlier rows"
        else:
            reason = f"omega {table[row, 1]:.17g} differs from {omega[iw]:.17g} in earlier rows"
        raise ParseError(path, row + 3, reason)
    values = np.empty((nu, nw, dim, dim), dtype=complex)
    # parts assigned apart, not re + 1j * im, which loses a signed zero
    values.real = blocks[..., 4]
    values.imag = blocks[..., 5]
    return SpectralGrid(u, omega, values, provenance=provenance)


def read_kernel_table(path):
    """Read a kernel-layout grid file as a plain (rows, 7) float array."""
    return _table(path, _lines(path, GRID_HEADERS["kernel"], meta=True), 2, width=7)


def _curve_doc(curve):
    return {
        "knots": curve.knots.tolist(),
        "values": [mat.ravel().tolist() for mat in curve.values],
    }


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer"}


def _typed(value, kind, name):
    """``value``, the model document's ``name``, if it is of the JSON type ``kind``."""
    if type(value) is not kind:  # a bool is no integer
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _field(doc, key, kind=None, where=""):
    """``doc[key]`` of a model document, of the JSON type ``kind`` when one is
    given; ``where`` is the field's parent, such as ``ar[0].``."""
    if key not in doc:
        raise ValueError(f"model document has no field {where}{key}")
    value = doc[key]
    return value if kind is None else _typed(value, kind, f"model document field {where}{key}")


def _numbers(value, name, shape=None):
    """``value``, JSON numbers only, as a float array of ``shape`` (any when None),
    or a ValueError naming ``name``."""
    try:
        array = np.asarray(value)
        if array.dtype.kind not in "iuf":  # strings, bools and nulls are no numbers
            raise ValueError
        array = array.astype(float)
        return array if shape is None else array.reshape(shape)
    except (TypeError, ValueError):
        what = "numbers" if shape is None else f"a {shape[0]} x {shape[1]} matrix of numbers"
        raise ValueError(f"model document field {name} must hold {what}") from None


def _curve_from_doc(doc, dim, name):
    _typed(doc, dict, f"model document field {name}")
    where = f"{name}."
    knots = _numbers(_field(doc, "knots", where=where), f"{where}knots")
    values = np.array([_numbers(mat, f"{where}values[{g}]", (dim, dim))
                       for g, mat in enumerate(_field(doc, "values", list, where))])
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


def model_from_document(doc):
    """Rebuild a ``TvFarmaModel`` from its document; returns (model, seed).

    A malformed document raises ValueError naming its first missing or
    ill-typed field; ``dim``, ``ar_order`` and ``ma_order`` must be integers.
    """
    _typed(doc, dict, "model document")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    dim = _field(doc, "dim", int)
    if dim < 1:
        raise ValueError(f"model document field dim must be at least 1, got {dim}")
    orders = [_field(doc, key, int) for key in ("ar_order", "ma_order")]
    ar, ma = ([_curve_from_doc(c, dim, f"{key}[{i}]") for i, c in enumerate(_field(doc, key, list))]
              for key in ("ar", "ma"))
    c = doc.get("c")
    model = TvFarmaModel(
        ar=ar,
        ma=ma,
        c=None if c is None else _curve_from_doc(c, dim, "c"),
        innovations=InnovationSpec(_numbers(_field(doc, "sigma"), "sigma")),
    )
    if [model.ar_order, model.ma_order] != orders:
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
    write_json(report.document(), path)


def _jsonify(obj):
    """Recursively coerce a payload to plain JSON types.

    numpy values become Python ones, tuples and arrays lists, complex numbers
    {"re", "im"} objects, and non-finite floats the strings "NaN",
    "Infinity" and "-Infinity", which keeps the output valid JSON.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return _jsonify({"re": obj.real, "im": obj.imag})
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def write_json(payload, path=None):
    """Deterministic JSON text of ``payload``, written to ``path`` if one is given.

    Every JSON file the package writes goes through here: keys sorted,
    two-space indent, one final newline, values coerced by ``_jsonify``.
    Returns the text.
    """
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
