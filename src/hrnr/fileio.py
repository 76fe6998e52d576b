"""Matrix files, region JSON, and SVG rendering for the CLI.

Matrix files are JSON: ``{"dim": n, "data": [[[re, im], ...], ...]}``
with ``data`` an n x n grid of [real, imaginary] pairs in decimal text.
Region files serialise a range report as JSON with a fixed key order, a
two-space indent and each float in its shortest round-trip text
(Python's ``repr``, which is what ``json`` writes), so that parsing and
re-dumping a file reproduces it byte for byte.  The (N, 2) float arrays
of a region object (``vertices``, ``support_samples``) are written in one
pass, one ``[x, y]`` pair per row, with the same bytes ``json.dumps(...,
indent=2)`` gives for the equivalent nested lists: a text with a ``%r``
slot for each float, which one ``%`` pass fills with the floats' reprs
(no template is parsed field by field, as ``str.format`` would).  A
region's ``support_samples`` repeat the m grid angles 2 pi j / m of its
sweep (``geometry.grid_angles``), whose text never changes, so an array
whose first column is that grid, bit for bit (``-0.0 == 0.0`` but their
texts differ), is written from a text template made once per m, with the
angles in it and a ``%r`` slot per offset; the templates, one string
each, of the ``GRID_TEXT_CACHE`` angle counts used last are kept.  An
offset column of one float, bit for bit (every rank of a graded T's
sweep, whose m offsets are one number), takes one ``repr``, put in every slot
with ``str.replace``: no float text contains ``%``.

The same members go to ``.npz`` files as they are, through ``np.savez``:
``tag`` a 0-d unicode array, ``k`` and ``angles`` int64,
``outer_error_bound`` float64, ``vertices`` and ``support_samples`` (N, 2)
float64, every float bit for bit, and none needs pickle to load.
"""

from __future__ import annotations

import functools
import json
from itertools import chain

import numpy as np

from .geometry import ConvexRegion, grid_angles
from .ranges import RangeReport


class MatrixFileError(ValueError):
    """Malformed matrix file."""


def matrix_to_obj(t: np.ndarray) -> dict:
    return {"dim": t.shape[0], "data": np.stack([t.real, t.imag], axis=-1).tolist()}


def obj_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MatrixFileError("matrix file needs 'dim' and 'data' keys")
    n = obj["dim"]
    data = obj["data"]
    # JSON true and false load as bools, which are ints to isinstance
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFileError(f"bad dimension {n!r}")
    if not isinstance(data, list) or len(data) != n:
        raise MatrixFileError(f"expected {n} rows")
    try:
        values = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None or values.shape != (n, n, 2) or not _lists_of_numbers(data):
        _raise_malformed(data, n)
    if not np.isfinite(values).all():
        raise MatrixFileError("matrix entries must be finite")
    # each [re, im] pair's two float64s, in order, are one complex128
    return values.view(np.complex128)[..., 0]


def _lists_of_numbers(data) -> bool:
    """Rows and entries are lists and every part is an int or float, not a
    bool (JSON's true and false load as bools, which are ints to
    isinstance); the rows' and entries' lengths are the caller's."""
    entries = list(chain.from_iterable(data))
    parts = chain.from_iterable(entries)
    return (all(issubclass(t, list) for t in set(map(type, data)) | set(map(type, entries)))
            and all(issubclass(t, (int, float)) and not issubclass(t, bool)
                    for t in set(map(type, parts))))


def _raise_malformed(data, n):
    """Raise the error of the first malformed row or entry, row by row."""
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFileError(f"row {i} is not a list of {n} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in entry)):
                raise MatrixFileError(f"entry ({i},{j}) is not an [re, im] pair")
            try:
                complex(entry[0], entry[1])
            except OverflowError as exc:
                raise MatrixFileError(f"entry ({i},{j}) overflows a float") from exc


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    return obj_to_matrix(obj)


def region_to_obj(report: RangeReport) -> dict:
    region = report.region
    return {
        "tag": region.kind,
        "k": report.k,
        "angles": report.angles,
        "outer_error_bound": float(report.outer_error_bound),
        "vertices": np.column_stack([region.vertices.real, region.vertices.imag]),
        "support_samples": np.asarray(report.support_samples, dtype=np.float64),
    }


# one row of an (N, 2) array as json.dumps(indent=2) writes it one level
# down; a float's repr is json's text for it
_PAIR = "    [\n      %r,\n      %r\n    ]"

# templates of this many angle counts are kept: about 100 KB each at
# m = 2048 and 3.3 MB at m = 65536
GRID_TEXT_CACHE = 4


@functools.lru_cache(maxsize=GRID_TEXT_CACHE)
def _grid_text(m: int) -> str:
    """The text of an (m, 2) array whose first column is the m-angle grid,
    with a ``%r`` slot for each second-column value."""
    # _PAIR with its second slot escaped, so that the angles' pass leaves a
    # %r there
    row = "    [\n      %r,\n      %%r\n    ]"
    return ("[\n" + ",\n".join([row] * m) + "\n  ]") % tuple(grid_angles(m).tolist())


def _dumps_member(value) -> str:
    """JSON text of one member of a top-level object, indented to sit in it."""
    if isinstance(value, np.ndarray):
        if (value.dtype == np.float64 and value.ndim == 2 and value.shape[1] == 2
                and np.isfinite(value).all()):
            if value.size == 0:
                return "[]"
            # the grid's bits, not its values: -0.0 == 0.0, but their texts differ
            if np.array_equal(value[:, 0].view(np.uint64), grid_angles(len(value)).view(np.uint64)):
                text, offsets = _grid_text(len(value)), value[:, 1]
                bits = offsets.view(np.uint64)
                if (bits == bits[0]).all():
                    return text.replace("%r", repr(offsets[0].item()))
                return text % tuple(offsets.tolist())
            rows = ",\n".join([_PAIR] * len(value)) % tuple(value.ravel().tolist())
            return "[\n" + rows + "\n  ]"
        # NaN and Infinity keep json's spelling
        value = value.tolist()
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def dumps_json(obj) -> str:
    """Deterministic JSON text: fixed key order, two-space indent.

    The text of ``json.dumps(obj, indent=2)`` and a newline, where each
    numpy array member of a top-level object stands for its ``tolist()``.
    """
    if not (isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj)):
        return json.dumps(obj, indent=2) + "\n"
    members = ",\n".join(f"  {json.dumps(key)}: {_dumps_member(value)}"
                         for key, value in obj.items())
    return "{\n" + members + "\n}\n"


# ---------------------------------------------------------------------------
# SVG

SVG_SIZE = 640


def _mapper(world: float):
    half = SVG_SIZE / 2.0

    def to_px(z):
        # a complex scalar or array; arrays map elementwise in the same order
        return (half + half * z.real / world, half - half * z.imag / world)

    return to_px


def region_svg(region: ConvexRegion, ref_radius: float | None = None) -> str:
    """Standalone SVG: the region, coordinate axes, optional dashed circle.

    The view box pads 20% beyond the largest modulus drawn.
    """
    v = region.vertices
    # np.hypot is Python's abs of each vertex to the last bit; np.abs is not
    moduli = [np.hypot(v.real, v.imag).max()] if v.size else []
    if ref_radius:
        moduli.append(abs(ref_radius))
    world = 1.2 * max(moduli + [0.1])
    to_px = _mapper(world)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<line x1="0" y1="{SVG_SIZE/2}" x2="{SVG_SIZE}" y2="{SVG_SIZE/2}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{SVG_SIZE/2}" y1="0" x2="{SVG_SIZE/2}" y2="{SVG_SIZE}" '
        'stroke="#999" stroke-width="1"/>',
    ]
    for tick in (-1.0, 1.0):
        if abs(tick) <= world:
            x, y = to_px(complex(tick, 0.0))
            parts.append(f'<line x1="{x:.2f}" y1="{SVG_SIZE/2-4}" x2="{x:.2f}" '
                         f'y2="{SVG_SIZE/2+4}" stroke="#999" stroke-width="1"/>')
            x, y = to_px(complex(0.0, tick))
            parts.append(f'<line x1="{SVG_SIZE/2-4}" y1="{y:.2f}" '
                         f'x2="{SVG_SIZE/2+4}" y2="{y:.2f}" stroke="#999" stroke-width="1"/>')
    if ref_radius:
        cx, cy = to_px(0j)
        r_px = abs(ref_radius) / world * (SVG_SIZE / 2.0)
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r_px:.3f}" fill="none" '
                     'stroke="#c00" stroke-width="1.5" stroke-dasharray="6 4"/>')
    xs, ys = (px.tolist() for px in to_px(v))
    if region.kind == "polygon":
        pts = " ".join(["%.3f,%.3f"] * len(xs)) % tuple(chain.from_iterable(zip(xs, ys)))
        parts.append(f'<polygon points="{pts}" fill="#4a90d9" fill-opacity="0.15" '
                     'stroke="#1a5296" stroke-width="1.5"/>')
    elif region.kind == "segment":
        (x1, x2), (y1, y2) = xs, ys
        parts.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                     'stroke="#1a5296" stroke-width="2"/>')
    elif region.kind == "point":
        parts.append(f'<circle cx="{xs[0]:.3f}" cy="{ys[0]:.3f}" r="3" fill="#1a5296"/>')
    else:
        parts.append(f'<text x="{SVG_SIZE/2-30}" y="{SVG_SIZE/2-10}" '
                     'fill="#666" font-size="16">empty</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
