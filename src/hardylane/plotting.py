"""Deterministic SVG region plots and CSV grid export.

The SVG is assembled as a plain string with fixed 6-decimal coordinates and
sorted legend entries, so identical inputs produce byte-identical files
regardless of platform dict order.  Each grid cell is one <rect>.  Axes:
p horizontal, q vertical (increasing upward).

Cell text is formatted once per distinct value: per column, per row, per
region code (at import) and, in the CSV, per distinct margin.  Each list of
coordinates is formatted by one %-format over a numpy array.  A file is
its head, then its cells, then its tail.  The cells are handled in two
sizes of block, both whole grid rows.  A table block, at most
regions._FIELD_BLOCK_CELLS cells (the whole grid at 200x200), is scanned
by numpy once: the SVG finds its runs of equal codes, the CSV its
distinct margins and the text of each, which bounds the CSV's memory.
A text block, about _BLOCK_CELLS cells, is joined and written at once.
In the SVG, the cells of a run of equal codes within a row share their y
and fill text, so one join writes the run with that text as the
separator, and the legend, written last, lists the codes of the runs.
In the CSV, fancy indexing lays out the pieces of a text block's lines in
an object array and one join makes its text.  So no Python runs per cell.
emit_csv and emit_svg write each text block as it is joined, so a file is
never held whole in memory; render_svg joins the same blocks into one
string.  Every check runs before the first block, so a rejected grid
opens no file: _check_codes reads the grid's least and greatest code.

Marked corner points (present when inside the plotted ranges):

  regime A:  E = (0, q_upper)        top of the integrability half-plane
             M = (0, q_lower)        foot of the log-construction line
             A = (p_A, q_upper)      end of the critical curve e1 = 0
             Q = curve exit at the right edge of the plot, if finite
  regime B:  E = (0, q_upper),  D = (p_upper, 0)
             B = (p_lower, q_lower)  intersection of the two critical curves
             A = (p_A, q_upper),  C = (p_upper, q_C)  curve endpoints
             F = (0, q_lower),  G = (p_lower, 0)      construction segments

The coordinates follow from the boundary formulas: A and C solve e1 = 0 and
e2 = 0 on the respective closed edges (boundaries.curve_end, with the roles
exchanged for C), B solves both simultaneously.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from . import _kernels as K
from . import boundaries as bd
from ._frozen import frozen
from .exponents import DomainValidationError, HardyParams
from .regions import _FIELD_BLOCK_CELLS, _OUTCOMES

# Fill colors per region code: reds for nonexistence, greens for existence,
# yellows for open boundaries, grey outside scope.
_COLORS = {
    K.CODE_OUT_OF_SCOPE: "#bdbdbd",
    K.CODE_T1_I: "#b2182b",
    K.CODE_T1_II: "#ef8a62",
    K.CODE_T2_I: "#b2182b",
    K.CODE_T2_II: "#ef8a62",
    K.CODE_T2_III: "#fddbc7",
    K.CODE_T3_I_CASE1: "#1a9850",
    K.CODE_T3_I_CASE2: "#91cf60",
    K.CODE_T3_I_CASE3: "#d9ef8b",
    K.CODE_T3_II_A1: "#1a9850",
    K.CODE_T3_II_A2: "#91cf60",
    K.CODE_T3_II_B1: "#66bd63",
    K.CODE_T3_II_B2: "#d9ef8b",
    K.CODE_CURVE_AQ: "#ffd92f",
    K.CODE_CURVE_AB: "#ffd92f",
    K.CODE_CURVE_BC: "#ffe99f",
    K.CODE_DOTTED: "#fff7bc",
}

# Per code 0..16: the end of a cell's <rect> and a CSV line's
# "verdict,citation," text.  A code with no colour fails here, at import.
_FILLS = [f'{_COLORS[code]}"/>\n' for code in range(len(_OUTCOMES))]
_LABELS = np.array([f"{_OUTCOMES[code][0].value},{_OUTCOMES[code][1]},"
                    for code in range(len(_OUTCOMES))], dtype=object)

# Samples along each critical curve overlay
_CURVE_SAMPLES = 256

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56.0, 248.0, 24.0, 44.0
_PLOT_W, _PLOT_H = 560.0, 560.0

# Cells joined into one block of a file: 7 rows at res 200, one row from
# res 1400 up.  A block of SVG text (about 85 bytes a cell) then stays near
# 119 KB, below glibc's default 128 KiB mmap threshold, so its str and its
# UTF-8 copy reuse heap memory instead of being mapped fresh each block.
# At 200x200 (2 cores, four plot-grid windows, SVG rects joined by runs),
# 3,200-cell blocks (272 KB) took about 1,850 minor faults per `hardylane
# plot` and 1,400-cell blocks about 590 (the SVG alone: 1,470 and 370); a
# plot ran about 5 ms faster.  Table blocks take classification's block
# size (regions._FIELD_BLOCK_CELLS).
_BLOCK_CELLS = 1400


@frozen
class PlotSpec:
    """Grid geometry and decoration for one region plot."""

    params: HardyParams
    p_range: Tuple[float, float]
    q_range: Tuple[float, float]
    resolution: int
    title: str = ""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def region_markers(params: HardyParams, p_range: Tuple[float, float],
                   q_range: Tuple[float, float]) -> Dict[str, Tuple[float, float]]:
    """Corner points of the region pictures, keyed by their letter.

    The regime follows the sign of each tau_+, as in the kernel; it is the
    sign of mu.  A Q that overflows or divides by zero is left out.
    """
    t1, _, t2, _ = params.roots
    if t2 < 0.0 <= t1:
        sw = region_markers(params.swapped(), q_range, p_range)
        return {name: (xy[1], xy[0]) for name, xy in sw.items()}
    if not t1 < 0.0:
        return {}

    N = params.N
    qup = bd.q_upper(N, t1, t2)
    markers: Dict[str, Tuple[float, float]] = {
        "E": (0.0, qup), "A": (bd.curve_end(N, t1, t2), qup)}
    if t2 >= 0.0:
        markers["M"] = (0.0, bd.q_lower(t1, 0.0))
        p_max = p_range[1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            q_exit = float(bd.e1_curve(np.float64(t1), p_max))
        # a NaN or an infinity fails the finite window's comparisons
        if q_range[0] <= q_exit <= q_range[1]:
            markers["Q"] = (p_max, q_exit)
    else:
        pup = bd.q_upper(N, t2, t1)
        qlo = bd.q_lower(t1, t2)
        plo = bd.q_lower(t2, t1)
        markers["D"] = (pup, 0.0)
        markers["B"] = (plo, qlo)
        markers["F"] = (0.0, qlo)
        markers["G"] = (plo, 0.0)
        markers["C"] = (pup, bd.curve_end(N, t2, t1))
    return markers


def critical_curve_points(params: HardyParams, which: str,
                          p_range: Tuple[float, float],
                          q_range: Tuple[float, float]
                          ) -> List[Tuple[float, float]]:
    """Sample the curve e1 = 0 (which='e1') or e2 = 0 ('e2') inside the
    window, at _CURVE_SAMPLES points.

    e1 = 0 is solved for q as a function of p; e2 = 0 for p as a function
    of q.  Points outside the window are dropped, and so are the infinities
    and NaNs that the formula gives where it overflows on a wide window.
    """
    if which not in ("e1", "e2"):
        raise ValueError(f"unknown curve {which!r}")
    swap = which == "e2"
    t = params.roots[2 if swap else 0]
    if t >= 0.0:
        return []
    a_range, b_range = (q_range, p_range) if swap else (p_range, q_range)
    a = np.linspace(a_range[0], a_range[1], _CURVE_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = bd.e1_curve(t, a)
    # a NaN or an infinity fails the finite window's comparisons
    keep = (b_range[0] <= b) & (b <= b_range[1])
    a, b = a[keep].tolist(), b[keep].tolist()
    return list(zip(b, a) if swap else zip(a, b))


def render_svg(codes: np.ndarray, spec: PlotSpec) -> str:
    """Render the classified grid to an SVG 1.1 document string.

    codes has shape (resolution, resolution), row index = q ascending,
    column index = p ascending, as produced by classify_field.  Raises
    DomainValidationError if a cell holds CODE_INVALID, and KeyError if
    one holds another code outside 0..16.
    """
    return "".join(_svg_blocks(codes, spec))


def _svg_blocks(codes: np.ndarray, spec: PlotSpec) -> Iterator[str]:
    """The SVG document in blocks; raises before returning, not while
    iterating."""
    _check_codes(codes)
    res = spec.resolution
    p_lo, p_hi = spec.p_range
    q_lo, q_hi = spec.q_range

    # the same IEEE operations on a float and on a numpy array
    def sx(p):
        return _MARGIN_L + (p - p_lo) / (p_hi - p_lo) * _PLOT_W

    def sy(q):
        return _MARGIN_T + (q_hi - q) / (q_hi - q_lo) * _PLOT_H

    width = _MARGIN_L + _PLOT_W + _MARGIN_R
    height = _MARGIN_T + _PLOT_H + _MARGIN_B
    cell_w = _PLOT_W / res
    cell_h = _PLOT_H / res

    head: List[str] = []
    head.append('<?xml version="1.0" encoding="UTF-8"?>')
    head.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{_fmt(width)}" height="{_fmt(height)}" '
                f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    head.append(f'<rect x="0" y="0" width="{_fmt(width)}" '
                f'height="{_fmt(height)}" fill="#ffffff"/>')
    if spec.title:
        # as XML character data: the replacements of xml.sax.saxutils.escape
        # (importing it would import urllib.request, html would add its
        # entity tables to every process's memory)
        title = (spec.title.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;"))
        head.append(f'<text x="{_fmt(_MARGIN_L)}" y="16" font-size="13" '
                    f'font-family="monospace">{title}</text>')

    # one rect per grid cell, pieced together from x per column, y per row
    # and the fill per code, each formatted once
    x_text = _texts('<rect x="%.6f" y="', _MARGIN_L + np.arange(res) * cell_w)
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="'
    y_text = _texts("%.6f" + size,
                    _MARGIN_T + np.arange(res - 1, -1, -1) * cell_h)

    tail: List[str] = []
    # axes frame
    tail.append(f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
                f'width="{_fmt(_PLOT_W)}" height="{_fmt(_PLOT_H)}" '
                f'fill="none" stroke="#000000" stroke-width="1"/>')
    tail.append(f'<text x="{_fmt(_MARGIN_L + _PLOT_W / 2)}" '
                f'y="{_fmt(height - 10)}" font-size="12" '
                f'font-family="monospace" text-anchor="middle">p</text>')
    tail.append(f'<text x="16" y="{_fmt(_MARGIN_T + _PLOT_H / 2)}" '
                f'font-size="12" font-family="monospace" '
                f'text-anchor="middle">q</text>')
    for val, label_axis in ((p_lo, "x0"), (p_hi, "x1")):
        tail.append(f'<text x="{_fmt(sx(val))}" y="{_fmt(height - 26)}" '
                    f'font-size="10" font-family="monospace" '
                    f'text-anchor="middle">{val:g}</text>')
    for val in (q_lo, q_hi):
        tail.append(f'<text x="{_fmt(_MARGIN_L - 6)}" y="{_fmt(sy(val) + 3)}" '
                    f'font-size="10" font-family="monospace" '
                    f'text-anchor="end">{val:g}</text>')

    # critical curve overlays
    for which, color in (("e1", "#08306b"), ("e2", "#4a1486")):
        pts = critical_curve_points(spec.params, which, spec.p_range,
                                    spec.q_range)
        if len(pts) >= 2:
            p, q = np.array(pts).T
            path = " ".join(["%.6f,%.6f"] * len(pts)) % tuple(
                np.column_stack((sx(p), sy(q))).ravel().tolist())
            tail.append(f'<polyline points="{path}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5" '
                        f'stroke-dasharray="6,3"/>')

    # corner markers; axis intercepts (p = 0 or q = 0) map into the margin
    # strip next to the frame and are kept as long as they stay on canvas
    markers = region_markers(spec.params, spec.p_range, spec.q_range)
    for name in sorted(markers):
        p, q = markers[name]
        if not (6.0 <= sx(p) <= width - 6.0 and 6.0 <= sy(q) <= height - 6.0):
            continue
        tail.append(f'<circle cx="{_fmt(sx(p))}" cy="{_fmt(sy(q))}" r="3.5" '
                    f'fill="#000000"/>')
        tail.append(f'<text x="{_fmt(sx(p) + 6)}" y="{_fmt(sy(q) - 5)}" '
                    f'font-size="12" font-family="monospace">{name}</text>')

    return _rect_blocks("\n".join(head) + "\n", x_text, y_text, codes,
                        "\n".join(tail) + "\n")


def _legend(present: np.ndarray) -> str:
    """The legend, one entry per code where present is True, in ascending
    code order, then the end of the SVG document."""
    lx = _MARGIN_L + _PLOT_W + 18.0
    ly = _MARGIN_T + 8.0
    lines = [f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" '
             f'font-family="monospace">legend</text>']
    for k, code in enumerate(np.flatnonzero(present).tolist()):
        verdict, citation, _ = _OUTCOMES[code]
        y = ly + 16.0 + 16.0 * k
        lines.append(f'<rect x="{_fmt(lx)}" y="{_fmt(y - 9)}" width="12" '
                     f'height="12" fill="{_COLORS[code]}" '
                     f'stroke="#000000" stroke-width="0.5"/>')
        lines.append(f'<text x="{_fmt(lx + 18)}" y="{_fmt(y + 1)}" '
                     f'font-size="11" font-family="monospace">'
                     f'{verdict.value}: {citation}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _check_codes(codes: np.ndarray) -> None:
    """Raise unless every cell holds a region code, 0..16, so that no code
    indexes the code tables from their end: DomainValidationError if the
    least code is CODE_INVALID, else KeyError, as regions._wrap does."""
    lo, hi = int(codes.min()), int(codes.max())
    if lo == K.CODE_INVALID:
        raise DomainValidationError("parameters outside the admissible domain")
    if lo < 0 or hi >= len(_FILLS):
        raise KeyError(lo if lo < 0 else hi)


def _block_rows(res: int) -> Tuple[int, int]:
    """Grid rows per table block and per text block at resolution res (the
    module docstring says what each is)."""
    return max(1, _FIELD_BLOCK_CELLS // res), max(1, _BLOCK_CELLS // res)


def _rect_blocks(head: str, x_text: List[str], y_text: List[str],
                 codes: np.ndarray, tail: str) -> Iterator[str]:
    """head, the <rect> of each grid cell in row-major order, tail, then
    the legend of the codes of the runs.

    The rect of cell (i, j) is x_text[j], y_text[i], then _FILLS[codes[i, j]].
    The cells of a run of equal codes within a row share their last two
    pieces, so one join with those as the separator writes the run.  Runs
    start where the flattened codes change and at each row's first cell.
    They are found by one numpy pass over each table block; their rows,
    columns, ends and codes become Python lists, and their text is joined,
    one text block at a time, so a grid of short runs holds one text
    block's lists.
    """
    present = np.zeros(len(_FILLS), dtype=bool)
    yield head
    res = len(x_text)
    table_rows, step = _block_rows(res)
    for top in range(0, len(y_text), table_rows):
        flat = codes[top:top + table_rows].ravel()
        # edges[k] is where run k starts; first[::res] marks each row's
        # first cell and, the block being whole rows, its end
        first = np.empty(flat.size + 1, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=first[1:-1])
        first[::res] = True
        edges = np.flatnonzero(first)
        rows, cols = np.divmod(edges[:-1], res)
        runs = np.stack((rows + top, cols, edges[1:] - rows * res,
                         flat[edges[:-1]]))
        present[runs[3]] = True
        # each row starts a run: text block k begins with the run that
        # starts row k * step
        bounds = np.flatnonzero(cols == 0)[::step].tolist() + [cols.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            text: List[str] = []
            for i, a, b, code in zip(*runs[:, lo:hi].tolist()):
                shared = y_text[i] + _FILLS[code]
                text.append(shared.join(x_text[a:b]))
                text.append(shared)
            yield "".join(text)
    yield tail
    yield _legend(present)


def _write(path: str, blocks: Iterator[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(blocks)


def emit_svg(codes: np.ndarray, spec: PlotSpec, path: str) -> None:
    """Write render_svg's text block by block; identical inputs produce
    byte-identical files."""
    _write(path, _svg_blocks(codes, spec))


def _csv_blocks(codes: np.ndarray, margins: np.ndarray,
                spec: PlotSpec) -> Iterator[str]:
    """The CSV in blocks: a header, then rows p,q,verdict,citation,margin
    in row-major grid order, each ending in a newline.

    p and q are formatted once per column and row, verdict and citation
    once per code, at import.  Raises as _check_codes does, before
    returning rather than while iterating.
    """
    _check_codes(codes)
    res = spec.resolution
    p = np.linspace(spec.p_range[0], spec.p_range[1], res)
    q = np.linspace(spec.q_range[0], spec.q_range[1], res)
    return _csv_lines(np.array(_texts("%.12g,", p), dtype=object),
                      np.array(_texts("%.12g,", q), dtype=object), codes,
                      margins)


def _csv_lines(p_text: np.ndarray, q_text: np.ndarray, codes: np.ndarray,
               margins: np.ndarray) -> Iterator[str]:
    """The header, then the line of each grid cell in row-major order.

    The line of cell (i, j) is p_text[j], q_text[i], _LABELS[codes[i, j]],
    then the text of margins[i, j].  Each distinct margin of a table block
    is formatted once (_margin_table): many margins depend on p or q alone
    (half-planes, the p, q > 1 gate), so a region plot holds far fewer
    distinct margins than cells, and a grid whose margins are nearly all
    distinct holds one table block's texts at a time.  Margins are told
    apart by bit pattern, which keeps 0.0 and -0.0 apart.  The pieces of
    each text block are laid out by indexing in an object array and
    joined at once, with no Python per cell.
    """
    yield "p,q,verdict,citation,margin\n"
    res = len(p_text)
    table_rows, step = _block_rows(res)
    for top in range(0, len(q_text), table_rows):
        block = np.ascontiguousarray(margins[top:top + table_rows],
                                     dtype=np.float64)
        bits, which = _margin_table(block.view(np.int64))
        margin_text = np.array(_texts("%.12g\n", bits.view(np.float64)),
                               dtype=object)
        for start in range(0, len(block), step):
            rows = slice(top + start, top + min(start + step, len(block)))
            cells = np.empty((rows.stop - rows.start, res, 4), dtype=object)
            cells[..., 0] = p_text
            cells[..., 1] = q_text[rows, None]
            cells[..., 2] = _LABELS[codes[rows]]
            cells[..., 3] = margin_text[which[start:start + step]]
            yield "".join(cells.ravel().tolist())


def _margin_table(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """np.unique(bits, return_inverse=True), the inverse shaped like bits.

    bits is a 2-D int64 array.  Every distinct value heads a run of equal
    values, so only the run heads are sorted: those of the runs in
    row-major order or in column-major order, whichever has fewer.  The
    inverse repeats each head's index over its run.
    """
    flat = bits.ravel()
    heads = _run_heads(flat)
    flat_t = bits.T.ravel()
    heads_t = _run_heads(flat_t)
    transposed = heads_t.size < heads.size
    if transposed:
        flat, heads = flat_t, heads_t
    table, head_which = np.unique(flat[heads], return_inverse=True)
    which = np.repeat(head_which, np.diff(heads, append=flat.size))
    if transposed:
        return table, which.reshape(bits.shape[::-1]).T
    return table, which.reshape(bits.shape)


def _run_heads(flat: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the 1-D array flat starts."""
    head = np.empty(flat.size, dtype=bool)
    head[0] = True
    np.not_equal(flat[1:], flat[:-1], out=head[1:])
    return np.flatnonzero(head)


def _texts(template: str, values: np.ndarray) -> List[str]:
    """template % v for each float v in values, by one %-format.

    template holds one float conversion and no NUL.  "%.6f" gives the text
    of f"{v:.6f}" and "%.12g" that of f"{v:.12g}", signed zeros,
    subnormals, inf and nan included.
    """
    return ("\0".join([template] * len(values))
            % tuple(values.tolist())).split("\0")


def emit_csv(codes: np.ndarray, margins: np.ndarray, spec: PlotSpec,
             path: str) -> None:
    """Write _csv_blocks' CSV block by block: UTF-8, LF-terminated, with a
    header row."""
    _write(path, _csv_blocks(codes, margins, spec))
