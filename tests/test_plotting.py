import hashlib
import math
import os
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardylane import _kernels as K
from hardylane import cli, plotting
from hardylane.exponents import DomainValidationError, HardyParams
from hardylane.plotting import (_MARGIN_L, _MARGIN_T, _PLOT_H, _PLOT_W,
                                PlotSpec, critical_curve_points, emit_csv,
                                emit_svg, region_markers, render_svg)
from hardylane.regions import (_FIELD_BLOCK_CELLS, _OUTCOMES, _wrap,
                               classify_field)
from oracles import svg_cells

A_PARAMS = HardyParams(5, -2.0, 0.0)
B_PARAMS = HardyParams(5, -2.0, -2.0)
WINDOW = ((0.1, 8.0), (0.1, 8.0))
# (mu1, mu2) at N = 5 of the benchmark's plot windows, each over WINDOW
PLOT_GRID_MUS = [(-2.0, -2.0), (-2.0, 0.0), (0.0, -2.0), (-2.25, 0.0)]


def csv_text(codes, margins, spec):
    """The CSV that emit_csv writes, joined into one string."""
    return "".join(plotting._csv_blocks(codes, margins, spec))


def grid_csv_lines(codes, margins, spec):
    """csv_text split into its lines; every line ends in a newline."""
    text = csv_text(codes, margins, spec)
    assert text.endswith("\n")
    return text[:-1].split("\n")


class TestMarkers:
    def test_symmetric_corner_points(self):
        m = region_markers(B_PARAMS, *WINDOW)
        assert m["E"] == (0.0, 4.0)
        assert m["D"] == (4.0, 0.0)
        assert m["B"] == (3.0, 3.0)
        assert m["F"] == (0.0, 3.0)
        assert m["G"] == (3.0, 0.0)

    def test_curve_endpoints_lie_on_curves(self):
        m = region_markers(B_PARAMS, *WINDOW)
        t1 = B_PARAMS.roots[0]
        for name in ("A", "B"):
            p, q = m[name]
            e1 = t1 * (p * q - 1.0) + 2.0 * p + 2.0
            assert e1 == pytest.approx(0.0, abs=1e-12)

    def test_one_negative_coefficient_markers(self):
        m = region_markers(A_PARAMS, *WINDOW)
        assert m["E"] == (0.0, 5.0)
        assert m["M"] == (0.0, 2.0)
        assert "D" not in m  # no p-threshold when tau_+(mu2) >= 0

    def test_swapped_markers_mirror(self):
        direct = region_markers(A_PARAMS, *WINDOW)
        mirrored = region_markers(A_PARAMS.swapped(), *WINDOW)
        for name, (p, q) in direct.items():
            assert mirrored[name] == (q, p)

    def test_out_of_scope_has_no_markers(self):
        # mu >= 0, -0.0 included; a tiny negative mu has a negative tau_+
        # and is in scope
        for params in (HardyParams(5, 1.0, 1.0), HardyParams(5, 0.0, 0.0),
                       HardyParams(5, -0.0, 0.0)):
            assert region_markers(params, *WINDOW) == {}
        for params in (HardyParams(5, -1e-20, 0.0),
                       HardyParams(5, 0.0, -1e-20)):
            assert len(region_markers(params, *WINDOW)) == 3

    def test_regime_follows_the_computed_exponent(self):
        # tau_+ has the sign of mu: a mu of -1e-20 puts the point in regime
        # B, where mu = 0 gives regime A; the markers that divide by that
        # tau_+ lie far outside the window
        for tiny, zero, far in (
                ((5, -2.0, -1e-20), (5, -2.0, 0.0), ["B", "C", "D", "G"]),
                ((5, -1e-20, -2.0), (5, 0.0, -2.0), ["A", "B", "E", "F"])):
            got = region_markers(HardyParams(*tiny), *WINDOW)
            assert sorted(got) == ["A", "B", "C", "D", "E", "F", "G"]
            assert "M" in region_markers(HardyParams(*zero), *WINDOW)
            assert sorted(n for n, xy in got.items() if max(xy) > 1e19) == far

    @pytest.mark.parametrize("p_max", [1e-310, 5e-324])
    def test_curve_exit_that_divides_by_zero_is_dropped(self, p_max):
        # t1 p_max underflows to -0.0, so Q = (t1 - 2p - 2)/(t1 p) is
        # infinite: Q is left out, not a ZeroDivisionError
        params = HardyParams(5, -1e-15, 0.0)
        assert params.roots[0] * p_max == 0.0
        got = region_markers(params, (p_max / 10.0, p_max), (0.5, 6.0))
        assert sorted(got) == ["A", "E", "M"]


class TestCurveOverlay:
    def test_points_satisfy_equation(self):
        t1 = B_PARAMS.roots[0]
        for p, q in critical_curve_points(B_PARAMS, "e1", *WINDOW):
            assert t1 * (p * q - 1.0) + 2.0 * p + 2.0 == \
                pytest.approx(0.0, abs=1e-12)
        t2 = B_PARAMS.roots[2]
        for p, q in critical_curve_points(B_PARAMS, "e2", *WINDOW):
            assert t2 * (p * q - 1.0) + 2.0 * q + 2.0 == \
                pytest.approx(0.0, abs=1e-12)

    def test_second_curve_absent_without_negative_mu2(self):
        assert critical_curve_points(A_PARAMS, "e2", *WINDOW) == []

    @pytest.mark.parametrize("mu1", [-2.0, -2.25])
    def test_wide_window_drops_overflowed_points(self, mu1):
        # up to p = 1e308, 2p overflows to inf; with |tau_+| > 1 (mu1 =
        # mu_zero) the denominator does too and the quotient is NaN
        wide, narrow = (0.1, 1e308), (0.1, 8.0)
        pts = critical_curve_points(HardyParams(5, mu1, 0.0), "e1",
                                    wide, narrow)
        assert pts
        assert all(math.isfinite(p) and wide[0] <= p <= wide[1]
                   and narrow[0] <= q <= narrow[1] for p, q in pts)
        mirrored = critical_curve_points(HardyParams(5, 0.0, mu1), "e2",
                                         narrow, wide)
        assert mirrored == [(p, q) for q, p in pts]

    def test_subnormal_window_drops_divided_points(self):
        # tau_+ = -0.127 times p = 5e-324 rounds to -0.0: q = -inf
        params = HardyParams(10, -1.0, 0.0)
        assert critical_curve_points(params, "e1", (5e-324, 1e-320),
                                     (0.1, 8.0)) == []

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            critical_curve_points(A_PARAMS, "e3", *WINDOW)


class TestRendering:
    def _spec(self, params, res):
        return PlotSpec(params=params, p_range=WINDOW[0], q_range=WINDOW[1],
                        resolution=res)

    def test_repeat_render_byte_identical(self):
        spec = self._spec(B_PARAMS, 32)
        p = np.linspace(*WINDOW[0], 32)
        q = np.linspace(*WINDOW[1], 32)
        codes, _, _ = classify_field(B_PARAMS, p, q)
        assert render_svg(codes, spec) == render_svg(codes, spec)

    def test_legend_covers_every_code_present(self):
        spec = self._spec(A_PARAMS, 48)
        p = np.linspace(*WINDOW[0], 48)
        q = np.linspace(*WINDOW[1], 48)
        codes, _, _ = classify_field(A_PARAMS, p, q)
        svg = render_svg(codes, spec)
        for code in np.unique(codes):
            assert _OUTCOMES[int(code)][1] in svg

    @given(st.lists(st.sampled_from(sorted(_OUTCOMES)), min_size=1,
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_legend_lists_the_codes_present_in_order(self, cells):
        # one entry per distinct code, ascending, as np.unique gives them,
        # each with its code's colour and its verdict and citation
        res = len(cells)
        codes = np.tile(np.array(cells, dtype=np.int16), (res, 1))
        root = ET.fromstring(render_svg(codes, self._spec(A_PARAMS, res)))
        ns = "{http://www.w3.org/2000/svg}"
        texts = [el.text for el in root.iter(ns + "text")]
        present = np.unique(codes).tolist()
        assert texts[texts.index("legend") + 1:] == \
            [f"{_OUTCOMES[code][0].value}: {_OUTCOMES[code][1]}"
             for code in present]
        swatches = [el.get("fill") for el in root.iter(ns + "rect")
                    if el.get("width") == "12"]
        assert swatches == [plotting._COLORS[code] for code in present]

    def test_every_region_code_has_a_colour(self):
        assert sorted(plotting._COLORS) == sorted(_OUTCOMES) == \
            list(range(17))

    def test_csv_header_and_order(self):
        spec = self._spec(A_PARAMS, 3)
        p = np.linspace(*WINDOW[0], 3)
        q = np.linspace(*WINDOW[1], 3)
        codes, margins, _ = classify_field(A_PARAMS, p, q)
        lines = grid_csv_lines(codes, margins, spec)
        assert lines[0] == "p,q,verdict,citation,margin"
        assert len(lines) == 10
        first_p = [float(ln.split(",")[0]) for ln in lines[1:4]]
        assert first_p == pytest.approx([0.1, 4.05, 8.0])
        first_q = [float(ln.split(",")[1]) for ln in lines[1:4]]
        assert first_q == pytest.approx([0.1, 0.1, 0.1])


def per_cell_csv_lines(codes, margins, flags, spec):
    """The CSV formatted cell by cell through _wrap (the format's oracle)."""
    res = spec.resolution
    p_values = np.linspace(spec.p_range[0], spec.p_range[1], res)
    q_values = np.linspace(spec.q_range[0], spec.q_range[1], res)
    lines = ["p,q,verdict,citation,margin"]
    for i in range(res):
        for j in range(res):
            region = _wrap(int(codes[i, j]), margins[i, j], int(flags[i, j]))
            lines.append(f"{p_values[j]:.12g},{q_values[i]:.12g},"
                         f"{region.verdict.value},{region.citation},"
                         f"{margins[i, j]:.12g}")
    return lines


@pytest.mark.parametrize("mus, window", [
    ((-2.0, -2.0), (0.1, 8.0)), ((-2.0, 0.0), (0.1, 8.0)),
    ((0.0, -2.0), (0.1, 8.0)), ((-2.25, 0.0), (0.1, 8.0)),
    ((1.0, 1.0), (1.0, 2.0)), ((-2.0, -2.0), (2.9, 3.1))])
def test_csv_matches_per_cell_formatting(mus, window):
    params = HardyParams(5, *mus)
    spec = PlotSpec(params=params, p_range=window, q_range=window,
                    resolution=37)
    grid = np.linspace(*window, 37)
    codes, margins, flags = classify_field(params, grid, grid)
    assert grid_csv_lines(codes, margins, spec) == \
        per_cell_csv_lines(codes, margins, flags, spec)


def test_csv_keeps_signed_zero_margins_apart():
    spec = PlotSpec(params=HardyParams(5, 1.0, 1.0), p_range=(1.0, 2.0),
                    q_range=(1.0, 2.0), resolution=3)
    codes = np.zeros((3, 3), dtype=np.int16)
    margins = np.array([[0.0, -0.0, 1e-13], [-0.0, 0.0, 2.5],
                        [1 / 3, -1 / 3, -0.0]])
    flags = np.zeros((3, 3), dtype=np.uint8)
    lines = grid_csv_lines(codes, margins, spec)
    assert lines == per_cell_csv_lines(codes, margins, flags, spec)
    assert [ln.rpartition(",")[2] for ln in lines[1:3]] == ["0", "-0"]


def _random_grid(res, seed):
    """Codes over every valid code and margins that repeat a small pool
    (signed zeros, a subnormal, inf and nan) among distinct values."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(np.array(sorted(_OUTCOMES), dtype=np.int16),
                       size=(res, res))
    pool = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1 / 3])
    margins = np.where(rng.random((res, res)) < 0.5,
                       pool[rng.integers(0, len(pool), (res, res))],
                       rng.standard_normal((res, res)))
    return codes, margins


@pytest.mark.parametrize("mus", [(-2.0, -2.0), (-2.0, 0.0), None])
def test_csv_tells_margins_apart_per_block(mus):
    # at res 300 the margins are told apart in two blocks of whole rows,
    # 218 rows and then 82, and the last join block of the first is cut
    # short at its end; the lines must be those of a reference that
    # formats every margin of the grid on its own.  The random grid holds
    # values in both blocks and values in one only.
    res = 300
    rows = _FIELD_BLOCK_CELLS // res
    assert rows < res <= 2 * rows and rows % _block_rows(res) != 0
    spec = PlotSpec(params=B_PARAMS if mus is None else HardyParams(5, *mus),
                    p_range=WINDOW[0], q_range=WINDOW[1], resolution=res)
    if mus is None:
        codes, margins = _random_grid(res, res)
        flags = np.zeros(codes.shape, dtype=np.uint8)
    else:
        grid = np.linspace(*WINDOW[0], res)
        codes, margins, flags = classify_field(spec.params, grid, grid)
    assert grid_csv_lines(codes, margins, spec) == \
        per_cell_csv_lines(codes, margins, flags, spec)


def assert_svg_cells(svg, codes, res):
    """svg holds exactly oracles.svg_cells' rects, right after its head
    (the canvas rect and the title) and right before the frame."""
    head, cells, tail = svg.partition(svg_cells(codes, res))
    assert cells
    assert head.count("<rect") == 1                         # the canvas
    assert tail.startswith(f'<rect x="{_MARGIN_L:.6f}" y="{_MARGIN_T:.6f}" '
                           f'width="{_PLOT_W:.6f}" height="{_PLOT_H:.6f}" '
                           f'fill="none"')                  # the frame


@pytest.mark.parametrize("mus", [(-2.0, -2.0), (-2.0, 0.0), (0.0, -2.0),
                                 (-2.25, 0.0), (1.0, 1.0)])
def test_svg_cells_match_per_cell_formatting(mus):
    _assert_plot_cells(mus, 37)


@pytest.mark.parametrize("mus", PLOT_GRID_MUS)
def test_svg_cells_of_plot_grid_windows(mus):
    _assert_plot_cells(mus, 200)


@pytest.mark.parametrize("res", [2, 3, 7, 333])
def test_svg_cells_at_resolution(res):
    _assert_plot_cells((-2.0, -2.0), res)


def _assert_plot_cells(mus, res):
    params = HardyParams(5, *mus)
    spec = PlotSpec(params=params, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=res, title="N=5")
    grid = np.linspace(*WINDOW[0], res)
    codes, _, _ = classify_field(params, grid, grid)
    assert_svg_cells(render_svg(codes, spec), codes, res)


def _one_code(res):
    return np.full((res, res), K.CODE_T3_I_CASE1, dtype=np.int16)


def _checkerboard(res):
    # every cell is a run of its own
    i, j = np.indices((res, res))
    return np.where((i + j) % 2 == 0, K.CODE_T1_I,
                    K.CODE_DOTTED).astype(np.int16)


def _row_codes(res):
    # each row one run, whose code differs from the row above
    return np.repeat(np.arange(res, dtype=np.int16)[:, None] % 3, res, axis=1)


def _column_codes(res):
    # the code changes from column to column, not from row to row
    return np.repeat(np.arange(res, dtype=np.int16)[None, :] % 3, res, axis=0)


@pytest.mark.parametrize("grid", [_one_code, _checkerboard, _row_codes,
                                  _column_codes])
@pytest.mark.parametrize("res", [2, 7, 201, 300])
def test_svg_cells_of_extreme_runs(grid, res):
    # 201 rows make text blocks of 6 rows and a last one of 3; 300 rows make
    # two table blocks, of 218 and 82 rows, each scanned for runs on its own
    codes = grid(res)
    spec = PlotSpec(params=B_PARAMS, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=res)
    assert_svg_cells(render_svg(codes, spec), codes, res)


# sha256 of `hardylane plot` at res 200 over (0.1, 8.0)^2, the files of
# the benchmark's plot-grid windows, taken before the emitters scanned
# whole table blocks for runs
PLOT_GRID_SHA256 = {
    (-2.0, -2.0): (
        "0e63d34824644b60666a878358ef7b496a5ac7fb8c1ad95be9b8235aa16c2b58",
        "d9c16009af2591ff96cb41502d24977335250b8d3ff56d759155b8bfb51403b9"),
    (-2.0, 0.0): (
        "22af438f9a0f8df6fb6264894c11947a7ce113f876c5aff9927e1ddb171c5e49",
        "2db285e57909b60f83a295eae7008953d6429a8a12830bf67061f110b01483b7"),
    (0.0, -2.0): (
        "8407b8b5c57cf169c2375216ceba750e2b6c83c247ee204f208266bab520c0d0",
        "1c8342347595e2c6d6cb11abd125d56deddbe8dfc179744668cf9e82abbf734d"),
    (-2.25, 0.0): (
        "aa6641f188063c3cba26aaf8346d7fbe4c2a25be71d16239b421c3e9b523f9bf",
        "aa5cf10e45063114b592b4476cc7bbbf432a5c75d5feb5b356cab89dcc96f739"),
}


@pytest.mark.parametrize("mus", PLOT_GRID_MUS)
def test_plot_grid_files_keep_their_bytes(mus, tmp_path):
    prefix = str(tmp_path / "plot")
    assert cli.main(["plot", "--N", "5", "--mu1", str(mus[0]),
                     "--mu2", str(mus[1]), "--p-range", "0.1..8.0",
                     "--q-range", "0.1..8.0", "--res", "200",
                     "--format", "csv,svg", "--out", prefix]) == 0
    got = tuple(hashlib.sha256((tmp_path / f"plot.{ext}").read_bytes())
                .hexdigest() for ext in ("csv", "svg"))
    assert got == PLOT_GRID_SHA256[mus]


# bit patterns of margins that must stay apart: 0.0 and -0.0, quiet and
# signalling NaNs with several payloads and both signs, an infinity
_SPECIAL_BITS = np.array(
    [0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
     0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
     0x7FF0000000000000], dtype=np.uint64).view(np.int64).tolist()


@st.composite
def _margin_blocks(draw):
    """A 2-D int64 block of margin bits, constant over tiles of a rows by
    b columns: a = 1 and b = the width give runs along rows, a = the
    height and b = 1 runs along columns, both large runs both ways."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a, b = draw(st.integers(1, rows)), draw(st.integers(1, cols))
    pool = draw(st.lists(st.sampled_from(_SPECIAL_BITS)
                         | st.integers(-2**63, 2**63 - 1),
                         min_size=1, max_size=6))
    tiles = np.array(draw(st.lists(st.sampled_from(pool),
                                   min_size=rows * cols,
                                   max_size=rows * cols)),
                     dtype=np.int64).reshape(rows, cols)
    i, j = np.indices((rows, cols))
    return tiles[i // a, j // b]


@settings(max_examples=300, deadline=None)
@given(_margin_blocks())
@example(np.array([_SPECIAL_BITS * 2], dtype=np.int64))      # one row
@example(np.array([_SPECIAL_BITS * 2], dtype=np.int64).T)    # one column
def test_margin_table_is_np_unique(bits):
    table, which = plotting._margin_table(bits)
    want, inverse = np.unique(bits, return_inverse=True)
    assert table.dtype == want.dtype and np.array_equal(table, want)
    assert which.dtype == inverse.dtype
    assert np.array_equal(which, inverse.reshape(bits.shape))


@pytest.mark.parametrize("title", ["A & B", "N=5 mu1<0", "p > q && q < p",
                                   "&amp; <rect/>"])
def test_svg_title_is_escaped(title):
    spec = PlotSpec(params=B_PARAMS, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=3, title=title)
    codes = _checkerboard(3)
    svg = render_svg(codes, spec)
    root = ET.fromstring(svg.encode("utf-8"))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == title
    assert_svg_cells(svg, codes, 3)


# every float a margin can take, drawn from a small pool so that values
# repeat: signed zeros, subnormals and the far ends of the range included
_MARGIN_POOL = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                               2.2250738585072014e-308, 1.0, -1.0]),
              st.floats(allow_nan=True, allow_infinity=True),
              st.floats(min_value=-1e-300, max_value=1e-300)),
    min_size=1, max_size=12)


@st.composite
def _grids(draw):
    """A (codes, margins, spec) triple over every valid region code."""
    res = draw(st.integers(2, 48))
    valid = sorted(_OUTCOMES)
    present = draw(st.lists(st.sampled_from(valid), min_size=1, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    pool = np.array(draw(_MARGIN_POOL))
    rng = np.random.default_rng(seed)
    codes = rng.choice(np.array(present, dtype=np.int16), size=(res, res))
    margins = pool[rng.integers(0, len(pool), size=(res, res))]
    params = draw(st.sampled_from([A_PARAMS, B_PARAMS,
                                   HardyParams(5, 1.0, 1.0)]))
    lo = draw(st.floats(0.01, 5.0))
    span = (lo, lo + draw(st.floats(0.01, 10.0)))
    spec = PlotSpec(params=params, p_range=span, q_range=WINDOW[1],
                    resolution=res)
    return codes, margins, spec


@settings(max_examples=150, deadline=None)
@given(_grids())
def test_emitters_match_per_cell_oracles(grid):
    codes, margins, spec = grid
    flags = np.zeros(codes.shape, dtype=np.uint8)
    text = csv_text(codes, margins, spec)
    assert text == "\n".join(per_cell_csv_lines(codes, margins, flags,
                                                spec)) + "\n"
    assert_svg_cells(render_svg(codes, spec), codes, spec.resolution)


@pytest.mark.parametrize("code, error", [(K.CODE_INVALID,
                                          DomainValidationError),
                                         (17, KeyError), (-2, KeyError)])
@pytest.mark.parametrize("cell", [(0, 0), (3, 1), (-1, -1), None])
def test_emitters_reject_invalid_code(cell, code, error, tmp_path):
    # a code outside 0..16 must never index a lookup table, where a
    # negative one would read an entry from the end; the file writers
    # raise before they open their file
    spec = PlotSpec(params=B_PARAMS, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=4)
    codes = np.full((4, 4), K.CODE_DOTTED, dtype=np.int16)
    if cell is None:
        codes[:] = code
    else:
        codes[cell] = code
    margins = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
    with pytest.raises(error):
        csv_text(codes, margins, spec)
    with pytest.raises(error):
        render_svg(codes, spec)
    with pytest.raises(error):
        emit_csv(codes, margins, spec, str(tmp_path / "plot.csv"))
    with pytest.raises(error):
        emit_svg(codes, spec, str(tmp_path / "plot.svg"))
    assert list(tmp_path.iterdir()) == []


def test_emitters_reject_invalid_code_past_the_first_block(tmp_path):
    # the grid is checked whole before the first block is written, also
    # when the invalid cell lies in the last block
    res = 300
    spec = PlotSpec(params=B_PARAMS, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=res)
    codes, margins = _random_grid(res, 1)
    codes[-1, -1] = K.CODE_INVALID
    with pytest.raises(DomainValidationError):
        emit_csv(codes, margins, spec, str(tmp_path / "plot.csv"))
    with pytest.raises(DomainValidationError):
        emit_svg(codes, spec, str(tmp_path / "plot.svg"))
    assert list(tmp_path.iterdir()) == []


def _block_rows(res):
    """Grid rows per block written at resolution res."""
    return max(1, plotting._BLOCK_CELLS // res)


def _res_whose_last_block(rows_left):
    """The smallest res above 2 with at least two blocks of 3 or more rows
    whose last block holds rows_left(full block) rows."""
    return next(res for res in range(3, 4097)
                if 3 <= _block_rows(res) < res // 2
                and (res - 1) % _block_rows(res) + 1
                == rows_left(_block_rows(res)))


_BLOCK_CASES = {
    "res 2": 2,
    "one block, not full": math.isqrt(plotting._BLOCK_CELLS) - 1,
    "last block one row short": _res_whose_last_block(lambda n: n - 1),
    "last block full": _res_whose_last_block(lambda n: n),
    "last block one row": _res_whose_last_block(lambda n: 1),
}


@pytest.mark.parametrize("res", list(_BLOCK_CASES.values()),
                         ids=list(_BLOCK_CASES))
def test_files_hold_the_text_functions_bytes(res, tmp_path):
    # the files are written block by block; they must hold exactly the
    # joined text, here with a non-ASCII title and every valid code
    codes, margins = _random_grid(res, res)
    spec = PlotSpec(params=B_PARAMS, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=res, title="N=5 \u03bc\u2081=-2 \u03bc\u2082=-2")
    emit_csv(codes, margins, spec, str(tmp_path / "plot.csv"))
    emit_svg(codes, spec, str(tmp_path / "plot.svg"))
    assert (tmp_path / "plot.csv").read_bytes() == \
        csv_text(codes, margins, spec).encode("utf-8")
    assert (tmp_path / "plot.svg").read_bytes() == \
        render_svg(codes, spec).encode("utf-8")


@pytest.mark.parametrize("mus", [(-2.0, -2.0), (-2.0, 0.0), (0.0, -2.0),
                                 (-2.25, 0.0)])
def test_writers_hold_less_than_the_file(mus, tmp_path):
    # a writer that built the whole text first would peak at about twice
    # the file (the text and its UTF-8 copy); block by block, it holds the
    # lookup tables and one block's pieces and text
    params = HardyParams(5, *mus)
    grid = np.linspace(0.1, 8.0, 300)
    codes, margins, _ = classify_field(params, grid, grid)
    spec = PlotSpec(params=params, p_range=(0.1, 8.0), q_range=(0.1, 8.0),
                    resolution=300)
    for name, write in (("csv", lambda path: emit_csv(codes, margins, spec,
                                                      path)),
                        ("svg", lambda path: emit_svg(codes, spec, path))):
        path = str(tmp_path / f"plot.{name}")
        write(path)                   # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            write(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path), (name, peak)


def test_csv_writer_holds_one_block_of_distinct_margins(tmp_path):
    # every margin distinct: the texts of all the grid's margins would
    # outweigh the file, those of one block of _FIELD_BLOCK_CELLS cells
    # (a quarter of this grid) do not
    res = 512
    rng = np.random.default_rng(res)
    codes = rng.choice(np.array(sorted(_OUTCOMES), dtype=np.int16),
                       size=(res, res))
    margins = rng.standard_normal((res, res))
    spec = PlotSpec(params=B_PARAMS, p_range=WINDOW[0], q_range=WINDOW[1],
                    resolution=res)
    path = str(tmp_path / "plot.csv")
    emit_csv(codes, margins, spec, path)  # lazy set-up, not measured
    tracemalloc.start()
    try:
        emit_csv(codes, margins, spec, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path)


def test_code_check_copies_nothing():
    # the emitters' check reads the least and greatest code; a census of
    # the codes would copy the grid (22.5 MB at res 1500 by np.bincount)
    res = 1500
    grid = np.linspace(*WINDOW[0], res)
    codes, _, _ = classify_field(B_PARAMS, grid, grid)
    plotting._check_codes(codes)
    tracemalloc.start()
    try:
        plotting._check_codes(codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak
