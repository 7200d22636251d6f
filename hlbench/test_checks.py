"""Tests of the benchmark's output checks: each accepts the program's real
output and rejects a deliberately wrong one.

    python3 -m pytest hlbench/test_checks.py -q
"""

import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from hardylane.constructions import build_candidate, find_scale  # noqa: E402
from hardylane.exponents import HardyParams, Powers  # noqa: E402
from hardylane.iteration import iterate_clamped, iterate_plain  # noqa: E402
from hardylane.plotting import PlotSpec, region_markers, render_svg  # noqa: E402
from hardylane.regions import _wrap, classify_field  # noqa: E402

GRID = np.linspace(0.1, 8.0, 40)


def test_tau_closed_form_solves_the_indicial_equation():
    rng = np.random.default_rng(3)
    N = rng.integers(3, 11, 1000)
    mu = oracle.mu_zero(N) + rng.random(1000) * 20.0
    for tau in oracle.tau_pm(N, mu):
        assert np.allclose(mu - tau * (tau + N - 2), 0.0, atol=1e-10)
    tp, tm = oracle.tau_pm(5, -2.25)
    assert tp == tm == -1.5


def test_literal_predicates_on_worked_points():
    ne, ex, _ = oracle.region_masks(5, -2.0, 0.0, [2.0, 2.0, 1.0], [4.0, 3.0, 6.0])
    assert ne.tolist() == [True, False, True]     # e1 < 0, e1 > 0, q >= 5
    assert ex.tolist() == [False, True, False]
    ne, ex, _ = oracle.region_masks(5, -2.0, -2.0, [2.5, 2.0], [3.5, 2.0])
    assert ne.tolist() == [True, False] and ex.tolist() == [False, True]


def _program_grid(window):
    codes, _, flags = classify_field(HardyParams(*window), GRID, GRID)
    cells = [[_wrap(int(c), 0.0, int(f)) for c, f in zip(cr, fr)]
             for cr, fr in zip(codes, flags)]
    verdicts = np.array([[c.verdict.value for c in row] for row in cells])
    citations = np.array([[c.citation for c in row] for row in cells])
    return codes, verdicts, citations


@pytest.mark.parametrize("window", workloads.PlotGrid.WINDOWS)
def test_region_grid_check_rejects_one_flipped_cell(window):
    _, verdicts, citations = _program_grid(window)
    fails, _ = oracle.check_region_grid(*window, GRID, GRID, verdicts, citations)
    assert fails == []
    i, j = np.argwhere(verdicts == "nonexistence")[0]
    flipped = verdicts.copy()
    flipped[i, j] = "exists_supersolution"
    fails, _ = oracle.check_region_grid(*window, GRID, GRID, flipped, citations)
    assert fails


def test_witness_check_rejects_a_corrupted_bootstrap_step():
    trace = iterate_clamped(HardyParams(5, -2.0, -2.0), Powers(2.5, 3.5))
    cert = trace.outcome
    good = {"mechanism": "iteration", "variant": "clamped",
            "kind": cert.kind.value, "step": cert.step, "value": cert.value}
    assert (cert.kind.value, cert.step, cert.value) == ("crossed_tau2", 2, -4.125)
    assert oracle.check_witness(5, -2.0, -2.0, 2.5, 3.5, "T2.ii", good) == []
    assert oracle.check_witness(5, -2.0, -2.0, 2.5, 3.5, "T2.ii",
                                dict(good, value=-4.0))
    assert oracle.check_witness(5, -2.0, -2.0, 2.5, 3.5, "T2.ii",
                                dict(good, step=1))
    plain = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2.0, 4.0)).outcome
    good = {"mechanism": "iteration", "variant": "plain",
            "kind": plain.kind.value, "step": plain.step, "value": plain.value}
    assert oracle.check_witness(5, -2.0, 0.0, 2.0, 4.0, "T1.ii", good) == []
    assert oracle.check_witness(5, -2.0, 0.0, 2.0, 4.0, "T1.i", good)


def test_integrability_witness_check():
    # T1.i at (5, -2, 0), q = 6: u^q ~ r^(-6) fails against the mu2 = 0 weight
    good = {"mechanism": "integrability", "exponent": -6.0, "weight_mu": 0.0}
    assert oracle.check_witness(5, -2.0, 0.0, 2.0, 6.0, "T1.i", good) == []
    assert oracle.check_witness(5, -2.0, 0.0, 2.0, 6.0, "T1.i",
                                dict(good, exponent=-4.0))


def _terms(f):
    return [(t.tau, t.log_power, t.coeff) for t in f.terms]


def test_supersolution_check_rejects_a_doubled_scale():
    cand = build_candidate("C1", HardyParams(5, -2.0, 0.0), Powers(2.0, 3.0))
    t, report = find_scale(cand)
    assert t == 1.0
    radii = report.grid.radii
    args = (5, -2.0, 0.0, 2.0, 3.0, _terms(cand.u), _terms(cand.v))
    assert oracle.check_supersolution(*args, t, radii) == []
    assert oracle.check_supersolution(*args, 2.0 * t, radii)


def test_operator_formula_matches_finite_differences():
    rng = np.random.default_rng(5)
    r, h = np.linspace(0.3, 0.9, 7), 1e-4
    for _ in range(20):
        N, mu = int(rng.integers(3, 8)), float(rng.uniform(-1.0, 2.0))
        terms = [(float(rng.uniform(-3, 3)), int(rng.integers(0, 2)),
                  float(rng.uniform(0.2, 1.0)))]
        f = [oracle.radial_value(terms, r + k * h) for k in (-1, 0, 1)]
        lap = (f[2] - 2 * f[1] + f[0]) / h ** 2 + (N - 1) / r * (f[2] - f[0]) / (2 * h)
        want = -lap + mu / r ** 2 * f[1]
        got, mag = oracle.hardy_image(N, mu, terms, r)
        assert np.all(np.abs(got - want) <= 1e-5 * mag)
    tp, _ = oracle.tau_pm(5, -2.0)
    got, mag = oracle.hardy_image(5, -2.0, [(float(tp), 0, 1.0)], r)
    assert np.all(np.abs(got) <= 1e-14 * mag)


@pytest.mark.parametrize("window", workloads.PlotGrid.WINDOWS)
def test_marker_check(window):
    rng = (0.1, 8.0)
    got = region_markers(HardyParams(*window), rng, rng)
    assert oracle.check_markers(got, *window, rng, rng) == []
    name = sorted(got)[0]
    moved = dict(got, **{name: (got[name][0] + 1e-6, got[name][1])})
    assert oracle.check_markers(moved, *window, rng, rng)


CELL = re.compile(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" '
                  r'height="([\d.]+)" fill="(#\w+)"/>')


def _merge_rows(svg):
    """Rewrite per-cell rects as one rect per horizontal run of a colour."""
    out, run = [], None

    def flush():
        x, y, w, h, fill = run
        out.append(f'<rect x="{x}" y="{y}" width="{w:.6f}" height="{h}" '
                   f'fill="{fill}"/>')

    for line in svg.split("\n"):
        m = CELL.fullmatch(line)
        if m and m.group(1) != "0":          # not the page background
            x, y, w, h, fill = m.groups()
            if run and run[1] == y and run[4] == fill:
                run[2] += float(w)
                continue
            if run:
                flush()
            run = [x, y, float(w), h, fill]
            continue
        if run:
            flush()
            run = None
        out.append(line)
    return "\n".join(out)


def test_svg_check_reads_cells_through_the_legend(tmp_path):
    window = (5, -2.0, -2.0)
    codes, _, citations = _program_grid(window)
    spec = PlotSpec(HardyParams(*window), (0.1, 8.0), (0.1, 8.0), len(GRID))
    svg = render_svg(codes, spec)
    path = tmp_path / "plot.svg"
    path.write_text(svg)
    assert workloads.check_svg_cells(str(path), len(GRID), citations) == []
    merged = _merge_rows(svg)
    assert merged.count("<rect") < svg.count("<rect") // 4
    path.write_text(merged)
    assert workloads.check_svg_cells(str(path), len(GRID), citations) == []
    flipped = citations.copy()
    flipped[0, 0] = "T2.ii" if flipped[0, 0] != "T2.ii" else "T2.i"
    assert workloads.check_svg_cells(str(path), len(GRID), flipped)
    path.write_text(svg[: len(svg) // 2])
    assert workloads.check_svg_cells(str(path), len(GRID), citations)
