import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardylane import constructions
from hardylane.constructions import (CASE_IDS, ORACLE_DEV_LIMIT, SCALE_SCAN,
                                     VerificationReport, build_candidate,
                                     case_for_region, find_domain, find_scale,
                                     verify_on_grid)
from hardylane.exponents import (DomainValidationError, HardyParams, Powers,
                                 mu_zero)
from hardylane.radial import (RadialFunction, RadialGrid, RadialTerm,
                              apply_hardy, default_grid, evaluate,
                              evaluate_with_magnitude, hardy_fd_oracle,
                              log_radii)
from hardylane.regions import Verdict, classify

A_PARAMS = HardyParams(5, -2.0, 0.0)
B_PARAMS = HardyParams(5, -2.0, -2.0)

#: The worked C1 instance and one accepting point for each of C2..C8.
ACCEPTING = (("C1", A_PARAMS, Powers(2, 3)), ("C2", A_PARAMS, Powers(1.5, 1.5)),
             ("C3", A_PARAMS, Powers(1.5, 2.0)),
             ("C4", B_PARAMS, Powers(1.5, 3.2)),
             ("C5", B_PARAMS, Powers(2.0, 2.5)),
             ("C6", B_PARAMS, Powers(2.0, 3.0)),
             ("C7", B_PARAMS, Powers(3.0, 2.0)),
             ("C8", B_PARAMS, Powers(3.2, 1.5)))


def exponents_of(f):
    return [(t.tau, t.log_power, t.coeff) for t in f.terms]


def oracle_deviation_per_radius(params, cand, grid, h=1e-4, samples=16):
    """Reference: the operator cross-check one radius at a time."""
    r_hi = grid.r_max * 0.85
    r_lo = max(grid.r_min, 0.25 * grid.r_max)
    radii = np.geomspace(r_lo, r_hi, samples)
    worst = 0.0
    for f, mu in ((cand.u, params.mu1), (cand.v, params.mu2)):
        sym_f = apply_hardy(params.N, mu, f)
        mag_f = RadialFunction.from_terms(
            [RadialTerm(t.tau, t.log_power, abs(t.coeff)) for t in sym_f.terms])
        for r in radii:
            h_r = min(h, r / 8.0)
            fd = hardy_fd_oracle(params.N, mu, f, float(r), h_r)
            sym = float(evaluate(sym_f, float(r)))
            scale_r = max(1.0, abs(sym), float(evaluate(mag_f, float(r))))
            worst = max(worst, abs(sym - fd) / scale_r)
    return worst


def oracle_deviation_public(cand, grid, h, samples):
    """Reference: the operator cross-check from public calls, one
    hardy_fd_oracle and one evaluate_with_magnitude per function."""
    params = cand.params
    radii = log_radii(max(grid.r_min, 0.25 * grid.r_max), grid.r_max * 0.85,
                      samples)
    h_r = np.minimum(h, radii / 8.0)
    worst = 0.0
    for f, mu in ((cand.u, params.mu1), (cand.v, params.mu2)):
        fd = hardy_fd_oracle(params.N, mu, f, radii, h_r)
        sym, mag = evaluate_with_magnitude(apply_hardy(params.N, mu, f), radii)
        dev = np.abs(sym - fd) / np.fmax(1.0, np.fmax(np.abs(sym), mag))
        worst = max(worst, float(np.fmax.reduce(dev)))
    return worst


def slacks_reference(cand, t, u_vals, v_vals, lu, lv):
    with np.errstate(over="ignore"):
        return (float(np.min(t * lu - np.power(t * v_vals, cand.pq.p))),
                float(np.min(t * lv - np.power(t * u_vals, cand.pq.q))))


def verify_reference(cand, t, grid, h=1e-4, samples=16):
    """Reference: verify_on_grid with fresh np.geomspace radii, evaluating
    u, v, Lu and Lv itself and cross-checking the operator radius by
    radius."""
    radii = np.geomspace(grid.r_min, grid.r_max, grid.count)
    params = cand.params
    u_vals = np.asarray(evaluate(cand.u, radii))
    v_vals = np.asarray(evaluate(cand.v, radii))
    if np.min(u_vals) <= 0.0 or np.min(v_vals) <= 0.0:
        which = "u" if np.min(u_vals) <= 0.0 else "v"
        bad = radii[np.argmin(u_vals if which == "u" else v_vals)]
        return VerificationReport(
            ok=False, min_slack_u=math.nan, min_slack_v=math.nan, grid=grid,
            oracle_max_dev=math.nan, oracle_exceeded=False,
            positivity_ok=False,
            diagnostic=f"{which} is not positive near r={bad:.3e}")
    lu = np.asarray(evaluate(apply_hardy(params.N, params.mu1, cand.u), radii))
    lv = np.asarray(evaluate(apply_hardy(params.N, params.mu2, cand.v), radii))
    min_u, min_v = slacks_reference(cand, t, u_vals, v_vals, lu, lv)
    ok = (math.isfinite(min_u) and math.isfinite(min_v)
          and min_u >= 0.0 and min_v >= 0.0)
    dev = oracle_deviation_per_radius(params, cand, grid, h, samples)
    return VerificationReport(ok=ok, min_slack_u=min_u, min_slack_v=min_v,
                              grid=grid, oracle_max_dev=dev,
                              oracle_exceeded=dev > ORACLE_DEV_LIMIT,
                              positivity_ok=True)


def find_scale_reference(cand):
    """Reference: the descending scan, re-verified by verify_reference."""
    grid = default_grid(cand.r_domain)
    radii = np.geomspace(grid.r_min, grid.r_max, grid.count)
    params = cand.params
    u_vals = np.asarray(evaluate(cand.u, radii))
    v_vals = np.asarray(evaluate(cand.v, radii))
    if np.min(u_vals) <= 0.0 or np.min(v_vals) <= 0.0:
        return None
    lu = np.asarray(evaluate(apply_hardy(params.N, params.mu1, cand.u), radii))
    lv = np.asarray(evaluate(apply_hardy(params.N, params.mu2, cand.v), radii))
    for t in SCALE_SCAN:
        min_u, min_v = slacks_reference(cand, t, u_vals, v_vals, lu, lv)
        if (math.isfinite(min_u) and math.isfinite(min_v)
                and min_u >= 0.0 and min_v >= 0.0):
            report = verify_reference(cand, t, grid)
            if report.ok:
                return t, report
    return None


def report_bits(report):
    """Every field of a report, floats by float.hex."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in vars(report).values())


def _inside(lo, hi, frac):
    assume(lo < hi)
    return lo + frac * (hi - lo)


@st.composite
def accepting_candidates(draw):
    """A candidate whose case hypotheses hold, clear of degenerate lines."""
    case = draw(st.sampled_from(("C1", "C2", "C4", "C5", "C8")))
    N = draw(st.integers(min_value=3, max_value=6))
    frac = st.floats(min_value=0.05, max_value=0.95)
    mu1 = mu_zero(N) * draw(frac)
    mu2 = draw(st.floats(min_value=0.05, max_value=2.0)) \
        if case in ("C1", "C2") else mu_zero(N) * draw(frac)
    params = HardyParams(N, mu1, mu2)
    t1, t2 = params.tau1.tau_plus, params.tau2.tau_plus
    if case in ("C1", "C4"):
        lo = 2.0 / -t1 if case == "C1" else (2.0 - t2) / -t1
        q = _inside(1.02 * max(lo, 1.0), 0.98 * (N + t2) / -t1, draw(frac))
        p_max = (2.0 - t1) / -(t1 * q + 2.0)  # e1 > 0 below it
        p = _inside(1.05, min(0.95 * p_max, 8.0), draw(frac))
    elif case == "C2":
        q = _inside(1.05, 0.97 * 2.0 / -t1, draw(frac))
        assume(abs(q - (2.0 - t2) / -t1) > 0.02)  # the degenerate line
        p = _inside(1.05, 6.0, draw(frac))
    elif case == "C5":
        q = _inside(1.05, 0.97 * (2.0 - t2) / -t1, draw(frac))
        p = _inside(1.05, 0.97 * (2.0 - t1) / -t2, draw(frac))
    else:
        p = _inside(1.02 * max((2.0 - t1) / -t2, 1.0),
                    0.98 * (N + t1) / -t2, draw(frac))
        q_max = (2.0 - t2) / -(t2 * p + 2.0)  # e2 > 0 below it
        q = _inside(1.05, min(0.95 * q_max, 8.0), draw(frac))
    return build_candidate(case, params, Powers(p, q))


class TestRecipes:
    def test_strip_recipe_exponents(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        # tau2 = -1*3 + 2 = -1, tau1 = -1*2 + 2 = 0
        assert exponents_of(cand.u) == [(-1.0, 0, 1.0), (0.0, 0, -1.0)]
        assert exponents_of(cand.v) == [(-1.0, 0, 1.0)]

    def test_below_strip_recipe(self):
        cand = build_candidate("C2", A_PARAMS, Powers(2, 1.5))
        assert exponents_of(cand.u) == [(-1.0, 0, 1.0), (2.0, 0, -1.0)]
        assert exponents_of(cand.v) == [(0.0, 0, 1.0), (0.5, 0, -1.0)]

    def test_log_line_recipe(self):
        cand = build_candidate("C3", A_PARAMS, Powers(1.2, 2.0))
        assert exponents_of(cand.u) == [(-1.0, 0, 1.0), (1.0, 0, -1.0)]
        assert exponents_of(cand.v) == [(0.0, 1, 1.0)]
        assert 0.0 < cand.r_domain <= 1.0

    def test_log_line_with_positive_second_exponent(self):
        # tau_+(mu2) > 0: no log needed, single-power v on the line
        params = HardyParams(5, -2.0, 4.0)  # tau_+(4) = 1
        cand = build_candidate("C3", params, Powers(1.5, 2.0))
        assert all(t.log_power == 0 for t in cand.v.terms)
        assert find_scale(cand) is not None

    def test_mirrored_edge_recipe(self):
        cand = build_candidate("C7", B_PARAMS, Powers(3.0, 2.0))
        assert exponents_of(cand.u) == [(-1.0, 1, 1.0)]
        # tau8 = -1*2 + 2 = 0
        assert exponents_of(cand.v) == [(-1.0, 0, 1.0), (0.0, 0, -1.0)]

    def test_interior_power_recipe(self):
        cand = build_candidate("C8", B_PARAMS, Powers(3.2, 1.5))
        # tau10 = -1*3.2 + 2 = -1.2 inside (tau_-, tau_+) = (-2, -1)
        assert len(cand.u.terms) == 1
        assert cand.u.terms[0].tau == pytest.approx(-1.2, abs=1e-14)

    def test_unknown_case_rejected(self):
        with pytest.raises(DomainValidationError):
            build_candidate("C9", A_PARAMS, Powers(2, 2))

    @pytest.mark.parametrize("case", CASE_IDS)
    @pytest.mark.parametrize("mu1, mu2", ((0.0, 0.5), (0.5, 0.5),
                                          (-2.0, 0.5), (0.5, -2.0),
                                          (-2.0, -2.0)))
    def test_lenient_build_never_crashes(self, case, mu1, mu2):
        # a candidate or a validation error, never another exception;
        # outside the case's regime a validation error in both modes
        params = HardyParams(5, mu1, mu2)
        if case in ("C1", "C2", "C3"):
            in_regime = mu1 < 0.0 <= mu2
        else:
            in_regime = mu1 < 0.0 and mu2 < 0.0
        for pq, strict in itertools.product(
                (Powers(2, 3), Powers(1.5, 1.5), Powers(3.2, 1.5),
                 Powers(0.5, 6.0)), (False, True)):
            try:
                build_candidate(case, params, pq, strict=strict)
            except DomainValidationError as e:
                assert in_regime or "needs mu" in str(e)
            else:
                assert in_regime

    def test_hypothesis_validation(self):
        with pytest.raises(DomainValidationError):
            build_candidate("C1", A_PARAMS, Powers(2, 6))  # q above strip
        with pytest.raises(DomainValidationError):
            build_candidate("C1", B_PARAMS, Powers(2, 3.2))  # wrong regime
        with pytest.raises(DomainValidationError):
            build_candidate("C5", B_PARAMS, Powers(3.5, 2.0))  # p too big

    def test_degenerate_line_rejected(self):
        # regime A with tau_+(mu2) > 0: at q = (2 - t2)/(-t1) both recipes
        # degenerate (v would vanish or solve the homogeneous equation)
        params = HardyParams(5, -2.0, 4.0)  # t1 = -1, t2 = 1
        with pytest.raises(DomainValidationError):
            build_candidate("C2", params, Powers(2.0, 1.0))

    def test_gap_band_uses_single_power_recipe(self):
        # t2 > 0 and q between (2 - t2)/(-t1) and 2/(-t1): the two-term v
        # is not positive; the builder substitutes the single-power form
        params = HardyParams(5, -2.0, 4.0)
        cand = build_candidate("C2", params, Powers(2.0, 1.5))
        assert len(cand.v.terms) == 1
        assert cand.notes
        assert find_scale(cand) is not None

    def test_log_threshold_guard(self):
        at_edge = HardyParams(5, -2.25, -2.25)
        with pytest.raises(DomainValidationError):
            build_candidate("C6", at_edge, Powers(1.2, 7.0 / 3.0), strict=False)


class TestScaleSearch:
    def test_hand_checked_slack(self):
        # u-inequality slack is (2t - t^2) r^-2: accepted up to t = 2
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        found = find_scale(cand)
        assert found is not None
        t, report = found
        assert t == 1.0  # largest power of two not exceeding 2
        assert report.ok and report.min_slack_u >= 0 and report.min_slack_v >= 0

    def test_u_side_boundary_at_two(self):
        # first inequality slack is exactly (2t - t^2) r^-2: zero at t = 2,
        # so the grid values normalized by r^-2 must match 2t - t^2
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(1e-6, 0.999, 512)
        radii = grid.radii
        lu = apply_hardy(5, -2.0, cand.u)
        from hardylane.radial import evaluate
        for t in (1.0, 2.0, 4.0):
            slack = t * np.asarray(evaluate(lu, radii)) - \
                (t * np.asarray(evaluate(cand.v, radii))) ** 2
            normalized = slack * radii ** 2
            expected = 2.0 * t - t * t
            assert np.max(np.abs(normalized - expected)) <= 1e-9
        assert 2.0 * 2.0 - 2.0 ** 2 == 0.0   # accepted boundary
        assert 2.0 * 4.0 - 4.0 ** 2 < 0.0    # rejected beyond it

    def test_overscaled_candidate_fails(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        report = verify_on_grid(cand, t=10.0)
        assert not report.ok
        assert report.min_slack_u < 0

    def test_wrong_side_fails(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 4), strict=False)
        assert find_scale(cand) is None

    def test_zero_candidate_fails(self):
        from dataclasses import replace
        from hardylane.radial import RadialFunction
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        broken = replace(cand, u=RadialFunction.zero())
        assert find_scale(broken) is None

    def test_monotone_in_scale(self):
        for case, params, pq in (("C1", A_PARAMS, Powers(2, 3)),
                                 ("C4", B_PARAMS, Powers(1.5, 3.2)),
                                 ("C8", B_PARAMS, Powers(3.2, 1.5))):
            cand = build_candidate(case, params, pq)
            t, _ = find_scale(cand)
            for smaller in (t / 2.0, t / 8.0, t / 64.0):
                assert verify_on_grid(cand, t=smaller).ok

    @given(accepting_candidates())
    @settings(max_examples=40, deadline=None)
    def test_scan_is_monotone(self, cand):
        found = find_scale(cand)
        assert found is not None
        t, _ = found
        for smaller in SCALE_SCAN[SCALE_SCAN.index(t) + 1:]:
            report = verify_on_grid(cand, t=smaller)
            assert report.min_slack_u >= 0.0 and report.min_slack_v >= 0.0
        if t < SCALE_SCAN[0]:
            assert not verify_on_grid(cand, t=2.0 * t).ok

    def test_scan_grid_shape(self):
        assert SCALE_SCAN[0] == 1.0
        assert SCALE_SCAN[-1] == 2.0 ** -60
        assert len(SCALE_SCAN) == 61


class TestVerification:
    def test_kernel_term_contributes_nothing(self):
        # the leading power of every recipe solves the homogeneous equation,
        # so the image has exactly one term (the correction power)
        for case, params, pq in (("C1", A_PARAMS, Powers(2, 3)),
                                 ("C5", B_PARAMS, Powers(2.0, 2.5)),
                                 ("C8", B_PARAMS, Powers(3.2, 1.5))):
            cand = build_candidate(case, params, pq)
            lu = apply_hardy(params.N, params.mu1, cand.u)
            assert len(lu.terms) == 1

    def test_oracle_recorded_and_small(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        _, report = find_scale(cand)
        assert report.oracle_max_dev <= 1e-4
        assert not report.oracle_exceeded

    @pytest.mark.parametrize("case, params, pq", ACCEPTING,
                             ids=[c for c, _, _ in ACCEPTING])
    def test_oracle_matches_per_radius_loop(self, case, params, pq):
        cand = build_candidate(case, params, pq)
        _, report = find_scale(cand)
        ref = oracle_deviation_per_radius(params, cand, report.grid)
        assert report.oracle_max_dev.hex() == ref.hex()

    @given(accepting_candidates(),
           st.floats(min_value=1e-7, max_value=1e-2),
           st.integers(min_value=1, max_value=40),
           st.floats(min_value=1e-4, max_value=0.9))
    @settings(max_examples=150, deadline=None)
    def test_shared_stencil_matches_public_oracle(self, cand, h, samples,
                                                  r_max):
        # one stencil for u and v gives the bits of one hardy_fd_oracle and
        # one evaluate_with_magnitude call per function
        grid = RadialGrid(r_max * 1e-3, r_max, 64)
        dev = constructions._oracle_deviation(
            cand, constructions._images(cand), grid, h, samples)
        assert dev.hex() == oracle_deviation_public(cand, grid, h,
                                                    samples).hex()
        report = verify_on_grid(cand, 2.0 ** -30, grid, h, samples)
        if report.positivity_ok:
            assert report.oracle_max_dev.hex() == dev.hex()

    @pytest.mark.parametrize("samples", [-3, 0, 2.5, True, "16", None])
    def test_oracle_samples_validated(self, samples):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        with pytest.raises(DomainValidationError) as err:
            verify_on_grid(cand, t=1.0, oracle_samples=samples)
        assert "oracle_samples must be an int >= 1" in str(err.value)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("samples", [1, 2, np.int64(16)])
    def test_oracle_samples_accepted(self, samples):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        report = verify_on_grid(cand, t=1.0, oracle_samples=samples)
        assert report.ok
        assert report.oracle_max_dev.hex() == oracle_deviation_public(
            cand, report.grid, 1e-4, int(samples)).hex()

    def test_overflowing_pair_fails_with_diagnostic(self):
        # u = r^-1 - 1 is inf at r = 1e-320; no RuntimeWarning escapes
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(1e-320, 0.999, 512)
        assert find_scale(cand, grid=grid) is None
        report = verify_on_grid(cand, t=1.0, grid=grid)
        assert not report.ok and not report.positivity_ok
        assert math.isnan(report.min_slack_u)
        assert math.isnan(report.oracle_max_dev)
        assert report.diagnostic == "u is not finite near r=1.000e-320"

    def test_overflowing_image_fails_with_diagnostic(self):
        # u and v are finite at r = 1e-300, but Lu has an r^-2 term: the NaN
        # slack minimum is named, and no RuntimeWarning escapes
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(1e-300, 0.999, 512)
        assert find_scale(cand, grid=grid) is None
        report = verify_on_grid(cand, t=1.0, grid=grid)
        assert not report.ok and report.positivity_ok
        assert math.isnan(report.min_slack_u)
        assert report.diagnostic == "Lu is not finite near r=1.000e-300"

    def test_infinite_slack_is_decided_by_its_sign(self):
        # an image of +inf against a finite power leaves the slack +inf:
        # no diagnostic, and the minimum is the finite rest
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = default_grid()
        radii = grid.radii
        arrays = [np.asarray(evaluate(f, radii)) for f in
                  (cand.u, cand.v, apply_hardy(5, -2.0, cand.u),
                   apply_hardy(5, 0.0, cand.v))]
        arrays[2][[0, 7]] = math.inf
        got = verify_on_grid(cand, t=1.0, grid=grid, evaluated=arrays)
        assert got.ok and got.diagnostic == ""
        slack_u = arrays[2] - np.power(arrays[1], cand.pq.p)
        assert got.min_slack_u == slack_u.min() < math.inf

    @pytest.mark.parametrize("side, value", [(0, math.nan), (0, -math.inf),
                                             (1, math.inf), (1, math.nan)])
    def test_handed_non_finite_values_fail(self, side, value):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = default_grid()
        radii = grid.radii
        arrays = [np.asarray(evaluate(f, radii)) for f in
                  (cand.u, cand.v, apply_hardy(5, -2.0, cand.u),
                   apply_hardy(5, 0.0, cand.v))]
        arrays[side] = arrays[side].copy()
        arrays[side][[9, 20]] = value
        report = verify_on_grid(cand, t=1.0, grid=grid, evaluated=arrays)
        assert not report.ok and not report.positivity_ok
        assert report.diagnostic == \
            f"{'uv'[side]} is not finite near r={radii[9]:.3e}"

    def test_positivity_diagnostic(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 4), strict=False)
        report = verify_on_grid(cand, t=1.0)
        assert not report.ok
        assert not report.positivity_ok
        assert "not positive" in report.diagnostic

    def test_handed_arrays_still_checked_for_positivity(self):
        for case, params, pq in ACCEPTING:
            cand = build_candidate(case, params, pq)
            grid = default_grid(cand.r_domain)
            t, report = find_scale(cand)
            # find_scale's report is verify_on_grid's, computed from scratch
            assert report_bits(report) == \
                report_bits(verify_on_grid(cand, t, grid)), case
            u = np.asarray(evaluate(cand.u, grid.radii))
            v = np.asarray(evaluate(cand.v, grid.radii))
            lu = np.asarray(evaluate(apply_hardy(params.N, params.mu1, cand.u),
                                     grid.radii))
            lv = np.asarray(evaluate(apply_hardy(params.N, params.mu2, cand.v),
                                     grid.radii))
            handed = verify_on_grid(cand, t=t, grid=grid,
                                    evaluated=(u, v, lu, lv))
            assert report_bits(handed) == report_bits(report), case
            bad_u = u.copy()
            bad_u[7] = -1.0
            bad = verify_on_grid(cand, t=t, grid=grid,
                                 evaluated=(bad_u, v, lu, lv))
            assert not bad.ok and not bad.positivity_ok
            assert bad.diagnostic == \
                f"u is not positive near r={grid.radii[7]:.3e}"
            with pytest.raises(DomainValidationError):
                verify_on_grid(cand, t=t, grid=grid,
                               evaluated=(u[1:], v, lu, lv))
            with pytest.raises(DomainValidationError):
                verify_on_grid(cand, t=t, grid=grid, evaluated=(u, v, lu))

    @pytest.mark.parametrize("case, params, pq", ACCEPTING,
                             ids=[c for c, _, _ in ACCEPTING])
    def test_find_scale_builds_each_image_once(self, case, params, pq,
                                               monkeypatch):
        cand = build_candidate(case, params, pq)
        calls = []
        image = constructions._hardy_image

        def counted(N, pair, f):
            calls.append(f)
            return image(N, pair, f)

        monkeypatch.setattr(constructions, "_hardy_image", counted)
        assert find_scale(cand) is not None
        # once for u and once for v: the oracle reuses the scan's images
        assert calls == [cand.u, cand.v]

    def test_requires_scale(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        with pytest.raises(DomainValidationError):
            verify_on_grid(cand)

    def test_report_on_log_case(self):
        cand = build_candidate("C6", B_PARAMS, Powers(2.0, 3.0))
        found = find_scale(cand)
        assert found is not None
        assert found[1].oracle_max_dev <= 1e-4


class TestDomainSearch:
    def test_power_candidates_keep_unit_ball(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        assert find_domain(cand) == 1.0

    def test_log_candidate_radius(self):
        cand = build_candidate("C3", A_PARAMS, Powers(1.2, 2.0))
        assert 0.0 < cand.r_domain < 1.0
        assert find_scale(cand) is not None


class TestCaseSelection:
    def test_citation_mapping(self):
        assert case_for_region(A_PARAMS, Powers(2, 2.5), "T3.i.case1") == "C1"
        assert case_for_region(A_PARAMS, Powers(1.5, 1.5), "T3.i.case2") == "C2"
        assert case_for_region(A_PARAMS, Powers(1.5, 2.0), "T3.i.case3") == "C3"
        assert case_for_region(B_PARAMS, Powers(1.5, 3.2), "T3.ii.a1") == "C4"
        assert case_for_region(B_PARAMS, Powers(2.0, 2.5), "T3.ii.a2") == "C5"
        assert case_for_region(B_PARAMS, Powers(2.0, 3.0), "T3.ii.a2") == "C6"
        assert case_for_region(B_PARAMS, Powers(3.2, 1.5), "T3.ii.b1") == "C8"
        assert case_for_region(B_PARAMS, Powers(3.0, 2.0), "T3.ii.b2") == "C7"

    def test_swapped_orientation_builds_on_swapped_system(self):
        # mu2 < 0 <= mu1: the classifier mirrors the roles; constructions
        # are built and verified for the swapped system
        params = HardyParams(5, 0.0, -2.0)
        pq = Powers(2.5, 2.0)
        region = classify(params, pq)
        assert region.swapped
        assert region.citation == "T3.i.case1"
        case = case_for_region(params.swapped(), pq.swapped(), region.citation)
        cand = build_candidate(case, params.swapped(), pq.swapped())
        found = find_scale(cand)
        assert found is not None and found[1].ok

    def test_classifier_tags_verify(self):
        # sampled points per tag: classify, build, scale, verify
        cases = [(A_PARAMS, Powers(2, 2.5)), (A_PARAMS, Powers(1.5, 1.5)),
                 (A_PARAMS, Powers(1.5, 2.0)), (B_PARAMS, Powers(1.5, 3.2)),
                 (B_PARAMS, Powers(2.0, 2.5)), (B_PARAMS, Powers(2.0, 3.0)),
                 (B_PARAMS, Powers(3.2, 1.5)), (B_PARAMS, Powers(3.0, 2.0))]
        for params, pq in cases:
            region = classify(params, pq)
            assert region.verdict is Verdict.EXISTS_SUPERSOLUTION
            case = case_for_region(params, pq, region.citation)
            cand = build_candidate(case, params, pq)
            found = find_scale(cand)
            assert found is not None, (case, pq)
            assert found[1].ok


#: Wrong-side candidates next to the accepting ones: q above the strip,
#: e1 < 0 in regime A and B, e2 < 0, and a pair that is not positive.
WRONG_SIDE = (("C1", A_PARAMS, Powers(2.0, 5.5)),
              ("C1", A_PARAMS, Powers(4.0, 3.0)),
              ("C4", B_PARAMS, Powers(2.5, 3.54)),
              ("C8", B_PARAMS, Powers(3.5, 3.0)),
              ("C1", A_PARAMS, Powers(2, 4)))


class TestAgainstReference:
    """find_scale and verify_on_grid give the reference's bits."""

    @pytest.mark.parametrize("case, params, pq", ACCEPTING + WRONG_SIDE,
                             ids=[f"{c}-{pq.p}-{pq.q}"
                                  for c, _, pq in ACCEPTING + WRONG_SIDE])
    def test_find_scale(self, case, params, pq):
        cand = build_candidate(case, params, pq,
                               strict=(case, params, pq) in ACCEPTING)
        found, ref = find_scale(cand), find_scale_reference(cand)
        assert (found is None) == (ref is None)
        assert (found is None) == ((case, params, pq) in WRONG_SIDE)
        if found is not None:
            assert found[0].hex() == ref[0].hex()
            assert report_bits(found[1]) == report_bits(ref[1])

    @pytest.mark.parametrize("case, params, pq", ACCEPTING[:1] + WRONG_SIDE,
                             ids=[f"{c}-{pq.p}-{pq.q}"
                                  for c, _, pq in ACCEPTING[:1] + WRONG_SIDE])
    def test_verify_on_grid(self, case, params, pq):
        cand = build_candidate(case, params, pq, strict=False)
        grid = default_grid(cand.r_domain)
        for t in (1.0, 0.5, 10.0):
            assert report_bits(verify_on_grid(cand, t=t)) == \
                report_bits(verify_reference(cand, t, grid))
