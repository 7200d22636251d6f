import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylane.exponents import (DomainValidationError, HardyParams, Powers,
                                 boundary_expressions, mu_zero, p_star,
                                 root_coefficient, snap_mu, tau_pair)


class TestMuZero:
    def test_small_dimensions(self):
        assert mu_zero(3) == -0.25
        assert mu_zero(4) == -1.0
        assert mu_zero(5) == -2.25

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainValidationError):
            mu_zero(2)

    def test_rejects_non_integer(self):
        with pytest.raises(DomainValidationError):
            mu_zero(4.5)


class TestTauPair:
    def test_mu_zero_coefficient_gives_homogeneous_roots(self):
        pair = tau_pair(5, 0.0)
        assert pair.tau_plus == 0.0
        assert pair.tau_minus == -3.0

    def test_double_root_at_threshold(self):
        pair = tau_pair(5, -2.25)
        assert pair.tau_plus == pair.tau_minus == -1.5
        assert pair.is_double_root

    def test_quadratic_solution(self):
        # -2 = tau (tau + 3) has roots -1 and -2
        pair = tau_pair(5, -2.0)
        assert pair.tau_plus == pytest.approx(-1.0, abs=1e-14)
        assert pair.tau_minus == pytest.approx(-2.0, abs=1e-14)

    def test_rejects_below_threshold(self):
        with pytest.raises(DomainValidationError):
            tau_pair(5, -2.2500001)

    def test_snap_band(self):
        assert snap_mu(5, -2.25 - 5e-13) == -2.25
        assert snap_mu(5, -2.25 + 5e-13) == -2.25
        assert snap_mu(5, -2.24) == -2.24
        with pytest.raises(DomainValidationError):
            snap_mu(5, -2.25 - 1e-11)


@st.composite
def admissible(draw):
    N = draw(st.integers(min_value=3, max_value=12))
    mu = mu_zero(N) + draw(st.floats(min_value=0.0, max_value=30.0))
    return N, mu


class TestRootProperties:
    @given(admissible())
    @settings(max_examples=400)
    def test_root_identity(self, Nmu):
        N, mu = Nmu
        pair = tau_pair(N, mu)
        tol = 1e-12 * max(1.0, abs(mu))
        for tau in (pair.tau_plus, pair.tau_minus):
            assert abs(mu - tau * (tau + N - 2)) <= tol

    @given(admissible())
    @settings(max_examples=400)
    def test_vieta(self, Nmu):
        N, mu = Nmu
        pair = tau_pair(N, mu)
        assert abs(pair.tau_plus + pair.tau_minus + (N - 2)) <= 1e-12
        assert abs(pair.tau_plus * pair.tau_minus + mu) <= 1e-12 * max(1.0, abs(mu))

    @given(st.integers(min_value=3, max_value=12),
           st.floats(min_value=0.001, max_value=10.0),
           st.floats(min_value=0.001, max_value=10.0))
    @settings(max_examples=200)
    def test_monotonicity(self, N, d1, d2):
        lo = mu_zero(N) + d1
        hi = lo + d2
        assert tau_pair(N, hi).tau_plus > tau_pair(N, lo).tau_plus
        assert tau_pair(N, hi).tau_minus < tau_pair(N, lo).tau_minus

    @given(admissible())
    @settings(max_examples=400)
    def test_sign_regimes(self, Nmu):
        N, mu = Nmu
        tp = tau_pair(N, mu).tau_plus
        if mu < 0:
            assert tp < 0
        elif mu == 0:
            assert tp == 0
        else:
            assert tp > 0

    @given(admissible(), st.floats(min_value=-6, max_value=6))
    @settings(max_examples=300)
    def test_factored_coefficient_matches_expanded(self, Nmu, tau):
        N, mu = Nmu
        # mu inside the snap band is mu_zero, as in tau_pair
        expanded = snap_mu(N, mu) - tau * (tau + N - 2)
        scale = max(1.0, abs(expanded))
        assert abs(root_coefficient(N, mu, tau) - expanded) <= 1e-12 * scale


class TestPStar:
    def test_worked_values(self):
        assert p_star(5, -2.0) == pytest.approx(3.0, abs=1e-14)
        assert p_star(4, -1.0) == pytest.approx(3.0, abs=1e-14)
        assert p_star(5, -2.25) == pytest.approx(1.0 + 4.0 / 3.0, abs=1e-14)

    def test_rejects_nonnegative_mu(self):
        with pytest.raises(DomainValidationError):
            p_star(5, 0.0)
        with pytest.raises(DomainValidationError):
            p_star(5, 1.0)


class TestBoundaryExpressions:
    def test_worked_example(self):
        vals = boundary_expressions(HardyParams(5, -2.0, 0.0), Powers(2, 4))
        # tau_+(mu1) = -1: e1 = -(8 - 1) + 4 + 2
        assert vals.e1 == pytest.approx(-1.0, abs=1e-12)
        assert vals.q_upper == pytest.approx(5.0, abs=1e-12)
        assert vals.p_upper is None  # tau_+(mu2) = 0: ratio undefined

    def test_identity_e3_equals_e1_at_threshold(self):
        params = HardyParams(5, -2.25, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(500):
            p, q = rng.uniform(0.1, 50.0, 2)
            vals = boundary_expressions(params, Powers(p, q))
            assert abs(vals.e3 - vals.e1) <= 1e-12

    def test_regime_b_thresholds(self):
        vals = boundary_expressions(HardyParams(5, -2.0, -2.0), Powers(2, 2))
        assert vals.q_upper == pytest.approx(4.0)
        assert vals.p_upper == pytest.approx(4.0)
        assert vals.q_lower == pytest.approx(3.0)
        assert vals.p_lower == pytest.approx(3.0)


class TestParamTypes:
    def test_hardy_params_snaps(self):
        params = HardyParams(5, -2.25 - 1e-14, 0.0)
        assert params.mu1 == -2.25
        assert params.tau1.is_double_root

    def test_hardy_params_rejects(self):
        with pytest.raises(DomainValidationError):
            HardyParams(2, 0.0, 0.0)
        with pytest.raises(DomainValidationError):
            HardyParams(5, -3.0, 0.0)

    def test_swap(self):
        params = HardyParams(5, -2.0, 1.0).swapped()
        assert (params.mu1, params.mu2) == (1.0, -2.0)
        assert Powers(2.0, 3.0).swapped() == Powers(3.0, 2.0)

    def test_powers_validation(self):
        with pytest.raises(DomainValidationError):
            Powers(0.0, 1.0)
        with pytest.raises(DomainValidationError):
            Powers(1.0, -2.0)
        with pytest.raises(DomainValidationError):
            Powers(math.inf, 1.0)
