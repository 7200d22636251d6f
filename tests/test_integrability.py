import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylane.integrability import power_verdict
from hardylane.radial import RadialFunction
from oracles import mu_zero, pair_of
from quadrature import integral_behavior, weighted_integral

mono = RadialFunction.monomial


class TestVerdicts:
    def test_borderline_divergent(self):
        v = power_verdict(5, -5.0, pair_of(5, 0.0)[0])
        assert not v.integrable
        assert v.critical_exponent_gap == pytest.approx(0.0, abs=1e-14)

    def test_barely_integrable(self):
        v = power_verdict(5, -4.999, pair_of(5, 0.0)[0])
        assert v.integrable
        assert v.critical_exponent_gap == pytest.approx(0.001, abs=1e-12)

    def test_negative_weight_shifts_threshold(self):
        # tau_+(-2) = -1: sigma = -4 - 1 + 5 = 0
        v = power_verdict(5, -4.0, pair_of(5, -2.0)[0])
        assert not v.integrable
        assert v.critical_exponent_gap == pytest.approx(0.0, abs=1e-14)

    def test_log_factor_never_rescues(self):
        # sigma = 0: the power's verdict holds for r^-4 (-ln r) as well
        assert not power_verdict(5, -4.0, pair_of(5, -2.0)[0]).integrable
        kind, _ = integral_behavior(5, -2.0, mono(1.0, -4.0, log_power=1))
        assert kind == "divergent"

    def test_log_factor_kept_when_margin_positive(self):
        # sigma = 1/2: r^-3.5 (-ln r) stays integrable, as its power says
        assert power_verdict(5, -3.5, pair_of(5, -2.0)[0]).integrable
        kind, _ = integral_behavior(5, -2.0, mono(1.0, -3.5, log_power=1))
        assert kind == "convergent"

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-2.0, max_value=2.0).filter(
               lambda d: abs(d) > 1e-6))
    @settings(max_examples=300)
    def test_threshold_sharpness(self, N, off, delta):
        mu = mu_zero(N) + off
        tp = pair_of(N, mu)[0]
        tau = -N - tp + delta  # sigma = delta
        v = power_verdict(N, tau, tp)
        assert v.integrable == (delta > 0.0)
        assert v.critical_exponent_gap == pytest.approx(delta, abs=1e-9)


class TestQuadratureCrossCheck:
    def test_log_divergence_detected(self):
        kind, vals = integral_behavior(5, 0.0, mono(1.0, -5.0))
        assert kind == "divergent"
        # level increments: I ~ ln(1/eps)
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-6)

    def test_barely_convergent_detected(self):
        kind, _ = integral_behavior(5, 0.0, mono(1.0, -4.999))
        assert kind == "convergent"

    def test_power_divergence_grows_fast(self):
        kind, vals = integral_behavior(5, 0.0, mono(1.0, -5.5))
        assert kind == "divergent"
        assert vals[2] > 10.0 * vals[0]

    def test_comfortable_convergence(self):
        # sigma = 2: the truncated integrals settle to 1e-6 relative
        kind, vals = integral_behavior(5, 0.0, mono(1.0, -3.0))
        assert kind == "convergent"
        assert abs(vals[2] - vals[1]) < 1e-6 * abs(vals[2])

    def test_quadrature_matches_closed_form(self):
        # int_eps^1 r^(-1/2) dr with weight r^4 over dimension-5 measure:
        # f = r^(-4.5): integrand r^(-0.5), integral = 2(1 - sqrt(eps))
        val = weighted_integral(5, 0.0, mono(1.0, -4.5), eps=1e-4)
        assert val == pytest.approx(2.0 * (1.0 - 1e-2), rel=1e-9)

    def test_log_integrand_value(self):
        # f = r^(-5) (-ln r): integrand (-ln r)/r, integral = ln(1/eps)^2/2
        val = weighted_integral(5, 0.0, mono(1.0, -5.0, log_power=1), eps=1e-3)
        assert val == pytest.approx(math.log(1e3) ** 2 / 2.0, rel=1e-9)

    @given(st.integers(min_value=3, max_value=8),
           st.floats(min_value=0.0, max_value=6.0),
           st.sampled_from([-1.5, -0.8, -0.3, 0.3, 0.8, 1.5]),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_detector_agrees_with_verdict(self, N, off, sigma, logk):
        mu = mu_zero(N) + off
        tp = pair_of(N, mu)[0]
        f = mono(1.0, sigma - tp - N, log_power=logk)
        verdict = power_verdict(N, f.terms[0].tau, tp)
        kind, _ = integral_behavior(N, mu, f)
        assert verdict.integrable == (kind == "convergent")
