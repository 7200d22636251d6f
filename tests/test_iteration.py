import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.iteration import (CertificateKind, affine_fixed_point,
                                 claim1_check, crossing_step_bound,
                                 iterate_clamped, iterate_plain)


class TestPlainIteration:
    def test_worked_crossing(self):
        # seeds (-1, 0); tau2 <- -1*4 + 2 = -2; tau1 <- -2*2 + 2 = -2 = tau_-
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 4), cap=100)
        assert trace.outcome.kind is CertificateKind.CROSSED_TAU1
        assert trace.outcome.step == 1
        assert trace.outcome.value == -2.0
        assert trace.outcome.threshold == -2.0
        assert trace.steps[1].tau2 == -2.0

    def test_seed_step(self):
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 4))
        assert trace.steps[0].j == 0
        assert trace.steps[0].tau1 == -1.0
        assert trace.steps[0].tau2 == 0.0

    def test_stall_on_critical_curve(self):
        # e1 = 0 at (p, q) = (3, 3) for tau_+ = -1
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(3, 3), cap=100)
        assert trace.outcome.kind is CertificateKind.STALLED
        assert trace.outcome.step == 1

    def test_contracting_never_crosses(self):
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(0.5, 1.0),
                              cap=100)
        assert trace.outcome.kind in (CertificateKind.CAP_REACHED,
                                      CertificateKind.STALLED)
        assert not trace.crossed

    def test_cap_semantics(self):
        # slow decay: e1 = -(pq - 1) + 2p + 2 = -0.02 at p=2, q=3.51
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 3.51),
                              cap=1)
        assert trace.outcome.kind is CertificateKind.CAP_REACHED
        assert trace.outcome.step == 1

    def test_runaway_guard_keeps_values_finite(self):
        # subcritical with pq > 1: exponents diverge upward
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 2))
        assert trace.outcome.kind is CertificateKind.CAP_REACHED
        assert math.isfinite(trace.outcome.value)

    def test_cap_validation(self):
        with pytest.raises(DomainValidationError):
            iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 4), cap=0)


class TestClampedIteration:
    def test_worked_crossing(self):
        trace = iterate_clamped(HardyParams(5, -2.0, -2.0), Powers(2.5, 3.5),
                                cap=100)
        assert trace.outcome.kind is CertificateKind.CROSSED_TAU2
        assert trace.outcome.step == 2
        assert trace.outcome.value == -4.125
        assert trace.steps[1].tau2 == -1.5
        assert trace.steps[1].tau1 == -1.75
        assert trace.steps[2].tau1_carried

    def test_clamp_binds_for_mild_powers(self):
        # q below (2 - t2)/(-t1): tau1*q + 2 > tau2 seed, so the clamp binds
        trace = iterate_clamped(HardyParams(5, -2.0, -2.0), Powers(1.2, 1.5),
                                cap=3)
        assert trace.steps[1].tau2 == -1.0
        assert trace.steps[1].tau2_clamped

    def test_consistency_with_plain_when_clamp_inactive(self):
        params = HardyParams(5, -2.0, -2.0)
        pq = Powers(2.5, 3.5)
        a = iterate_plain(params, pq, cap=50)
        b = iterate_clamped(params, pq, cap=50)
        assert a.outcome == b.outcome
        assert [(s.tau1, s.tau2) for s in a.steps] == \
               [(s.tau1, s.tau2) for s in b.steps]

    def test_stall_on_boundary_curve(self):
        # symmetric config: e1 = 0 at (3, 3); clamps inactive there
        trace = iterate_clamped(HardyParams(5, -2.0, -2.0), Powers(3, 3),
                                cap=50)
        assert trace.outcome.kind is CertificateKind.STALLED


class TestClaim1:
    def _slow_trace(self):
        # e1 barely negative: many steps before crossing
        params = HardyParams(10, -12.0, 0.0)
        pq = Powers(2, 2.0001)
        return iterate_plain(params, pq, cap=2000), pq

    def test_geometric_law_holds(self):
        trace, pq = self._slow_trace()
        assert trace.crossed
        assert len(trace.steps) >= 5
        assert claim1_check(trace, pq)

    def test_corrupted_trace_detected(self):
        trace, pq = self._slow_trace()
        steps = list(trace.steps)
        k = len(steps) // 2
        steps[k] = replace(steps[k], tau1=steps[k].tau1 - 0.05)
        assert not claim1_check(replace(trace, steps=steps), pq)

    def test_rejects_short_trace(self):
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 4))
        with pytest.raises(DomainValidationError):
            claim1_check(trace, Powers(2, 4))

    def test_stalled_trace_satisfies_law(self):
        # on the critical curve all differences vanish: 0 = pq * 0
        trace = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(3, 3), cap=10)
        # stalled at step 1: too short for the check; extend via cap trace
        # at the fixed point the law is vacuous, so use a capped subcritical
        # run that contracts toward the fixed point instead
        params = HardyParams(5, -2.0, 0.0)
        pq = Powers(0.5, 1.0)
        capped = iterate_plain(params, pq, cap=30)
        assert claim1_check(capped, pq)


class TestStallCharacterization:
    def test_stall_iff_on_critical_curve(self):
        # expansive iterations (pq > 1) stall exactly when e1 = 0; off the
        # curve they either cross (e1 < 0) or run away upward (e1 > 0)
        rng = np.random.default_rng(17)
        params = HardyParams(5, -2.0, 0.0)
        t1 = params.tau1.tau_plus
        for _ in range(60):
            p = rng.uniform(1.2, 6.0)
            q_crit = (t1 - 2.0 * p - 2.0) / (t1 * p)
            on = iterate_plain(params, Powers(p, q_crit), cap=50)
            assert on.outcome.kind is CertificateKind.STALLED
            below = iterate_plain(params, Powers(p, q_crit * 1.01), cap=200)
            assert below.crossed
            above = iterate_plain(params, Powers(p, q_crit * 0.99), cap=200)
            assert above.outcome.kind is not CertificateKind.STALLED
            assert not above.crossed


class TestAffineStructure:
    def test_full_cycle_is_affine(self):
        params = HardyParams(6, -3.0, -1.0)
        pq = Powers(2.2, 3.1)
        trace = iterate_plain(params, pq, cap=50)
        ratio = pq.p * pq.q
        shift = 2.0 * pq.p + 2.0
        taus = [s.tau1 for s in trace.steps if not s.tau1_carried]
        for a, b in zip(taus, taus[1:]):
            assert b == pytest.approx(ratio * a + shift, rel=1e-12, abs=1e-12)

    def test_crossing_bound_sampled(self):
        rng = np.random.default_rng(5)
        hits = 0
        while hits < 200:
            N = int(rng.integers(3, 9))
            mu0 = -((N - 2) ** 2) / 4.0
            mu1 = rng.uniform(mu0, -1e-3)
            mu2 = rng.uniform(0.0, 3.0)
            params = HardyParams(N, mu1, mu2)
            t1 = params.tau1.tau_plus
            t2 = params.tau2.tau_plus
            qlo, qup = 2.0 / (-t1), (N + t2) / (-t1)
            q = rng.uniform(qlo * 1.001, qup * 0.999)
            p_min = (2.0 - t1) / (-(t1 * q + 2.0))
            p = p_min * (1.0 + 10.0 ** rng.uniform(-3, 0.5))
            pq = Powers(p, q)
            trace = iterate_plain(params, pq)
            assert trace.crossed
            bound = crossing_step_bound(params, pq)
            assert trace.outcome.step <= bound + 2
            hits += 1

    def test_fixed_point_undefined_at_pq_one(self):
        with pytest.raises(DomainValidationError):
            affine_fixed_point(Powers(2.0, 0.5))

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=300)
    def test_fixed_point_next_to_pq_one(self, p, ulps):
        q = 1.0 / p
        for _ in range(abs(ulps)):
            q = math.nextafter(q, math.copysign(math.inf, ulps))
        pq = Powers(p, q)
        if p * q == 1.0:
            with pytest.raises(DomainValidationError):
                affine_fixed_point(pq)
            return
        fix = affine_fixed_point(pq)
        assert math.isfinite(fix)
        assert (fix > 0.0) == (p * q < 1.0)

    def test_bound_requires_supercritical(self):
        with pytest.raises(DomainValidationError):
            crossing_step_bound(HardyParams(5, -2.0, 0.0), Powers(0.5, 1.0))
