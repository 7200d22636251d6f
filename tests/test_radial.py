import copy
import math
import pathlib
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hardylane
from hardylane.exponents import DomainValidationError
from hardylane.radial import (RadialFunction, RadialGrid, RadialTerm,
                              _as_radii, _hardy_image, _term_sums,
                              default_grid)
from oracles import hardy_fd_oracle, hardy_image, mu_zero, pair_of, values

mono = RadialFunction.monomial


def combination(*pairs):
    """The sum of c * f over (c, f) pairs, merged by from_terms; a product
    that is zero (c = 0, or an underflow) adds no term."""
    return RadialFunction.from_terms(
        RadialTerm(t.tau, t.log_power, c * t.coeff)
        for c, f in pairs for t in f.terms if c * t.coeff != 0.0)


def evaluate_reference(f, r):
    """The term sums as a fresh array per partial sum, with -ln r taken
    for every function with terms."""
    arr = np.asarray(r, dtype=float)
    out = np.zeros_like(arr)
    if not f.is_zero:
        ln = np.log(arr)
        for t in f.terms:
            term = t.coeff * arr ** t.tau
            if t.log_power:
                term = term * (-ln)
            out = out + term
    return float(out) if np.ndim(r) == 0 else out


def hex_bits(x):
    return [float(v).hex() for v in np.ravel(x)]


#: Radii from the verification grids' range up to past 1, where -ln r <= 0;
#: at r = 1e-6, r^tau underflows to 0 for tau >= 54.
RADII = st.one_of(st.just(1.0), st.just(1e-6),
                  st.floats(min_value=1e-6, max_value=4.0))

#: Coefficients, +-1 (which _term_sums adds without a product) half the
#: time.
COEFFS = st.one_of(st.sampled_from((1.0, -1.0)),
                   st.floats(min_value=-5.0, max_value=5.0).filter(
                       lambda c: c != 0.0))


@st.composite
def term_lists(draw):
    """(tau, log_power, coeff) triples for from_terms, up to 5 of them.

    Two draws in three lead with a term that is -0.0 at some radii, which
    only the sum's start from 0.0 turns into +0.0: a log term with a
    positive coefficient below every other exponent (c * 1 * -ln 1 is
    -0.0 at r = 1), or a negative coefficient on r^tau with tau >= 56
    below every other exponent (r^tau underflows to 0 at r = 1e-6).
    """
    lead = draw(st.sampled_from(("none", "log", "underflow")))
    low = 56.0 if lead == "underflow" else -8.0
    terms = draw(st.lists(st.tuples(st.floats(min_value=low, max_value=60.0),
                                    st.integers(min_value=0, max_value=1),
                                    COEFFS),
                          max_size=5 if lead == "none" else 4))
    if lead == "log":
        terms.append((draw(st.floats(min_value=-9.0, max_value=-8.0,
                                     exclude_max=True)),
                      1, abs(draw(COEFFS))))
    elif lead == "underflow":
        # below the other exponents: plain terms of equal exponent merge
        tau = draw(st.floats(min_value=low, max_value=60.0))
        terms = [term for term in terms if term[0] > tau]
        terms.append((tau, 0, -abs(draw(COEFFS))))
    return terms


TERMS = term_lists()


@st.composite
def radii_inputs(draw):
    """A scalar, a 0-d array, an (n,) array or a (5, n) array of radii."""
    kind = draw(st.sampled_from(("scalar", "0-d", "(n,)", "(5, n)")))
    if kind == "scalar":
        return draw(RADII)
    if kind == "0-d":
        return np.array(draw(RADII))
    n = draw(st.integers(min_value=1, max_value=8))
    return draw(arrays(np.float64, (n,) if kind == "(n,)" else (5, n),
                       elements=RADII))


class TestEvaluate:
    """The term sums (_term_sums) on radii that _as_radii has checked."""

    def test_constant(self):
        assert values(mono(1.0, 0.0), 0.5) == 1.0

    def test_log_solution_at_threshold(self):
        # r^(-3/2) * (-ln r) in dimension 5 at r = 1/e
        f = mono(1.0, -1.5, log_power=1)
        assert values(f, math.exp(-1.0)) == pytest.approx(math.exp(1.5),
                                                          rel=1e-14)

    def test_two_terms(self):
        f = RadialFunction.power_difference(-1.0, 0.0)
        assert values(f, 0.25) == pytest.approx(3.0, abs=1e-14)

    def test_log_sign_above_one(self):
        f = mono(1.0, 0.0, log_power=1)
        assert values(f, math.e) == pytest.approx(-1.0, rel=1e-14)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainValidationError):
            _as_radii(0.0)
        with pytest.raises(DomainValidationError):
            _as_radii(-1.0)

    def test_array_evaluation(self):
        f = mono(2.0, -1.0)
        out = values(f, np.array([0.5, 0.25]))
        assert np.allclose(out, [4.0, 8.0])

    @given(TERMS, radii_inputs())
    # first terms that are -0.0 at the first radius: a log term at r = 1,
    # with a unit coefficient and not, and past 1 where r^tau underflows;
    # a negative coefficient on an underflowing power, unit and not; then
    # a unit first term, which starts both sums
    @example([(0.5, 1, 1.0)], np.array([1.0, 0.5]))
    @example([(0.5, 1, 2.5)], np.array([1.0, 0.5]))
    @example([(-2.0, 1, 1.0)], np.array([1e300, 0.5]))
    @example([(60.0, 0, -1.0)], np.array([1e-6, 0.5]))
    @example([(60.0, 0, -3.0)], np.array([1e-6, 0.5]))
    @example([(1.0, 0, 1.0), (2.0, 0, -1.0)], np.array([0.25, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bits(self, terms, r):
        f = RadialFunction.from_terms(
            RadialTerm(tau, k, c) for tau, k, c in terms)
        mag_f = RadialFunction.from_terms(
            RadialTerm(t.tau, t.log_power, abs(t.coeff)) for t in f.terms)
        arr = _as_radii(r)
        with np.errstate(all="ignore"):
            out, none = _term_sums(f, arr, False)
            ref = evaluate_reference(f, r)
            value, mag = _term_sums(f, arr, True)
            mag_ref = evaluate_reference(mag_f, r)
        assert none is None
        assert out.shape == value.shape == mag.shape == np.shape(r)
        assert hex_bits(out) == hex_bits(ref)
        assert hex_bits(value) == hex_bits(ref)
        assert hex_bits(mag) == hex_bits(mag_ref)
        # no sum is a view of another or of the radii
        for a, b in ((value, mag), (out, arr), (value, arr), (mag, arr)):
            assert not np.shares_memory(a, b)

    @given(TERMS, RADII)
    @example([(-60.0, 0, 1.0)], 1e-6)      # r^tau overflows Python's **
    @example([(1.0, 0, 1.0), (2.0, 0, -1.0)], 0.25)
    @example([(0.5, 1, 1.0)], 1.0)
    @example([], 0.5)
    @settings(max_examples=300, deadline=None)
    def test_float_radius_sums_in_python_floats(self, terms, r):
        # at one float radius the sums are those of Python's ** and
        # math.log, term by term in order, and a power that overflows
        # raises
        f = RadialFunction.from_terms(
            RadialTerm(tau, k, c) for tau, k, c in terms)
        value = mag = 0.0
        try:
            for t in f.terms:
                term, size = t.coeff * r ** t.tau, abs(t.coeff) * r ** t.tau
                if t.log_power:
                    term, size = term * -math.log(r), size * -math.log(r)
                value, mag = value + term, mag + size
        except OverflowError:
            with pytest.raises(OverflowError):
                _term_sums(f, r, True)
            return
        got_value, got_mag = _term_sums(f, r, True)
        assert hex_bits(got_value) == hex_bits(value)
        assert hex_bits(got_mag) == hex_bits(mag)
        if f.terms:
            assert type(got_value) is float and type(got_mag) is float

    @pytest.mark.parametrize("r", [math.nan, 0.0, -0.0, -1.0, [],
                                   np.zeros((0, 3)), [0.5, math.nan],
                                   np.array([[0.5, 1.0], [2.0, 0.0]])])
    @pytest.mark.parametrize("f", [RadialFunction.zero(), mono(1.0, 1.0),
                                   mono(2.0, -1.5, log_power=1)])
    def test_rejects_invalid_radii(self, f, r):
        # the check runs before any of f's terms is evaluated
        with pytest.raises(DomainValidationError):
            _term_sums(f, _as_radii(r), False)
        with pytest.raises(DomainValidationError):
            _term_sums(f, _as_radii(r), True)


class TestNormalization:
    def test_merge_and_sort(self):
        f = RadialFunction.from_terms([
            RadialTerm(1.0, 0, 2.0), RadialTerm(-1.0, 0, 1.0),
            RadialTerm(1.0, 0, 3.0)])
        assert [t.tau for t in f.terms] == [-1.0, 1.0]
        assert f.terms[1].coeff == 5.0

    def test_cancellation_yields_zero(self):
        f = combination((1.0, mono(1.0, 2.0)), (-1.0, mono(1.0, 2.0)))
        assert f.is_zero

    def test_relative_drop_of_tiny_coefficients(self):
        # a cancellation residue (0.1 + 0.2 - 0.3 = 5.6e-17) is dropped ...
        residue = RadialFunction.from_terms([
            RadialTerm(1.0, 0, 0.1), RadialTerm(1.0, 0, 0.2),
            RadialTerm(1.0, 0, -0.3), RadialTerm(0.0, 0, 1.0)])
        assert 0.1 + 0.2 - 0.3 != 0.0
        assert residue.terms == (RadialTerm(0.0, 0, 1.0),)
        # ... but a term small next to another exponent's term is kept: the
        # operator annihilates the constant and leaves only its image
        f = RadialFunction.from_terms([
            RadialTerm(0.0, 0, 1.0), RadialTerm(1.0, 0, 1e-16)])
        assert f.terms == (RadialTerm(0.0, 0, 1.0), RadialTerm(1.0, 0, 1e-16))
        assert hardy_image(3, 0.0, f).terms == (RadialTerm(-1.0, 0, -2e-16),)

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_power_difference_is_the_merged_difference(self, data):
        exps = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                         st.floats(allow_nan=False, allow_infinity=False))
        a = data.draw(exps)
        b = data.draw(st.one_of(st.just(a), st.just(-a), exps))
        bits = [(t.tau.hex(), t.log_power, t.coeff.hex())
                for t in RadialFunction.power_difference(a, b).terms]
        merged = RadialFunction.from_terms([RadialTerm(a, 0, 1.0),
                                            RadialTerm(b, 0, -1.0)])
        assert bits == [(t.tau.hex(), t.log_power, t.coeff.hex())
                        for t in merged.terms]
        assert (a == b) == (bits == [])

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.nan),
                                      (math.nan, math.nan), (-math.inf,
                                                             -math.inf)])
    def test_power_difference_rejects_non_finite(self, a, b):
        with pytest.raises(DomainValidationError):
            RadialFunction.power_difference(a, b)

    def test_log_power_validation(self):
        with pytest.raises(DomainValidationError):
            RadialTerm(1.0, 2, 1.0)
        with pytest.raises(DomainValidationError):
            RadialTerm(1.0, 0, 0.0)


class TestApplyHardy:
    def test_annihilates_homogeneous_solution(self):
        # tau_+(-2) = -1 in dimension 5
        assert hardy_image(5, -2.0, mono(1.0, -1.0)).is_zero

    def test_power_two(self):
        # mu - tau(tau + N - 2) = -2 - 2*5 = -12
        out = hardy_image(5, -2.0, mono(1.0, 2.0))
        assert len(out.terms) == 1
        t = out.terms[0]
        assert (t.tau, t.log_power) == (0.0, 0)
        assert t.coeff == pytest.approx(-12.0, abs=1e-12)

    def test_log_term_at_kernel_exponent(self):
        # first coefficient vanishes at tau_+; second is 2 tau + N - 2 = 1
        out = hardy_image(5, -2.0, mono(1.0, -1.0, log_power=1))
        assert len(out.terms) == 1
        t = out.terms[0]
        assert (t.tau, t.log_power) == (-3.0, 0)
        assert t.coeff == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200)
    def test_kernel_property(self, N, offset):
        mu = mu_zero(N) + offset
        tau_plus, tau_minus = pair_of(N, mu)
        assert hardy_image(N, mu, mono(1.0, tau_plus)).is_zero
        assert hardy_image(N, mu, mono(1.0, tau_minus)).is_zero

    @given(st.integers(min_value=3, max_value=8),
           st.floats(min_value=0.0, max_value=5.0), term_lists(),
           st.booleans())
    @settings(max_examples=300)
    def test_image_is_merged_as_from_terms_merges(self, N, mu_off, terms,
                                                  kernel):
        # an image of one term or none skips from_terms: it must be what
        # from_terms makes of it, bits and all; kernel adds r^tau_+, whose
        # image vanishes, so a two-term f can have a one-term image
        mu = mu_zero(N) + mu_off
        tau_plus, tau_minus = pair_of(N, mu)
        if kernel:
            terms = terms + [(tau_plus, 0, 1.0)]
        f = RadialFunction.from_terms(RadialTerm(*t) for t in terms)
        image = _hardy_image(N, tau_plus, tau_minus, f)
        merged = RadialFunction.from_terms(image.terms)
        assert [(t.tau.hex(), t.log_power, t.coeff.hex())
                for t in image.terms] == \
            [(t.tau.hex(), t.log_power, t.coeff.hex()) for t in merged.terms]

    @given(st.integers(min_value=3, max_value=10))
    @settings(max_examples=20)
    def test_log_kernel_at_double_root(self, N):
        mu = mu_zero(N)
        tau = pair_of(N, mu)[1]
        assert hardy_image(N, mu, mono(1.0, tau, log_power=1)).is_zero

    @given(st.integers(min_value=3, max_value=8),
           st.floats(min_value=-1.0, max_value=5.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=200)
    def test_linearity(self, N, mu_off, tau_a, tau_b, ca, cb):
        # compared pointwise: the cancellation-residue drop rule may prune
        # the two normalized term lists differently at the 1e-14 level
        mu = mu_zero(N) + mu_off if mu_off > 0 else 0.0
        f = combination((1.0, mono(1.0, tau_a)),
                        (1.0, mono(0.5, tau_b, log_power=1)))
        g = combination((1.0, mono(1.0, tau_b)), (-1.0, mono(2.0, tau_a)))
        lhs = hardy_image(N, mu, combination((ca, f), (cb, g)))
        rhs = combination((ca, hardy_image(N, mu, f)),
                          (cb, hardy_image(N, mu, g)))
        for r in (0.07, 0.35, 0.8):
            ref = sum(abs(t.coeff) * r ** t.tau * abs(math.log(r)) ** t.log_power
                      for t in lhs.terms + rhs.terms)
            assert abs(values(lhs, r) - values(rhs, r)) <= \
                1e-12 * max(1.0, ref)

    def test_linearity_with_small_log_term(self):
        # N=3, mu=0: the constant is a kernel function, so the image of
        # 1e-14 (1 + 0.5 (-ln r)) - 1 is the log term's 5e-15 r^-2 alone
        g = combination((1.0, mono(1.0, 0.0)),
                        (1.0, mono(0.5, 0.0, log_power=1)))
        f = combination((1e-14, g), (-1.0, mono(1.0, 0.0)))
        assert len(f.terms) == 2
        lhs = hardy_image(3, 0.0, f)
        rhs = combination((1e-14, hardy_image(3, 0.0, g)),
                          (-1.0, hardy_image(3, 0.0, mono(1.0, 0.0))))
        assert lhs.terms == rhs.terms == (RadialTerm(-2.0, 0, 5e-15),)
        assert values(lhs, 0.07) == values(rhs, 0.07) > 1e-12

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.001, max_value=10.0),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=300)
    def test_sign_of_coefficient_between_roots(self, N, offset, frac):
        mu = mu_zero(N) + offset
        tau_plus, tau_minus = pair_of(N, mu)
        inside = tau_minus + frac * (tau_plus - tau_minus)
        out = hardy_image(N, mu, mono(1.0, inside))
        if out.terms:
            assert out.terms[0].coeff > 0.0
        above = tau_plus + 0.3 + frac
        out = hardy_image(N, mu, mono(1.0, above))
        assert out.terms[0].coeff < 0.0


class TestFdOracle:
    def test_homogeneous_solution_is_flat(self):
        # second-order stencil: truncation ~ h^2 f''''(r)/3 ~ 3e-5 here
        assert abs(hardy_fd_oracle(5, -2.0, mono(1.0, -1.0), 0.3, 1e-4)) < 1e-4

    def test_power_two_matches_symbolic(self):
        val = hardy_fd_oracle(5, -2.0, mono(1.0, 2.0), 0.5, 1e-4)
        assert type(val) is float
        assert val == pytest.approx(-12.0, abs=1e-5)

    def test_fundamental_solution_low_dimension(self):
        # tau_-(0) = -1 in dimension 3
        assert abs(hardy_fd_oracle(3, 0.0, mono(1.0, -1.0), 0.2, 1e-5)) < 1e-5

    def test_step_validation(self):
        with pytest.raises(DomainValidationError):
            hardy_fd_oracle(5, 0.0, mono(1.0, 1.0), 0.1, 0.05)
        with pytest.raises(DomainValidationError):
            hardy_fd_oracle(5, 0.0, mono(1.0, 1.0), 0.1, 0.0)

    @given(st.integers(min_value=3, max_value=8),
           st.floats(min_value=0.0, max_value=5.0),
           st.lists(st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                              st.integers(min_value=0, max_value=1),
                              st.floats(min_value=0.1, max_value=2.0),
                              st.booleans()),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.floats(min_value=0.05, max_value=1.0,
                                        exclude_min=True, exclude_max=True),
                              st.floats(min_value=1e-3, max_value=1.0)),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_array_matches_scalar_calls(self, N, mu_off, terms, points, bad):
        mu = mu_zero(N) + mu_off
        f = RadialFunction.from_terms(
            RadialTerm(tau, k, -c if neg else c) for tau, k, c, neg in terms)
        radii = np.array([r for r, _ in points])
        steps = np.array([frac * r / 8.0 for r, frac in points])
        out = hardy_fd_oracle(N, mu, f, radii, steps)
        ref = np.array([hardy_fd_oracle(N, mu, f, float(r), float(h))
                        for r, h in zip(radii, steps)])
        assert out.shape == radii.shape
        assert out.tobytes() == ref.tobytes()
        # a scalar step broadcasts against the radii
        h0 = float(np.min(steps))
        ref0 = np.array([hardy_fd_oracle(N, mu, f, float(r), h0)
                         for r in radii])
        assert hardy_fd_oracle(N, mu, f, radii, h0).tobytes() == \
            ref0.tobytes()
        # one bad step anywhere fails the whole call
        steps[bad % len(steps)] = radii[bad % len(steps)] / 4.0
        with pytest.raises(DomainValidationError):
            hardy_fd_oracle(N, mu, f, radii, steps)

    def test_second_order_convergence(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            N = int(rng.integers(3, 8))
            mu = mu_zero(N) + rng.uniform(0.0, 5.0)
            terms = [RadialTerm(rng.uniform(-3, 3), int(rng.integers(0, 2)),
                                rng.uniform(0.2, 1.0) * rng.choice([-1, 1]))
                     for _ in range(int(rng.integers(1, 5)))]
            f = RadialFunction.from_terms(terms)
            sym = hardy_image(N, mu, f)
            radii = np.geomspace(0.05, 0.8, 16)

            def rms(h):
                devs = [hardy_fd_oracle(N, mu, f, float(r), h)
                        - float(values(sym, float(r))) for r in radii]
                return math.sqrt(sum(d * d for d in devs) / len(devs))

            e1, e2 = rms(1e-3), rms(5e-4)
            if e1 < 1e-8:
                assert e2 < 1e-8  # oracle exact for this f: trivially matched
                continue
            assert 3.5 <= e1 / e2 <= 4.5
            checked += 1
        assert checked >= 30


class TestGrid:
    def test_log_spacing(self):
        g = RadialGrid(1e-4, 1.0, 5)
        ratios = g.radii[1:] / g.radii[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            RadialGrid(0.0, 1.0, 10)
        with pytest.raises(DomainValidationError):
            RadialGrid(0.5, 0.4, 10)
        with pytest.raises(DomainValidationError):
            RadialGrid(0.1, 1.0, 1)

    @pytest.mark.parametrize("r_min, r_max", [
        (1e-6, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
        (1e-6, math.nan), (math.inf, math.inf)])
    def test_non_finite_bounds_rejected(self, r_min, r_max):
        # inf passes 0 < r_min < r_max; the grid would hold r = inf
        with pytest.raises(DomainValidationError, match="both finite") as err:
            RadialGrid(r_min, r_max, 4)
        assert "\n" not in str(err.value)

    def test_default_grid(self):
        g = default_grid()
        assert g.count == 512
        assert g.r_min == 1e-6
        assert g.r_max == pytest.approx(0.999)

    @given(st.floats(min_value=1e-12, max_value=10.0),
           st.floats(min_value=1.0 + 1e-9, max_value=1e6),
           st.integers(min_value=2, max_value=2048))
    @settings(max_examples=100, deadline=None)
    def test_radii_are_geomspace(self, r_min, ratio, count):
        g = RadialGrid(r_min, r_min * ratio, count)
        expected = np.geomspace(g.r_min, g.r_max, g.count)
        assert g.radii.tobytes() == expected.tobytes()
        # a second read, through an equal grid too, gives the same values
        assert RadialGrid(g.r_min, g.r_max, g.count).radii.tobytes() == \
            expected.tobytes()

    def test_radii_are_read_only(self):
        g = RadialGrid(1e-6, 0.999, 512)
        before = g.radii.copy()
        with pytest.raises(ValueError):
            g.radii[0] = 1.0
        with pytest.raises(ValueError):
            g.radii *= 2.0
        assert g.radii.tobytes() == before.tobytes()

    def test_radii_are_one_object_kept_through_copies(self):
        # made once per grid: every read gives the same read-only array,
        # and a copied or unpickled grid holds equal, read-only radii
        g = RadialGrid(1e-6, 0.999, 512)
        assert g.radii is g.radii
        assert not g.radii.flags.writeable
        for other in (copy.copy(g), copy.deepcopy(g),
                      pickle.loads(pickle.dumps(g))):
            assert other == g
            assert other.radii.tobytes() == g.radii.tobytes()
            assert not other.radii.flags.writeable
            with pytest.raises(ValueError):
                other.radii[0] = 1.0
        assert g.radii.tobytes() == np.geomspace(1e-6, 0.999, 512).tobytes()

    @pytest.mark.parametrize("r_min, r_max", [(1.0, math.nan),
                                              (-1.0, -2.0)])
    def test_log_radii_are_checked(self, r_min, r_max):
        # bounds that would make radii NaN or negative are refused before
        # any radius is made
        with pytest.raises(DomainValidationError, match="both finite"):
            RadialGrid(r_min, r_max, 4)

    @pytest.mark.parametrize("r_min, r_max", [
        (1e-6, math.inf), (-math.inf, 1.0), (math.inf, math.inf)])
    def test_log_radii_reject_infinite_bounds(self, r_min, r_max):
        # geomspace would warn and return inf radii; the grid raises first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainValidationError) as err:
                RadialGrid(r_min, r_max, 4)
        assert "both finite" in str(err.value)
        assert "\n" not in str(err.value)

    def test_count_type_is_kept(self):
        assert RadialGrid(1e-3, 1.0, 4).radii.size == 4

    @pytest.mark.parametrize("count", [4.0, 512.5, 3.0, True, "4", None,
                                       np.float64(4.0)])
    def test_count_must_be_an_integer(self, count):
        # a grid that constructs reads its radii; bool is not a count
        with pytest.raises(DomainValidationError, match="count must be an "
                           "integer") as err:
            RadialGrid(1e-6, 0.999, count)
        assert "\n" not in str(err.value)

    def test_count_of_numpy_integer_type(self):
        grid = RadialGrid(1e-6, 0.999, np.int64(5))
        assert grid.radii.tobytes() == np.geomspace(1e-6, 0.999, 5).tobytes()
        with pytest.raises(DomainValidationError, match=">= 2"):
            RadialGrid(1e-6, 0.999, np.int64(1))


#: Formula shapes with one owner each, among the package's and the tests'
#: files: the 5-point stencil combinations and their denominators in
#: tests/oracles.py's hardy_fd_oracle (the package has no finite-difference
#: operator), and the factored root coefficient -(tau - tau_+)(tau - tau_-)
#: in radial._hardy_image.
_OWNED_FORMULAS = (
    (r"8\.0 \* fp1|8\.0 \* fm1|2\.0 \* f0\b|12\.0 \* h|4\.0 \* h \* h",
     "tests/oracles.py", 2),
    (r"tau_plus\)\s*\*\s*\(|tau_minus\)\s*\*\s*\(",
     "hardylane/radial.py", 1))


@pytest.mark.parametrize("pattern, owner, lines", _OWNED_FORMULAS,
                         ids=["fd_stencil", "root_coefficient"])
def test_operator_formulas_have_one_owner(pattern, owner, lines):
    package = pathlib.Path(hardylane.__file__).parent
    tests = pathlib.Path(__file__).parent
    hits = [f"{path.parent.name}/{path.name}:{n}: {line.strip()}"
            for path in sorted(package.rglob("*.py")) + sorted(
                tests.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert [hit.split(":")[0] for hit in hits] == [owner] * lines, hits
