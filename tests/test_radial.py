import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hardylane
from hardylane.exponents import (DomainValidationError, mu_zero, snap_mu,
                                 tau_pair)
from hardylane.radial import (PositivityError, RadialFunction, RadialGrid,
                              RadialTerm, _fd_hardy, _fd_stencil, apply_hardy,
                              default_grid, evaluate, evaluate_with_magnitude,
                              hardy_fd_oracle, log_radii, pow_eval, scale)

mono = RadialFunction.monomial


def evaluate_reference(f, r):
    """evaluate's formula before it accumulated in place: a fresh array per
    partial sum and -ln r taken for every function with terms."""
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


#: Radii from the verification grids' range up to past 1, where -ln r <= 0.
RADII = st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=4.0))

#: Plain and log terms, merged by from_terms; exponents up to 60 make
#: r^tau underflow at small radii, so some terms are -0.0.
TERMS = st.lists(st.tuples(st.floats(min_value=-8.0, max_value=60.0),
                           st.integers(min_value=0, max_value=1),
                           st.floats(min_value=-5.0, max_value=5.0).filter(
                               lambda c: c != 0.0)),
                 max_size=5)


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
    def test_constant(self):
        assert evaluate(mono(1.0, 0.0), 0.5) == 1.0

    def test_log_solution_at_threshold(self):
        # r^(-3/2) * (-ln r) in dimension 5 at r = 1/e
        f = mono(1.0, -1.5, log_power=1)
        assert evaluate(f, math.exp(-1.0)) == pytest.approx(math.exp(1.5),
                                                            rel=1e-14)

    def test_two_terms(self):
        f = mono(1.0, -1.0) - mono(1.0, 0.0)
        assert evaluate(f, 0.25) == pytest.approx(3.0, abs=1e-14)

    def test_log_sign_above_one(self):
        f = mono(1.0, 0.0, log_power=1)
        assert evaluate(f, math.e) == pytest.approx(-1.0, rel=1e-14)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainValidationError):
            evaluate(mono(1.0, 1.0), 0.0)
        with pytest.raises(DomainValidationError):
            evaluate(mono(1.0, 1.0), -1.0)

    def test_array_evaluation(self):
        f = mono(2.0, -1.0)
        out = evaluate(f, np.array([0.5, 0.25]))
        assert np.allclose(out, [4.0, 8.0])

    @given(TERMS, radii_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bits(self, terms, r):
        f = RadialFunction.from_terms(
            RadialTerm(tau, k, c) for tau, k, c in terms)
        mag_f = RadialFunction.from_terms(
            RadialTerm(t.tau, t.log_power, abs(t.coeff)) for t in f.terms)
        with np.errstate(all="ignore"):
            out = evaluate(f, r)
            ref = evaluate_reference(f, r)
            value, mag = evaluate_with_magnitude(f, r)
            mag_ref = evaluate_reference(mag_f, r)
        if np.ndim(r) == 0:
            assert type(out) is type(value) is type(mag) is float
        else:
            assert out.shape == value.shape == mag.shape == np.shape(r)
        assert hex_bits(out) == hex_bits(ref)
        assert hex_bits(value) == hex_bits(ref)
        assert hex_bits(mag) == hex_bits(mag_ref)

    @pytest.mark.parametrize("r", [math.nan, 0.0, -0.0, -1.0, [],
                                   np.zeros((0, 3)), [0.5, math.nan],
                                   np.array([[0.5, 1.0], [2.0, 0.0]])])
    @pytest.mark.parametrize("f", [RadialFunction.zero(), mono(1.0, 1.0),
                                   mono(2.0, -1.5, log_power=1)])
    def test_rejects_invalid_radii(self, f, r):
        with pytest.raises(DomainValidationError):
            evaluate(f, r)
        with pytest.raises(DomainValidationError):
            evaluate_with_magnitude(f, r)


class TestNormalization:
    def test_merge_and_sort(self):
        f = RadialFunction.from_terms([
            RadialTerm(1.0, 0, 2.0), RadialTerm(-1.0, 0, 1.0),
            RadialTerm(1.0, 0, 3.0)])
        assert [t.tau for t in f.terms] == [-1.0, 1.0]
        assert f.terms[1].coeff == 5.0

    def test_cancellation_yields_zero(self):
        f = mono(1.0, 2.0) - mono(1.0, 2.0)
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
        assert apply_hardy(3, 0.0, f).terms == (RadialTerm(-1.0, 0, -2e-16),)

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_power_difference_is_the_merged_difference(self, data):
        exps = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                         st.floats(allow_nan=False, allow_infinity=False))
        a = data.draw(exps)
        b = data.draw(st.one_of(st.just(a), st.just(-a), exps))
        bits = [(t.tau.hex(), t.log_power, t.coeff.hex())
                for t in RadialFunction.power_difference(a, b).terms]
        assert bits == [(t.tau.hex(), t.log_power, t.coeff.hex())
                        for t in (mono(1.0, a) - mono(1.0, b)).terms]
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
        assert apply_hardy(5, -2.0, mono(1.0, -1.0)).is_zero

    def test_power_two(self):
        # mu - tau(tau + N - 2) = -2 - 2*5 = -12
        out = apply_hardy(5, -2.0, mono(1.0, 2.0))
        assert len(out.terms) == 1
        t = out.terms[0]
        assert (t.tau, t.log_power) == (0.0, 0)
        assert t.coeff == pytest.approx(-12.0, abs=1e-12)

    def test_log_term_at_kernel_exponent(self):
        # first coefficient vanishes at tau_+; second is 2 tau + N - 2 = 1
        out = apply_hardy(5, -2.0, mono(1.0, -1.0, log_power=1))
        assert len(out.terms) == 1
        t = out.terms[0]
        assert (t.tau, t.log_power) == (-3.0, 0)
        assert t.coeff == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200)
    def test_kernel_property(self, N, offset):
        mu = mu_zero(N) + offset
        pair = tau_pair(N, mu)
        assert apply_hardy(N, mu, mono(1.0, pair.tau_plus)).is_zero
        assert apply_hardy(N, mu, mono(1.0, pair.tau_minus)).is_zero

    @given(st.integers(min_value=3, max_value=10))
    @settings(max_examples=20)
    def test_log_kernel_at_double_root(self, N):
        mu = mu_zero(N)
        tau = tau_pair(N, mu).tau_minus
        assert apply_hardy(N, mu, mono(1.0, tau, log_power=1)).is_zero

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
        f = mono(1.0, tau_a) + mono(0.5, tau_b, log_power=1)
        g = mono(1.0, tau_b) - mono(2.0, tau_a)
        lhs = apply_hardy(N, mu, scale(f, ca) + scale(g, cb))
        rhs = scale(apply_hardy(N, mu, f), ca) + scale(apply_hardy(N, mu, g), cb)
        for r in (0.07, 0.35, 0.8):
            ref = sum(abs(t.coeff) * r ** t.tau * abs(math.log(r)) ** t.log_power
                      for t in lhs.terms + rhs.terms)
            assert abs(evaluate(lhs, r) - evaluate(rhs, r)) <= \
                1e-12 * max(1.0, ref)

    def test_linearity_with_small_log_term(self):
        # N=3, mu=0: the constant is a kernel function, so the image of
        # 1e-14 (1 + 0.5 (-ln r)) - 1 is the log term's 5e-15 r^-2 alone
        g = mono(1.0, 0.0) + mono(0.5, 0.0, log_power=1)
        f = scale(g, 1e-14) - mono(1.0, 0.0)
        assert len(f.terms) == 2
        lhs = apply_hardy(3, 0.0, f)
        rhs = scale(apply_hardy(3, 0.0, g), 1e-14) - \
            apply_hardy(3, 0.0, mono(1.0, 0.0))
        assert lhs.terms == rhs.terms == (RadialTerm(-2.0, 0, 5e-15),)
        assert evaluate(lhs, 0.07) == evaluate(rhs, 0.07) > 1e-12

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.001, max_value=10.0),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=300)
    def test_sign_of_coefficient_between_roots(self, N, offset, frac):
        mu = mu_zero(N) + offset
        pair = tau_pair(N, mu)
        inside = pair.tau_minus + frac * (pair.tau_plus - pair.tau_minus)
        out = apply_hardy(N, mu, mono(1.0, inside))
        if out.terms:
            assert out.terms[0].coeff > 0.0
        above = pair.tau_plus + 0.3 + frac
        out = apply_hardy(N, mu, mono(1.0, above))
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

    @given(st.integers(min_value=3, max_value=8),
           # 5e-14 inside the snap band, so the oracle snaps mu itself
           st.one_of(st.floats(min_value=0.0, max_value=5.0),
                     st.sampled_from([-5e-14, 5e-14])),
           st.lists(st.lists(st.tuples(st.floats(min_value=-3.0,
                                                 max_value=3.0),
                                       st.integers(min_value=0, max_value=1),
                                       st.floats(min_value=-2.0,
                                                 max_value=2.0).filter(
                                           lambda c: c != 0.0)),
                             max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.floats(min_value=1e-6, max_value=2.0),
                              st.floats(min_value=1e-3, max_value=1.0)),
                    min_size=1, max_size=8),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_shared_stencil_matches_oracle(self, N, mu_off, functions,
                                           points, scalar):
        # one stencil for several functions gives hardy_fd_oracle's bits
        mu = mu_zero(N) + mu_off
        if scalar:
            r, h = points[0][0], points[0][0] * points[0][1] / 8.0
        else:
            r = np.array([x for x, _ in points])
            h = np.array([x * frac / 8.0 for x, frac in points])
        stencil = _fd_stencil(r, h)
        for terms in functions:
            f = RadialFunction.from_terms(RadialTerm(*t) for t in terms)
            shared = _fd_hardy(N, snap_mu(N, mu), f, stencil)
            assert np.asarray(shared).tobytes() == \
                np.asarray(hardy_fd_oracle(N, mu, f, r, h)).tobytes()

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
            sym = apply_hardy(N, mu, f)
            radii = np.geomspace(0.05, 0.8, 16)

            def rms(h):
                devs = [hardy_fd_oracle(N, mu, f, float(r), h)
                        - float(evaluate(sym, float(r))) for r in radii]
                return math.sqrt(sum(d * d for d in devs) / len(devs))

            e1, e2 = rms(1e-3), rms(5e-4)
            if e1 < 1e-8:
                assert e2 < 1e-8  # oracle exact for this f: trivially matched
                continue
            assert 3.5 <= e1 / e2 <= 4.5
            checked += 1
        assert checked >= 30


class TestScaleAndPow:
    def test_scale_linearity(self):
        f = scale(mono(1.0, -1.0) - mono(1.0, 0.0), 2.0)
        assert [t.coeff for t in f.terms] == [2.0, -2.0]

    def test_pow_integer(self):
        assert pow_eval(mono(1.0, -1.0), 3.0, 0.5) == pytest.approx(8.0)

    def test_pow_rejects_negative_base(self):
        f = mono(1.0, -1.0) - mono(1.0, 0.0)
        assert evaluate(f, 2.0) == pytest.approx(-0.5)
        with pytest.raises(PositivityError):
            pow_eval(f, 2.5, 2.0)

    def test_pow_integer_negative_base_allowed(self):
        f = mono(1.0, -1.0) - mono(1.0, 0.0)
        assert pow_eval(f, 2.0, 2.0) == pytest.approx(0.25)


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

    @pytest.mark.parametrize("r_min, r_max", [(1.0, math.nan),
                                              (-1.0, -2.0)])
    def test_log_radii_are_checked(self, r_min, r_max):
        # the one check of a grid's radii, made where they are made
        with pytest.raises(DomainValidationError, match="radii must be"):
            log_radii(r_min, r_max, 4)

    def test_count_type_is_kept(self):
        # np.geomspace rejects a float count; a cached int entry must not
        # answer for it
        assert RadialGrid(1e-3, 1.0, 4).radii.size == 4
        with pytest.raises(TypeError):
            RadialGrid(1e-3, 1.0, 4.0).radii


#: Formula shapes with one owner each: the 5-point stencil combinations in
#: radial._fd_hardy and the factored root coefficient
#: -(tau - tau_+)(tau - tau_-) in exponents.ExponentPair.coefficient_at.
_OWNED_FORMULAS = (
    (r"8\.0 \* fp1|8\.0 \* fm1|2\.0 \* f0\b|12\.0 \* h|4\.0 \* h \* h",
     "radial.py", 2),
    (r"tau_plus\)\s*\*\s*\(|tau_minus\)\s*\*\s*\(", "exponents.py", 1))


@pytest.mark.parametrize("pattern, owner, lines", _OWNED_FORMULAS,
                         ids=["fd_stencil", "root_coefficient"])
def test_operator_formulas_have_one_owner(pattern, owner, lines):
    package = pathlib.Path(hardylane.__file__).parent
    hits = [f"{path.relative_to(package)}:{n}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert [hit.split(":")[0] for hit in hits] == [owner] * lines, hits
