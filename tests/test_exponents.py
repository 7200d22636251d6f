import copy
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylane import boundaries as bd
from hardylane import exponents
from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.radial import RadialFunction
from oracles import e3, hardy_image, mu_zero, pair_of


def snapped(N, mu):
    """mu after HardyParams' snap rule."""
    return HardyParams(N, mu, mu).mu1


class TestMuZero:
    """The Hardy threshold as HardyParams holds it: the double root."""

    def test_small_dimensions(self):
        for N, m0 in ((3, -0.25), (4, -1.0), (5, -2.25)):
            assert mu_zero(N) == exponents._constants(N)[1] == m0
            tau_plus, tau_minus, _, _ = HardyParams(N, m0, 0.0).roots
            assert tau_plus == tau_minus == -(N - 2) / 2

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainValidationError, match=">= 3"):
            HardyParams(2, 0.0, 0.0)

    def test_rejects_non_integer(self):
        with pytest.raises(DomainValidationError, match="integer"):
            HardyParams(4.5, 0.0, 0.0)


class TestTauPair:
    def test_mu_zero_coefficient_gives_homogeneous_roots(self):
        tau_plus, tau_minus = pair_of(5, 0.0)
        assert tau_plus == 0.0
        assert tau_minus == -3.0

    def test_double_root_at_threshold(self):
        tau_plus, tau_minus = pair_of(5, -2.25)
        assert tau_plus == tau_minus == -1.5

    def test_quadratic_solution(self):
        # -2 = tau (tau + 3) has roots -1 and -2
        tau_plus, tau_minus = pair_of(5, -2.0)
        assert tau_plus == pytest.approx(-1.0, abs=1e-14)
        assert tau_minus == pytest.approx(-2.0, abs=1e-14)

    def test_rejects_below_threshold(self):
        with pytest.raises(DomainValidationError):
            pair_of(5, -2.2500001)

    def test_snap_band(self):
        assert snapped(5, -2.25 - 5e-13) == -2.25
        assert snapped(5, -2.25 + 5e-13) == -2.25
        assert snapped(5, -2.24) == -2.24
        with pytest.raises(DomainValidationError):
            snapped(5, -2.25 - 1e-11)


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
        tol = 1e-12 * max(1.0, abs(mu))
        for tau in pair_of(N, mu):
            assert abs(mu - tau * (tau + N - 2)) <= tol

    @given(admissible())
    @settings(max_examples=400)
    def test_vieta(self, Nmu):
        N, mu = Nmu
        tau_plus, tau_minus = pair_of(N, mu)
        assert abs(tau_plus + tau_minus + (N - 2)) <= 1e-12
        assert abs(tau_plus * tau_minus + mu) <= 1e-12 * max(1.0, abs(mu))

    @given(st.integers(min_value=3, max_value=12),
           st.floats(min_value=0.001, max_value=10.0),
           st.floats(min_value=0.001, max_value=10.0))
    @settings(max_examples=200)
    def test_monotonicity(self, N, d1, d2):
        lo = mu_zero(N) + d1
        hi = lo + d2
        assert pair_of(N, hi)[0] > pair_of(N, lo)[0]
        assert pair_of(N, hi)[1] < pair_of(N, lo)[1]

    @given(admissible())
    @settings(max_examples=400)
    def test_sign_regimes(self, Nmu):
        N, mu = Nmu
        tp = pair_of(N, mu)[0]
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
        # mu inside the snap band is mu_zero, as in HardyParams; the image
        # of r^tau is (mu - tau(tau+N-2)) r^(tau-2), its coefficient in the
        # factored form, and the zero function where that is exactly zero
        expanded = snapped(N, mu) - tau * (tau + N - 2)
        scale = max(1.0, abs(expanded))
        image = hardy_image(N, mu, RadialFunction.monomial(1.0, tau)).terms
        assert [(t.tau, t.log_power) for t in image] in (
            [], [(tau - 2.0, 0)])
        factored = image[0].coeff if image else 0.0
        assert abs(factored - expanded) <= 1e-12 * scale


class TestBoundaryExpressions:
    """The formulas of hardylane.boundaries at the roots HardyParams
    stores."""

    def test_worked_example(self):
        t1, _, t2, _ = HardyParams(5, -2.0, 0.0).roots
        # tau_+(mu1) = -1: e1 = -(8 - 1) + 4 + 2
        assert bd.e1(t1, 2.0, 4.0) == pytest.approx(-1.0, abs=1e-12)
        assert bd.q_upper(5, t1, t2) == pytest.approx(5.0, abs=1e-12)
        assert t2 == 0.0  # tau_+(mu2) = 0: p_upper is undefined

    def test_identity_e3_equals_e1_at_threshold(self):
        t1 = HardyParams(5, -2.25, 0.0).roots[0]
        rng = np.random.default_rng(3)
        for _ in range(500):
            p, q = rng.uniform(0.1, 50.0, 2)
            assert abs(e3(5, t1, p, q) - bd.e1(t1, p, q)) <= 1e-12

    def test_regime_b_thresholds(self):
        t1, _, t2, _ = HardyParams(5, -2.0, -2.0).roots
        assert bd.q_upper(5, t1, t2) == pytest.approx(4.0)
        assert bd.q_upper(5, t2, t1) == pytest.approx(4.0)
        assert bd.q_lower(t1, t2) == pytest.approx(3.0)
        assert bd.q_lower(t2, t1) == pytest.approx(3.0)

    def test_ratios_need_a_negative_exponent(self):
        # tau_+(-1e-20) = -1e-20/3 is negative: the q-side ratios exist and
        # are finite, far above any plotted q
        t1, _, t2, _ = HardyParams(5, -1e-20, -2.0).roots
        assert t1 == -1e-20 / 3.0
        assert bd.q_upper(5, t1, t2) == pytest.approx(1.2e21)
        assert bd.q_lower(t1, t2) == pytest.approx(9e20)
        assert (bd.q_upper(5, t2, t1), bd.q_lower(t2, t1)) == (5.0, 2.0)
        # tau_+(0.5) > 0: no q-side ratio, and dividing by -t1 < 0 would
        # give a meaningless negative bound
        assert HardyParams(5, 0.5, -2.0).roots[0] > 0.0


class TestParamTypes:
    def test_hardy_params_snaps(self):
        params = HardyParams(5, -2.25 - 1e-14, 0.0)
        assert params.mu1 == -2.25
        assert params.roots[0] == params.roots[1]

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

    @pytest.mark.parametrize("p, q", [(True, 2.0), (2.0, False),
                                      (True, True), ("2", 3.0)])
    def test_powers_reject_bool_and_str(self, p, q):
        with pytest.raises(DomainValidationError):
            Powers(p, q)

    @pytest.mark.parametrize("p, q", [(2, 3), (2.5, 0.5),
                                      (np.float64(2.5), 3.0)])
    def test_powers_accept_int_and_float(self, p, q):
        assert (Powers(p, q).p, Powers(p, q).q) == (p, q)

    @pytest.mark.parametrize("mu", ["-2", "0", True, False, np.bool_(True),
                                    None, 1j, b"0"])
    def test_coefficients_must_be_real_numbers(self, mu):
        for call in (lambda: HardyParams(5, mu, 0.0),
                     lambda: HardyParams(5, 0.0, mu)):
            with pytest.raises(DomainValidationError, match="real number"):
                call()

    @pytest.mark.parametrize("mu", [-2, 0, 1, -2.0, np.float64(-2.0),
                                    np.float32(-2.0), np.int64(-2)])
    def test_coefficients_accept_ints_and_floats(self, mu):
        expect = pair_of(5, float(mu))
        params = HardyParams(5, mu, mu)
        assert type(params.mu1) is float and type(params.mu2) is float
        assert params.mu1 == params.mu2 == float(mu)
        assert params.roots[:2] == params.roots[2:] == expect

    @pytest.mark.parametrize("N", [3.0, 5.0, True, np.int64(5), np.int32(4),
                                   "5", None])
    def test_dimension_must_be_a_plain_int(self, N):
        with pytest.raises(DomainValidationError, match="integer"):
            HardyParams(N, 0.0, 0.0)

    @pytest.mark.parametrize("N", [3, 4, 12, 64, 65, 200, 10 ** 6])
    def test_dimension_constants_inside_and_past_the_table(self, N):
        mu = mu_zero(N) / 2.0
        params = HardyParams(N, mu, 0.0)
        assert params.roots[:2] == pair_of(N, mu)
        assert params.roots[2:] == pair_of(N, 0.0)
        assert HardyParams(N, mu_zero(N) * (1 + 1e-15), 0.0).mu1 == mu_zero(N)


def same_pair(a, b):
    """Bit-for-bit equality of two tuples of roots, such as (tau_+, tau_-)
    or all four of HardyParams.roots (signed zeros included)."""
    return [t.hex() for t in a] == [t.hex() for t in b]


@st.composite
def coefficient_pairs(draw):
    """(N, mu1, mu2), each mu across [mu_zero, 3] or inside the snap band."""
    N = draw(st.integers(min_value=3, max_value=12))
    m0 = mu_zero(N)
    band = bd.snap_half_width(N - 2.0)
    mu = st.one_of(st.floats(min_value=m0, max_value=3.0),
                   st.floats(min_value=m0 - band, max_value=m0 + band))
    return N, draw(mu), draw(mu)


class TestCachedPairs:
    @given(coefficient_pairs())
    @settings(max_examples=500)
    def test_pairs_match_tau_pair(self, point):
        # each pair depends on its own coefficient alone
        N, mu1, mu2 = point
        params = HardyParams(N, mu1, mu2)
        assert same_pair(params.roots[:2], pair_of(N, mu1))
        assert same_pair(params.roots[2:], pair_of(N, mu2))

    def test_swapped_exchanges_pairs(self):
        params = HardyParams(5, -2.0, 1.0)
        mirrored = params.swapped()
        assert same_pair(mirrored.roots[:2], params.roots[2:])
        assert same_pair(mirrored.roots[2:], params.roots[:2])

    def test_replace_recomputes_pairs(self):
        params = replace(HardyParams(5, -2.0, 1.0), mu2=-2.25 + 1e-14)
        assert params.mu2 == -2.25
        assert same_pair(params.roots[2:], pair_of(5, -2.25))
        assert same_pair(params.roots[:2], pair_of(5, -2.0))
        with pytest.raises(DomainValidationError):
            replace(params, mu1=-3.0)
        assert same_pair(replace(params, N=7).roots[:2], pair_of(7, -2.0))

    def test_pickle_round_trip(self):
        params = HardyParams(6, -4.0, 0.5)
        back = pickle.loads(pickle.dumps(params))
        assert back == params
        assert same_pair(back.roots, params.roots)

    def test_equality_hash_and_repr_see_only_fields(self):
        a, b = HardyParams(5, -2, 0), HardyParams(5, -2.0, 0.0)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(b) == "HardyParams(N=5, mu1=-2.0, mu2=0.0)"
        assert a != HardyParams(5, 0.0, -2.0)
        assert [f.name for f in fields(HardyParams)] == ["N", "mu1", "mu2"]

    @given(coefficient_pairs())
    @settings(max_examples=500)
    def test_swapped_equals_constructed_mirror(self, point):
        params = HardyParams(*point)
        mirrored = params.swapped()
        built = HardyParams(params.N, params.mu2, params.mu1)
        assert type(mirrored.N) is type(built.N) and mirrored.N == built.N
        assert (mirrored.mu1.hex(), mirrored.mu2.hex()) == (
            built.mu1.hex(), built.mu2.hex())
        assert mirrored == built
        assert hash(mirrored) == hash(built)
        assert repr(mirrored) == repr(built)
        assert pickle.dumps(mirrored) == pickle.dumps(built)
        assert same_pair(mirrored.roots, built.roots)
        back = mirrored.swapped()
        assert back == params
        assert (back.mu1.hex(), back.mu2.hex()) == (
            params.mu1.hex(), params.mu2.hex())
        assert same_pair(back.roots, params.roots)


def _bit_cases():
    """(N, mu1, mu2) at mu_zero, inside the snap band on both sides of it,
    and away from it."""
    out = []
    for N in (3, 5, 10):
        m0, band = mu_zero(N), bd.snap_half_width(N - 2.0)
        for mu1 in (m0, m0 + band / 2, m0 - band / 2, m0 + band, m0 / 2):
            out.append((N, mu1, 0.7))
            out.append((N, 1.5, mu1))
    return out


class TestPairsFromRoots:
    """The stored roots are four floats, each coefficient's pair equal to
    a lone coefficient's bit for bit, however the params were made."""

    @pytest.mark.parametrize("point", _bit_cases())
    def test_pairs_match_tau_pair_after_every_copy(self, point):
        N, mu1, mu2 = point
        params = HardyParams(N, mu1, mu2)
        want1, want2 = pair_of(N, mu1), pair_of(N, mu2)
        same = (params, params.swapped().swapped(),
                pickle.loads(pickle.dumps(params)), copy.copy(params),
                copy.deepcopy(params), replace(params))
        for made in same:
            assert type(made.roots) is tuple
            assert [type(r) for r in made.roots] == [float] * 4
            assert same_pair(made.roots, want1 + want2)
        mirrored = params.swapped()
        for made in (mirrored, pickle.loads(pickle.dumps(mirrored)),
                     copy.copy(mirrored), replace(mirrored)):
            assert same_pair(made.roots, want2 + want1)


class TestPowersSwap:
    @given(st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                     st.integers(min_value=1, max_value=50)),
           st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                     st.integers(min_value=1, max_value=50)))
    def test_swapped_equals_constructed_mirror(self, p, q):
        pq = Powers(p, q)
        mirrored = pq.swapped()
        assert mirrored == Powers(q, p)
        assert repr(mirrored) == repr(Powers(q, p))
        assert mirrored.swapped() == pq
        assert (type(mirrored.p), type(mirrored.q)) == (type(q), type(p))


# --- the early returns against the checks they skip --------------------------

def reference_snap(N, mu):
    """The snap rule as it was written before its early return."""
    _, m0, band = exponents._constants(N)
    if type(mu) is not float:
        mu = exponents._coefficient(mu)
    if not math.isfinite(mu):
        raise DomainValidationError(f"mu must be finite, got {mu!r}")
    if mu < m0 - band:
        raise DomainValidationError(
            f"mu={mu} below the Hardy threshold mu_zero({N})={m0}")
    if mu <= m0 + band:
        return m0
    return mu


def reference_powers_check(p, q):
    """Powers' check as it was written before its early return."""
    for name, v in (("p", p), ("q", q)):
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and v > 0):
            raise DomainValidationError(
                f"power {name} must be finite and > 0, got {v!r}")


class FloatSubclass(float):
    pass


def typed_bits(v):
    """A value as its type and, for a float, its float.hex."""
    return type(v).__name__, float.hex(v) if isinstance(v, float) else v


def outcome(call):
    """What call() returns, by typed_bits, or its error message."""
    try:
        return typed_bits(call())
    except DomainValidationError as exc:
        return "error", str(exc)


def _edge_coefficients(N):
    """Coefficients on, and one ulp either side of, both ends of the snap
    band of dimension N."""
    _, m0, band = exponents._constants(N)
    out = []
    for edge in (m0 + band, m0 - band, m0):
        out += [edge, math.nextafter(edge, -math.inf),
                math.nextafter(edge, math.inf)]
    return out


_ODD_VALUES = [np.float64(-1.0), np.float64(0.5), -1, 0, 2, FloatSubclass(-1.0),
               FloatSubclass(0.5), True, False, math.nan, math.inf, -math.inf,
               -0.0, 0.0, 5e-324, -5e-324, 1e308, np.int64(1)]


class TestEarlyReturns:
    """The early returns of HardyParams and Powers give what the full checks
    give: the same values, of the same type, or the same error message."""

    @pytest.mark.parametrize("N", [3, 5, 10, 70])
    def test_coefficients(self, N):
        for mu in _edge_coefficients(N) + _ODD_VALUES:
            want = outcome(lambda: reference_snap(N, mu))
            assert outcome(lambda: HardyParams(N, mu, 0.0).mu1) == want, mu
            assert outcome(lambda: HardyParams(N, 0.0, mu).mu2) == want, mu
            if want[0] != "error":
                snapped_mu = float.fromhex(want[1])
                assert same_pair(HardyParams(N, mu, mu).roots[:2],
                                 pair_of(N, snapped_mu))

    def test_powers(self):
        for p in _ODD_VALUES + [2.5, 1e-300]:
            for q in (3.0, p):
                want = outcome(lambda: reference_powers_check(p, q))
                if want[0] == "error":
                    assert outcome(lambda: Powers(p, q)) == want, (p, q)
                else:
                    pq = Powers(p, q)
                    assert (typed_bits(pq.p), typed_bits(pq.q)) == (
                        typed_bits(p), typed_bits(q))


# --- HardyParams' common case against the full rule --------------------------

def ulps_away(x, k):
    """x moved k ulps (towards +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def fast_path_points(draw):
    """(N, mu1, mu2): N from the constants table, past it or invalid; each
    mu a few ulps around the snap band's ends or mu0, or of another kind."""
    N = draw(st.one_of(st.integers(min_value=3, max_value=70),
                       st.sampled_from([2 ** 20, 2 ** 53, 3.0, True,
                                        np.int64(5), 2, 2 ** 53 + 1])))
    _, m0, band = exponents._constants(int(N) if int(N) >= 3 else 5)
    near = st.builds(ulps_away, st.sampled_from([m0 - band, m0, m0 + band]),
                     st.integers(min_value=-4, max_value=4))
    mu = st.one_of(near, near.map(np.float64), st.just(m0 + band),
                   st.floats(min_value=m0, max_value=3.0),
                   st.integers(min_value=-3, max_value=3), st.booleans(),
                   st.sampled_from([math.nan, math.inf, -math.inf, "0.5"]))
    return N, draw(mu), draw(mu)


def full_rule(N, mu1, mu2):
    """What HardyParams stores, by the checks its common case skips."""
    half, m0, band = exponents._checked_constants(N)
    mu1 = exponents._snap_near(N, mu1, m0, band)
    mu2 = exponents._snap_near(N, mu2, m0, band)
    return mu1, mu2, (bd.roots(half, mu1, math.sqrt(mu1 - m0))
                      + bd.roots(half, mu2, math.sqrt(mu2 - m0)))


def stored_or_error(call):
    """(mu1, mu2, roots) by typed_bits, or the exception's type and text."""
    try:
        mu1, mu2, roots = call()
    except Exception as exc:
        return type(exc), str(exc)
    return typed_bits(mu1), typed_bits(mu2), [typed_bits(r) for r in roots]


def _stored(N, mu1, mu2):
    params = HardyParams(N, mu1, mu2)
    return params.mu1, params.mu2, params.roots


#: pickle.dumps(..., protocol=4) of three instances: a tabled N with plain
#: floats, a snapped mu1, and an N past the table with an int mu1.
GOLDEN_PICKLES = {
    (5, -2.0, 0.0):
        "80049582000000000000008c1368617264796c616e652e6578706f6e656e747394"
        "8c0b4861726479506172616d739493942981947d94288c014e944b058c036d7531"
        "9447c0000000000000008c036d7532944700000000000000008c05726f6f747394"
        "2847bff000000000000047c00000000000000047000000000000000047c0080000"
        "00000000749475622e",
    (5, -2.25 + 1e-14, 0.5):
        "80049582000000000000008c1368617264796c616e652e6578706f6e656e747394"
        "8c0b4861726479506172616d739493942981947d94288c014e944b058c036d7531"
        "9447c0020000000000008c036d753294473fe00000000000008c05726f6f747394"
        "2847bff800000000000047bff8000000000000473fc443949feb79a147c0094439"
        "49feb79a749475622e",
    (70, -1, 3.0):
        "80049582000000000000008c1368617264796c616e652e6578706f6e656e747394"
        "8c0b4861726479506172616d739493942981947d94288c014e944b468c036d7531"
        "9447bff00000000000008c036d7532944740080000000000008c05726f6f747394"
        "2847bf8e1fc928fc353a47c050ff0f01b6b81e473fa692d7670ed7d247c05102d2"
        "5aece1db749475622e",
}


class TestCommonCase:
    """HardyParams skips the dimension check and the snap rule for a tabled
    N and two plain floats above the band; it stores what the full rule
    gives, and raises what it raises, for every other input too."""

    @given(fast_path_points())
    @settings(max_examples=1500)
    def test_matches_the_full_rule(self, point):
        want = stored_or_error(lambda: full_rule(*point))
        assert stored_or_error(lambda: _stored(*point)) == want

    @pytest.mark.parametrize("args", sorted(GOLDEN_PICKLES, key=repr))
    def test_golden_pickles(self, args):
        params = HardyParams(*args)
        golden = bytes.fromhex(GOLDEN_PICKLES[args])
        assert pickle.dumps(params, protocol=4) == golden
        assert pickle.dumps(params.swapped().swapped(), protocol=4) == golden
        assert pickle.loads(golden) == params
