import math
import pathlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylane
from hardylane import _kernels as K
from hardylane import boundaries as bd
from hardylane.exponents import HardyParams
from oracles import decimal_roots, mu_zero, ulps_from


@st.composite
def boundary_point(draw):
    """(N, mu1, mu2, p, q), each mu across [mu_zero, 3], in the snap band,
    at mu_zero, or tiny: a tau_+ of mu's sign far below 1 in size."""
    N = draw(st.integers(min_value=3, max_value=12))
    m0 = mu_zero(N)
    band = bd.snap_half_width(N - 2.0)
    mu = st.one_of(st.floats(min_value=m0, max_value=3.0),
                   st.floats(min_value=m0 - band, max_value=m0 + band),
                   st.sampled_from([m0, -1e-20, 1e-20, -0.0, 0.0, -5e-324]))
    p = draw(st.floats(min_value=1e-3, max_value=20.0))
    q = draw(st.floats(min_value=1e-3, max_value=20.0))
    return N, draw(mu), draw(mu), p, q


def kernel_tau_plus(N, mu1, mu2):
    """tau_+(mu1), tau_+(mu2) as classify_codes computes them."""
    seen, roots = [], bd.roots

    def recording(h, mu, s):
        out = roots(h, mu, s)
        seen.append(out[0])
        return out

    with mock.patch.object(bd, "roots", recording):
        K.classify_codes(N, mu1, mu2, 1.0, 1.0)
    return seen


#: (name, function, its arguments from (N, t1, t2, p, q), index of the
#: exponent that must be negative or None): every function of the module
#: in both role orders, regime A's foot included.
FORMULAS = (
    ("e1", bd.e1, lambda N, t1, t2, p, q: (t1, p, q), None),
    ("e2", bd.e1, lambda N, t1, t2, p, q: (t2, q, p), None),
    ("q_upper", bd.q_upper, lambda N, t1, t2, p, q: (N, t1, t2), 1),
    ("p_upper", bd.q_upper, lambda N, t1, t2, p, q: (N, t2, t1), 2),
    ("q_lower", bd.q_lower, lambda N, t1, t2, p, q: (t1, t2), 1),
    ("p_lower", bd.q_lower, lambda N, t1, t2, p, q: (t2, t1), 2),
    ("q_foot", bd.q_lower, lambda N, t1, t2, p, q: (t1, 0.0), 1),
    ("p_foot", bd.q_lower, lambda N, t1, t2, p, q: (t2, 0.0), 2),
    ("e1_curve", bd.e1_curve, lambda N, t1, t2, p, q: (t1, p), 1),
    ("e2_curve", bd.e1_curve, lambda N, t1, t2, p, q: (t2, q), 2),
    ("p_A", bd.curve_end, lambda N, t1, t2, p, q: (N, t1, t2), None),
    ("q_C", bd.curve_end, lambda N, t1, t2, p, q: (N, t2, t1), None),
)


class TestFloatArrayBits:
    @given(st.lists(boundary_point(), min_size=1, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_floats_and_arrays_give_the_same_bits(self, points):
        # the kernel's tau_+ on arrays are the roots HardyParams stores
        N, mu1, mu2 = (np.array(col) for col in list(zip(*points))[:3])
        stored = [HardyParams(*point[:3]).roots for point in points]
        t1, t2 = kernel_tau_plus(N, mu1, mu2)
        assert [(r[0].hex(), r[2].hex()) for r in stored] == [
            (a.hex(), b.hex()) for a, b in zip(t1.tolist(), t2.tolist())]
        points = [(point[0], r[0], r[2]) + point[3:]
                  for point, r in zip(points, stored)]
        columns = [np.array(col) for col in zip(*points)]
        assert columns[0].dtype == np.int64
        for name, fn, args, negative in FORMULAS:
            with np.errstate(all="ignore"):
                whole = fn(*args(*columns))
            assert whole.dtype == np.float64, name
            for point, x in zip(points, whole.tolist()):
                if negative is None or point[negative] < 0.0:
                    try:
                        got = fn(*args(*point))
                    except ZeroDivisionError:
                        # a product underflowed to zero: the array gives
                        # an infinity or a NaN
                        assert not math.isfinite(x), name
                        continue
                    assert got.hex() == x.hex(), name


#: The formula shapes that only boundaries.py may spell out: the region
#: formulas, and the threshold, snap band and roots.
_FORMULA_PATTERNS = ("/ (-t1)", "/ (-t2)", "t1 * (p * q", "t2 * (p * q",
                     "(t1 - 2.0 *", "(2.0 - t1) /", "(2.0 - t2) /",
                     "(N - 2) **", "n2 * n2", "MU0_SNAP_REL", "-half",
                     "-h + s", "-h - s", "/ (h + s)")


def test_boundary_formulas_have_one_owner():
    package = pathlib.Path(hardylane.__file__).parent
    hits = [f"{path.relative_to(package)}:{n}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            if path.name != "boundaries.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if any(pat in line for pat in _FORMULA_PATTERNS)]
    assert hits == []


#: (N - 2)^2 < 2**53 up to here: mu0 is exact, and tau_+ is accurate from
#: mu0 up.  Past it, mu0 itself rounds, and its error dominates near mu0.
N_EXACT_MU0 = 94_906_267


@st.composite
def root_point(draw):
    """(N, mu): mu anywhere in [mu0, 1e3] while mu0 is exact, from 3 mu0/4
    up for every N to 2**53, and tiny or subnormal of either sign."""
    N = draw(st.one_of(st.integers(3, 12), st.integers(3, N_EXACT_MU0),
                       st.integers(3, 2 ** 53)))
    m0 = mu_zero(N)
    low = m0 if N <= N_EXACT_MU0 else 0.75 * m0
    tiny = st.floats(min_value=1e-320, max_value=1e-3)
    mu = draw(st.one_of(st.floats(min_value=low, max_value=1e3),
                        tiny, tiny.map(lambda x: -x),
                        st.sampled_from([0.0, -0.0, low, 5e-324, -5e-324])))
    return N, mu


class TestRootsAgainstOracle:
    """bd.roots against 400-digit roots with the exact mu0."""

    @given(root_point())
    @settings(max_examples=1000, deadline=None)
    def test_roots_within_a_few_ulps(self, point):
        N, mu = point
        params = HardyParams(N, mu, mu)
        exact_plus, exact_minus = decimal_roots(N, params.mu1)
        tau_plus, tau_minus, _, _ = params.roots
        assert ulps_from(tau_plus, exact_plus) <= 4.0
        assert ulps_from(tau_minus, exact_minus) <= 2.0

    @given(root_point())
    @settings(max_examples=500, deadline=None)
    def test_tau_plus_has_the_sign_of_mu(self, point):
        N, mu = point
        tau_plus = HardyParams(N, mu, mu).roots[0]
        if abs(mu) >= 1e-300:
            assert math.copysign(1.0, tau_plus) == math.copysign(1.0, mu)
            assert tau_plus != 0.0
        if mu == 0.0:
            # -0.0 gives +0.0, as 0.0 does
            assert tau_plus.hex() == "0x0.0p+0"

    def test_double_root_for_every_dimension_to_1e5(self):
        N = np.arange(3, 100_001)
        n2 = N - 2.0
        m0 = bd.mu0(n2)
        plus, minus = bd.roots(n2 / 2.0, m0, np.sqrt(m0 - m0))
        assert (plus == minus).all()
        for n in range(3, 100_001):
            tau_plus, tau_minus, _, _ = HardyParams(n, mu_zero(n), 0.0).roots
            assert tau_plus == tau_minus

    @given(st.integers(3, 2 ** 53),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=500, deadline=None)
    def test_double_root_at_the_snapped_threshold(self, N, offset):
        # anywhere inside the snap band, mu snaps onto mu0 and the roots
        # coincide bit for bit
        m0 = mu_zero(N)
        params = HardyParams(N, m0 + offset * bd.snap_half_width(N - 2.0),
                             0.0)
        assert params.mu1 == m0
        tau_plus, tau_minus, _, _ = params.roots
        assert tau_plus.hex() == tau_minus.hex()
