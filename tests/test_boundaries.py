import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylane
from hardylane import boundaries as bd
from hardylane.exponents import MU0_SNAP_REL, HardyParams, mu_zero


@st.composite
def boundary_point(draw):
    """(N, t1, t2, p, q), each mu across [mu_zero, 3], in the snap band, at
    mu_zero or at -1e-20 (where tau_+ rounds to 0)."""
    N = draw(st.integers(min_value=3, max_value=12))
    m0 = mu_zero(N)
    band = MU0_SNAP_REL * (N - 2) ** 2
    mu = st.one_of(st.floats(min_value=m0, max_value=3.0),
                   st.floats(min_value=m0 - band, max_value=m0 + band),
                   st.sampled_from([m0, -1e-20]))
    params = HardyParams(N, draw(mu), draw(mu))
    p = draw(st.floats(min_value=1e-3, max_value=20.0))
    q = draw(st.floats(min_value=1e-3, max_value=20.0))
    return N, params.tau1.tau_plus, params.tau2.tau_plus, p, q


#: (name, function, its arguments from (N, t1, t2, p, q), index of the
#: exponent that must be negative or None): every function of the module
#: in both role orders, regime A's foot included.
FORMULAS = (
    ("e1", bd.e1, lambda N, t1, t2, p, q: (t1, p, q), None),
    ("e2", bd.e1, lambda N, t1, t2, p, q: (t2, q, p), None),
    ("e3", bd.e3, lambda N, t1, t2, p, q: (N, t1, p, q), None),
    ("q_upper", bd.q_upper, lambda N, t1, t2, p, q: (N, t1, t2), 1),
    ("p_upper", bd.q_upper, lambda N, t1, t2, p, q: (N, t2, t1), 2),
    ("q_lower", bd.q_lower, lambda N, t1, t2, p, q: (t1, t2), 1),
    ("p_lower", bd.q_lower, lambda N, t1, t2, p, q: (t2, t1), 2),
    ("q_foot", bd.q_lower, lambda N, t1, t2, p, q: (t1, 0.0), 1),
    ("p_foot", bd.q_lower, lambda N, t1, t2, p, q: (t2, 0.0), 2),
    ("e1_curve", bd.e1_curve, lambda N, t1, t2, p, q: (t1, p), 1),
    ("e2_curve", bd.e1_curve, lambda N, t1, t2, p, q: (t2, q), 2),
)


class TestFloatArrayBits:
    @given(st.lists(boundary_point(), min_size=1, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_floats_and_arrays_give_the_same_bits(self, points):
        columns = [np.array(col) for col in zip(*points)]
        assert columns[0].dtype == np.int64
        for name, fn, args, negative in FORMULAS:
            with np.errstate(all="ignore"):
                whole = fn(*args(*columns))
            assert whole.dtype == np.float64, name
            for point, x in zip(points, whole.tolist()):
                if negative is None or point[negative] < 0.0:
                    assert fn(*args(*point)).hex() == x.hex(), name


#: The formula shapes that only boundaries.py may spell out.
_FORMULA_PATTERNS = ("/ (-t1)", "/ (-t2)", "t1 * (p * q", "t2 * (p * q",
                     "(t1 - 2.0 *")


def test_boundary_formulas_have_one_owner():
    package = pathlib.Path(hardylane.__file__).parent
    hits = [f"{path.relative_to(package)}:{n}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            if path.name != "boundaries.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if any(pat in line for pat in _FORMULA_PATTERNS)]
    assert hits == []
