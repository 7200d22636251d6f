import ast
import inspect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tree
from hardylane import _kernels as K
from hardylane import boundaries as bd


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    N = rng.integers(3, 11, n).astype(np.int64)
    mu0 = -((N - 2) ** 2) / 4.0
    mu1 = mu0 + rng.random(n) * 23.0
    mu2 = mu0 + rng.random(n) * 23.0
    p = rng.random(n) * 19.9 + 1e-3
    q = rng.random(n) * 19.9 + 1e-3
    return N, mu1, mu2, p, q


def scalar_reference(N, mu1, mu2, p, q):
    """The reference tree's scalar classify_code applied point by point."""
    out = [reference_tree.classify_code(int(n), float(a), float(b),
                                        float(x), float(y))
           for n, a, b, x, y in zip(N, mu1, mu2, p, q)]
    codes, margins, flags = zip(*out)
    return (np.array(codes, dtype=np.int16), np.array(margins),
            np.array(flags, dtype=np.uint8))


def assert_identical(got, want):
    codes, margins, flags = got
    assert codes.dtype == np.int16 and flags.dtype == np.uint8
    assert np.array_equal(codes, want[0])
    assert np.array_equal(flags, want[2])
    assert np.array_equal(margins, want[1], equal_nan=True)
    assert np.array_equal(np.signbit(margins), np.signbit(want[1]))


def check_against_reference(*points):
    assert_identical(K.classify_codes(*points), scalar_reference(*points))


def check_broadcast(*points):
    """classify_codes on broadcast inputs gives the reference tree's
    classify_code at each index of the broadcast shape."""
    arrays = np.broadcast_arrays(*(np.asarray(x) for x in points))
    want = scalar_reference(*(a.ravel() for a in arrays))
    got = K.classify_codes(*points)
    assert all(a.shape == arrays[0].shape for a in got)
    assert_identical([a.ravel() for a in got], want)


class TestVectorMatchesScalar:
    def test_random_sweep_identical(self):
        check_against_reference(*random_points(100_000, seed=42))

    def test_boundary_band_identical(self):
        # points deliberately placed on and around the snapped boundaries
        N = np.full(64, 5, dtype=np.int64)
        mu1 = np.full(64, -2.0)
        mu2 = np.zeros(64)
        base = np.array([5.0, 2.0, 3.0, 2.0 + 1e-13])
        p = np.tile(np.array([2.0, 3.0, 1.0, 1.0 + 5e-13]), 16)
        q = np.repeat(base, 16)
        check_against_reference(N, mu1, mu2, p, q)
        check_against_reference(N, mu2, mu1, q, p)

    def test_symmetric_diagonal_identical(self):
        # mu1 = mu2 and p = q: both bootstraps fire with e1 == e2
        d = np.linspace(0.1, 8.0, 200)
        for N, mu in [(5, -2.0), (6, -3.9), (4, -0.5)]:
            check_against_reference(np.full(200, N), np.full(200, mu),
                                    np.full(200, mu), d, d)

    def test_mu0_edges_identical(self):
        # mu1 = mu0 and mu2 = mu0, exactly and inside / just outside the
        # snap band, over both one-negative and both-negative regimes
        N, mu1, mu2, _, _ = random_points(20_000, seed=7)
        rng = np.random.default_rng(8)
        mu0 = -((N - 2) ** 2) / 4.0
        band = bd.snap_half_width(N - 2.0)
        offsets = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        k = len(N) // 3
        mu1[:k] = mu0[:k] + band[:k] * rng.choice(offsets, k)
        mu2[k:2 * k] = mu0[k:2 * k] + band[k:2 * k] * rng.choice(offsets, k)
        mu2[:k // 2] = rng.choice([0.0, -0.0, 1.0], k // 2)
        p = rng.random(len(N)) * 6.0 + 1e-3
        q = rng.random(len(N)) * 6.0 + 1e-3
        check_against_reference(N, mu1, mu2, p, q)

    def test_critical_curve_at_threshold_identical(self):
        # e1 = 0 at mu1 = mu0, inside the strip (closed edge, FLAG_MU0_EDGE)
        # and above q_upper (the half-plane wins); both orientations
        rows = []
        for N in range(3, 11):
            mu0 = -((N - 2) ** 2) / 4.0
            t1 = -(N - 2) / 2.0
            for mu2 in (0.0, 0.5, 3.0):
                for p in np.linspace(0.2, 6.0, 30):
                    rows.append((N, mu0, mu2, p, (t1 - 2 * p - 2) / (t1 * p)))
        N, mu1, mu2, p, q = (np.array(c) for c in zip(*rows))
        codes, _, flags = K.classify_codes(N, mu1, mu2, p, q)
        assert (flags & K.FLAG_MU0_EDGE).any()
        assert (codes == K.CODE_T1_I).any()
        check_against_reference(N, mu1, mu2, p, q)
        check_against_reference(N, mu2, mu1, q, p)

    def test_signed_zero_and_nan_coefficients_identical(self):
        # min() keeps its first argument on ties and on NaN comparisons
        nan = np.nan
        mu1 = np.array([0.0, -0.0, nan, 1.0, nan, -2.0, 0.0])
        mu2 = np.array([-0.0, 0.0, 1.0, nan, -2.0, nan, 0.0])
        ones = np.full(7, 1.5)
        check_against_reference(np.full(7, 5), mu1, mu2, ones, ones)

    def test_invalid_inputs_flagged(self):
        N = np.array([5, 5, 2, 5, 5, 5, 5, 5], dtype=np.int64)
        mu1 = np.array([-3.0, -2.0, 0.0, 0.0, -2.0, 0.0, 0.0, -2.0])
        mu2 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -np.inf, 0.0, 0.0])
        p = np.array([1.0, -1.0, 1.0, np.inf, np.nan, 1.0, 0.0, 1.0])
        q = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0])
        codes, margins, flags = K.classify_codes(N, mu1, mu2, p, q)
        assert (codes == K.CODE_INVALID).all()
        assert np.isnan(margins).all()
        assert (flags == 0).all()
        check_against_reference(N, mu1, mu2, p, q)

    def test_scalar_parameters_broadcast(self):
        # a region grid passes N, mu1, mu2 once for every point
        g = np.linspace(0.1, 8.0, 60)
        pp, qq = (a.ravel() for a in np.meshgrid(g, g))
        n = pp.size
        for N, mu1, mu2 in [(5, -2.0, -2.0), (5, -2.0, 0.0), (5, 0.0, -2.0),
                            (5, -2.25, 0.0), (5, 0.0, -2.25), (4, 1.0, 0.5),
                            (3, -0.25, -0.1)]:
            per_point = K.classify_codes(np.full(n, N), np.full(n, mu1),
                                         np.full(n, mu2), pp, qq)
            assert_identical(K.classify_codes(N, mu1, mu2, pp, qq), per_point)

    def test_broadcast_shapes_match_scalar(self):
        # 2-D and broadcast inputs spanning several regimes, with invalid
        # cells (p or q <= 0), take the gather path of each regime and must
        # give the reference tree's classify_code at every index
        mus = np.array([-2.0, 0.0, -2.25, 1.0, -0.5])
        grid = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0])
        # a 4x4 meshgrid with one p = -1 and scalar parameters
        pp, qq = np.meshgrid([-1.0, 0.5, 2.0, 3.5], [0.5, 2.0, 3.0, 6.0])
        check_broadcast(5, -2.0, 0.0, pp, qq)
        # meshgrids of p, q, mu1 and mu2: every regime and invalid cells
        pp, qq, m1, m2 = np.meshgrid(grid, grid, mus, mus, indexing="ij")
        check_broadcast(5, m1, m2, pp, qq)
        # p a row, q a column; mu1 varies along the row, mu2 down the column
        row, col = grid[None, :], grid[::-1, None]
        check_broadcast(5, np.resize(mus, row.shape),
                        np.resize(mus, col.shape), row, col)
        check_broadcast(np.array([[4], [5], [2], [6], [5], [3], [7], [5]]),
                        -0.25, -1.0, row, col)
        # N a column up to 2**53, past where the int64 square (N - 2)^2
        # wraps (N = 3,037,000,502), with mu1 or mu2 on the mu0 edge
        big = np.array([[3], [3_037_000_501], [3_037_000_502], [4 * 10**9],
                        [10**10], [2**40 + 1], [2**53 - 1], [2**53]])
        mu0 = np.array([[-((n - 2) ** 2) / 4.0] for n in big[:, 0].tolist()])
        check_broadcast(big, -0.25, -1.0, row, col)
        check_broadcast(big, mu0, -1.0, row, col)
        check_broadcast(big, 0.5, mu0, row, col)
        check_broadcast(big, mu0, mu0, row, col)

    def test_empty_input(self):
        codes, margins, flags = K.classify_codes([], [], [], [], [])
        assert codes.shape == margins.shape == flags.shape == (0,)

    def test_all_scalar_input_gives_0d_outputs(self):
        # one point per regime, the mirrored orientation, and invalid points
        for point in [(5, -2.0, 0.0, 2.0, 3.0), (5, -2.0, -2.0, 3.2, 1.5),
                      (5, 0.0, -2.0, 2.5, 2.0), (4, 1.0, 0.5, 2.0, 2.0),
                      (2, -2.0, 0.0, 2.0, 3.0), (5, -2.0, 0.0, -1.0, 3.0)]:
            got = K.classify_codes(*point)
            assert [a.shape for a in got] == [(), (), ()], point
            assert_identical(got, tuple(np.array(x) for x in
                                        reference_tree.classify_code(*point)))


@st.composite
def snap_band_points(draw):
    """(N, mu1, mu2, p, q) with mu1 or mu2 within a few snap bands of mu0."""
    N = draw(st.integers(3, 10))
    mu0 = -((N - 2) * (N - 2)) / 4.0
    band = bd.snap_half_width(N - 2.0)
    near = mu0 + band * draw(st.floats(-3.0, 3.0))
    other = draw(st.one_of(
        st.floats(mu0, 3.0),
        st.just(mu0 + band * draw(st.floats(-3.0, 3.0)))))
    mu1, mu2 = (near, other) if draw(st.booleans()) else (other, near)
    p = draw(st.floats(1e-3, 20.0))
    q = draw(st.floats(1e-3, 20.0))
    return N, mu1, mu2, p, q


@settings(max_examples=300, deadline=None)
@given(snap_band_points())
def test_snap_band_point_matches_scalar(point):
    check_against_reference(*(np.array([v]) for v in point))


class TestFirstMatch:
    """_first_match writes np.select's result, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10),
           st.integers(0, 64))
    def test_matches_np_select(self, seed, k, n):
        rng = np.random.default_rng(seed)
        # signed zeros, NaN and infinities among the choices, some of them
        # scalars, as in the kernel's margin cascades
        pool = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, 1.5, -2.0])
        conds = [rng.random(n) < rng.random() for _ in range(k)]

        def choice():
            if rng.random() < 0.3:
                return float(rng.choice(pool))
            return rng.choice(pool, n)

        choices = [choice() for _ in range(k)]
        default = choice()
        got = np.empty(n)
        K._first_match(conds, choices, default, got)
        assert got.tobytes() == np.select(conds, choices, default).tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 64))
    @settings(max_examples=100, deadline=None)
    def test_integer_codes_match_np_select(self, seed, n):
        rng = np.random.default_rng(seed)
        conds = [rng.random(n) < 0.3 for _ in range(7)]
        codes = [int(c) for c in rng.integers(0, 17, 7)]
        got = np.empty(n, dtype=np.int16)
        K._first_match(conds, codes, K.CODE_DOTTED, got)
        want = np.select(conds, codes, K.CODE_DOTTED)
        assert np.array_equal(got, want)


def _codes_gated_by_reference(function):
    """Names of the codes that the reference tree's `function` passes
    through _gate."""
    tree = ast.parse(inspect.getsource(getattr(reference_tree, function)))
    return {call.args[2].id for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_gate"}


def test_gate_ranges_hold_exactly_the_gated_codes():
    # _gate tests a contiguous code range per regime; a renumbering of the
    # CODE_* constants or a new gated branch must not slip past it
    for gated, function in ((K._GATED_A, "_regime_a"),
                            (K._GATED_B, "_regime_b")):
        names = _codes_gated_by_reference(function)
        assert names, function
        lo, hi = gated
        assert set(range(lo, hi + 1)) == {getattr(K, n) for n in names}


class TestBackendSelection:
    def test_selected_backend_exposed(self):
        import hardylane
        assert hardylane.kernel_backend == "numpy"
