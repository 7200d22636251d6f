"""Region boundary formulas in t1 = tau_+(mu1), t2 = tau_+(mu2), written once.

Only + - * / and no branch: a Python float and each element of an ndarray
get the same bits.  A mirrored formula is the same function with the roles
exchanged: e2 = e1(t2, q, p), p_upper = q_upper(N, t2, t1) and p_lower =
q_lower(t2, t1); regime A's strip edge 2/(-t1) is q_lower(t1, 0.0).  The
quotients need a negative exponent (on floats, dividing by -0.0 raises).
"""


def e1(t1, p, q):
    """Critical-curve expression t1 (pq - 1) + 2p + 2."""
    return t1 * (p * q - 1.0) + 2.0 * p + 2.0


def e3(N, t1, p, q):
    """One-bootstrap integrability margin t1 (pq + 1) + 2p + N."""
    return t1 * (p * q + 1.0) + 2.0 * p + N


def q_upper(N, t1, t2):
    """(N + t2) / (-t1): at and above it, u^q fails weighted L^1."""
    return (N + t2) / (-t1)


def q_lower(t1, t2):
    """(2 - t2) / (-t1): lower strip edge (2.0 - 0.0 is exactly 2.0)."""
    return (2.0 - t2) / (-t1)


def e1_curve(t1, p):
    """The q with e1 = 0 at p: (t1 - 2p - 2) / (t1 p)."""
    return (t1 - 2.0 * p - 2.0) / (t1 * p)
