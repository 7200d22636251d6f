"""The Hardy arithmetic and the region boundary formulas, each written once.

The roots of mu - tau (tau + N - 2) = 0 are written in h = (N - 2)/2 and
s = sqrt(mu - mu0(N - 2)): tau_- = -h - s, and tau_+ = -h + s where s <
h/2, mu/(h + s) elsewhere, so neither form cancels and tau_+ has the sign
of mu.  Callers take s with their own sqrt (math.sqrt on a float, np.sqrt
on an array), both correctly rounded.

The region formulas are written in t1 = tau_+(mu1), t2 = tau_+(mu2).  A
mirrored formula is the same function with the roles exchanged: e2 =
e1(t2, q, p), p_upper = q_upper(N, t2, t1), p_lower = q_lower(t2, t1) and
C's q = curve_end(N, t2, t1); regime A's strip edge 2/(-t1) is q_lower(t1,
0.0).  The quotients need a negative exponent (on floats, dividing by -0.0
raises).

Only + - * / and, in roots, an elementwise choice between two of them: a
Python float and each element of an ndarray get the same bits.
"""

import numpy as np

#: Relative half-width (in units of (N-2)^2) of the snap band around the
#: Hardy threshold.  Values inside the band are treated as exactly mu0,
#: because the classifier's strict/non-strict boundary rule flips there.
MU0_SNAP_REL = 1e-13


def mu0(n2):
    """Hardy threshold -(N-2)^2/4, from n2 = N - 2 as a float.

    Up to N = 2**53 a float64 holds N - 2 exactly, so this rounds the exact
    square once, as Python's int arithmetic does.
    """
    return -(n2 * n2) / 4.0


def snap_half_width(n2):
    """Half-width MU0_SNAP_REL (N-2)^2 of the band snapped onto mu0."""
    return MU0_SNAP_REL * (n2 * n2)


def roots(h, mu, s):
    """(tau_+, tau_-) from h = (N-2)/2, mu and s = sqrt(mu - mu0) >= 0.

    Where s < h/2, -h + s lies in (-h, -h/2) and does not cancel; at s = 0
    it equals tau_- bit for bit.  Elsewhere tau_+ = mu/(h + s), which keeps
    mu's sign; mu + 0.0 turns -0.0 into +0.0, as -h + s gives at mu = -0.0.
    A float s takes one branch; arrays make the same choice per element.
    """
    if type(s) is float:
        return (-h + s if s < 0.5 * h else (mu + 0.0) / (h + s)), -h - s
    return np.where(s < 0.5 * h, -h + s, (mu + 0.0) / (h + s)), -h - s


def e1(t1, p, q):
    """Critical-curve expression t1 (pq - 1) + 2p + 2."""
    return t1 * (p * q - 1.0) + 2.0 * p + 2.0


def q_upper(N, t1, t2):
    """(N + t2) / (-t1): at and above it, u^q fails weighted L^1."""
    return (N + t2) / (-t1)


def q_lower(t1, t2):
    """(2 - t2) / (-t1): lower strip edge (2.0 - 0.0 is exactly 2.0)."""
    return (2.0 - t2) / (-t1)


def e1_curve(t1, p):
    """The q with e1 = 0 at p: (t1 - 2p - 2) / (t1 p)."""
    return (t1 - 2.0 * p - 2.0) / (t1 * p)


def curve_end(N, t1, t2):
    """The p where e1 = 0 meets q = q_upper: (2 - t1) / (N - 2 + t2).

    tau_+ >= -(N - 2)/2, so the denominator is at least (N - 2)/2.
    """
    return (2.0 - t1) / (N - 2 + t2)
