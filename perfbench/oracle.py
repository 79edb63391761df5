"""Reference computations made apart from the program, with numpy alone.

Polynomial frames are differentiated exactly from their coefficients; the
equation coefficients ``P_i`` and their derivatives come from the
juxtaposed matrix ``J = (A | ... | A^(k-1))`` through the differentiated
solve ``sum_j C(m, j) J^(j) S^(m-j) = -A^(k+m)``, where block ``k - i`` of
``S`` is ``C(k, i) P_i``.  ODE frames are rebuilt from their block
companion matrix.  Nothing here imports :mod:`fanning`.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


def poly_derivative(coeffs, t, j):
    """``A^(j)(t)`` of the matrix polynomial with coefficients ``coeffs[i]``."""
    out = np.zeros(coeffs.shape[1:])
    for i in range(j, coeffs.shape[0]):
        out += math.perm(i, j) * coeffs[i] * t ** (i - j)
    return out


def juxtaposed(coeffs, k, t, shift=0):
    """``(A^(s) | ... | A^(s+k-1))(t)`` for ``s = shift``."""
    return np.hstack([poly_derivative(coeffs, t, shift + j) for j in range(k)])


def coefficient_derivatives(coeffs, k, n, t, order):
    """``[P_1, .., P_k]`` derivatives ``0 .. order`` at ``t`` for a polynomial frame.

    Returns ``d[r][i - 1] = P_i^(r)(t)`` together with ``J(t)``.
    """
    jux = [juxtaposed(coeffs, k, t, shift=j) for j in range(order + 1)]
    s = []
    for m in range(order + 1):
        rhs = poly_derivative(coeffs, t, k + m)
        for j in range(1, m + 1):
            rhs = rhs + math.comb(m, j) * jux[j] @ s[m - j]
        s.append(-np.linalg.solve(jux[0], rhs))
    d = [
        [s_r[(k - i) * n : (k - i + 1) * n] / math.comb(k, i) for i in range(1, k + 1)]
        for s_r in s
    ]
    return d, jux[0]


def kappa_from(p1, p2, dp1):
    """``kappa = P_2 - P_1^2 - P_1'``."""
    return p2 - p1 @ p1 - dp1


def h1_from(p1, p2, p3, dp1, ddp1):
    """The paper's closed formula for ``h_1``."""
    return (
        p3 - 3.0 * p1 @ p2 - 2.0 * dp1 @ p1 + 2.0 * p1 @ dp1
        + 2.0 * p1 @ p1 @ p1 - ddp1
    )


def poly_kappa(coeffs, k, n, t):
    d, jux = coefficient_derivatives(coeffs, k, n, t, 1)
    return kappa_from(d[0][0], d[0][1], d[1][0]), jux


def tameness(coeffs, k, n, times, order):
    """Worst ``|P_i^(r)| / r!`` for ``r <= order`` and worst ``cond(J)`` on ``times``."""
    worst, cond = 0.0, 0.0
    for t in times:
        d, jux = coefficient_derivatives(coeffs, k, n, t, order)
        cond = max(cond, np.linalg.cond(jux))
        for r, dr in enumerate(d):
            worst = max(worst, max(np.max(np.abs(p)) for p in dr) / math.factorial(r))
    return worst, cond


def conjugation_invariants(m):
    """Characteristic polynomial coefficients: equal for similar matrices."""
    return np.poly(m)[1:]


# -- ODE frames ------------------------------------------------------------


def matrix_poly_value(c, t, der=0):
    """Value (or ``der``-th derivative) of an n x n polynomial ``sum_j c[j] t^j``."""
    if der >= c.shape[0]:
        return np.zeros(c.shape[1:])
    if der:
        c = npoly.polyder(c, der, axis=0)
    return npoly.polyval(t, c)


def ode_p_values(p, t, der=0):
    return [matrix_poly_value(c, t, der) for c in p]


def companion(p_values, k, n):
    """``C`` with ``Y' = Y C`` for the state ``Y = (A | A' | ... | A^(k-1))``."""
    kn = k * n
    c = np.zeros((kn, kn))
    for j in range(k - 1):
        c[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = np.eye(n)
    for i in range(1, k + 1):
        c[(k - i) * n : (k - i + 1) * n, (k - 1) * n :] = -math.comb(k, i) * p_values[i - 1]
    return c


def ode_kappa_h1(p, k, t):
    """kappa and (for k >= 3) h_1 at ``t`` from the coefficient polynomials."""
    v = ode_p_values(p, t)
    d1 = ode_p_values(p, t, 1)
    kappa = kappa_from(v[0], v[1], d1[0])
    if k < 3:
        return kappa, None
    d2 = ode_p_values(p, t, 2)
    return kappa, h1_from(v[0], v[1], v[2], d1[0], d2[0])


def rk4_states(p, a0, k, n, times, step):
    """Fixed-step RK4 states ``Y(t)`` at sorted ``times`` (screening only)."""
    y = np.array(a0, dtype=float)
    t = 0.0
    out = []
    for target in times:
        while t < target - 1e-15:
            h = min(step, target - t)
            f = lambda s, z: z @ companion(ode_p_values(p, s), k, n)
            k1 = f(t, y)
            k2 = f(t + h / 2, y + h / 2 * k1)
            k3 = f(t + h / 2, y + h / 2 * k2)
            k4 = f(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        out.append(y.copy())
    return out


def ode_reference(p, a0, k, n, times, constant):
    """Reference states ``Y(t)`` and normalizers ``X(t)`` at ``times``.

    Returns two dicts keyed by time.  ``X`` solves ``X' = -X P_1`` with
    ``X(0) = I``.  Constant coefficients use ``expm``; otherwise DOP853 at
    tolerances three orders tighter than the program's RK45 defaults.
    """
    import scipy.linalg
    from scipy.integrate import solve_ivp

    kn = k * n
    times = sorted(set(float(t) for t in times) | {0.0})
    if constant:
        c = companion(ode_p_values(p, 0.0), k, n)
        p1 = ode_p_values(p, 0.0)[0]
        states = {t: a0 @ scipy.linalg.expm(t * c) for t in times}
        xs = {t: scipy.linalg.expm(-t * p1) for t in times}
        return states, xs

    def rhs(t, y):
        state = y[: kn * kn].reshape(kn, kn)
        x = y[kn * kn :].reshape(n, n)
        p_values = ode_p_values(p, t)
        return np.concatenate([(state @ companion(p_values, k, n)).reshape(-1),
                               (-x @ p_values[0]).reshape(-1)])

    y0 = np.concatenate([np.asarray(a0, dtype=float).reshape(-1), np.eye(n).reshape(-1)])
    sol = solve_ivp(rhs, (0.0, max(times[-1], 1e-12)), y0, t_eval=times,
                    method="DOP853", rtol=1e-13, atol=1e-15)
    states = {t: sol.y[: kn * kn, i].reshape(kn, kn) for i, t in enumerate(times)}
    xs = {t: sol.y[kn * kn :, i].reshape(n, n) for i, t in enumerate(times)}
    return states, xs


# -- subspaces -------------------------------------------------------------


def span_distance(u, v):
    """sin of the largest principal angle between two column spans of equal rank."""
    qu = np.linalg.qr(np.asarray(u, dtype=float))[0]
    qv = np.linalg.qr(np.asarray(v, dtype=float))[0]
    return float(np.linalg.norm(qv - qu @ (qu.T @ qv), 2))
