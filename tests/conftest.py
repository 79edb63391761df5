"""Shared generators and independent oracles for the test suite."""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fanning import JetError, MatrixJet, OdeFrameCurve, PolynomialFrameCurve, PolynomialMatrix
from fanning.curves import FrameJet
from fanning.jets import jet_mul


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_invertible(dim, rng, cond_max=100.0):
    while True:
        m = rng.standard_normal((dim, dim))
        if np.linalg.cond(m) < cond_max:
            return m


def random_jet(rows, cols, order, rng, base_time=0.0, scale=1.0):
    return MatrixJet(
        base_time, tuple(scale * rng.standard_normal((rows, cols)) for _ in range(order + 1))
    )


def random_frame_jet(k, n, order, rng, base_time=0.0, scale=0.3, cond_max=50.0):
    """Random fanning frame jet: canonical derivative blocks plus O(1) noise.

    Noise is scaled down with the Taylor factorials so the juxtaposed
    value stays a uniform perturbation of the identity at every (k, n).
    """
    while True:
        coeffs = []
        for j in range(order + 1):
            c = scale * rng.standard_normal((k * n, n)) / math.factorial(min(j, k))
            if j <= k - 1:
                c[j * n : (j + 1) * n] += np.eye(n) / math.factorial(j)
            coeffs.append(c)
        fj = FrameJet(MatrixJet(base_time, tuple(coeffs)))
        if fj.condition < cond_max:
            return fj


def standard_jet(k, n, order):
    """Canonical frame jet at t=0: ``A^(j)`` is the j-th block column for
    j <= k-1 and zero above.

    Its juxtaposed value is the identity, so the jet is fanning and its
    fundamental endomorphism equals the canonical nilpotent matrix.
    """
    coeffs = np.zeros((order + 1, k * n, n))
    for j in range(k):
        coeffs[j, j * n : (j + 1) * n] = np.eye(n) / math.factorial(j)
    return FrameJet(MatrixJet(0.0, coeffs))


def frame_jet_samples(fj):
    """The samples of a frame jet batched over one axis, as unbatched frame jets."""
    return [
        FrameJet(MatrixJet(float(t), coeffs)) for t, coeffs in zip(fj.base_time, fj.jet.coeffs)
    ]


def random_polynomial_curve(k, n, rng, degree=None, scale=0.25, window=(0.0, 0.6), cond_max=60.0):
    """Random polynomial frame curve staying well conditioned on ``window``.

    Built around the factorial-normalized free curve (juxtaposed value I
    at t=0) so conditioning and invariant magnitudes stay O(1) at every
    (k, n).
    """
    degree = k + 3 if degree is None else degree
    checks = np.linspace(window[0], window[1], 5)
    while True:
        coeffs = []
        for j in range(degree + 1):
            noise = scale * rng.standard_normal((k * n, n))
            if j < k:
                noise[j * n : (j + 1) * n] += np.eye(n)
            coeffs.append(noise / math.factorial(min(j, k)))
        curve = PolynomialFrameCurve(k, n, tuple(coeffs))
        if max(curve.frame_jet(t, k - 1).condition for t in checks) < cond_max:
            return curve


def tame_polynomial_curve(k, n, rng, window=(0.0, 0.5), scale=None, peak=4.0, jet_peak=60.0):
    """Random curve whose equation coefficients stay bounded on ``window``.

    Normalization integrates P_1 along the window, so coefficient spikes
    (near-poles) must be screened out; bounding the coefficient jets at
    the window ends keeps the nearest complex singularity away and the
    whole jet pipeline well conditioned.  The default perturbation scale
    shrinks with k so that high-order coefficient extraction stays far
    from the singularity-driven growth regime.
    """
    checks = np.linspace(window[0], window[1], 17)
    if scale is None:
        scale = {2: 0.2, 3: 0.16, 4: 0.12, 5: 0.08}.get(k, 0.06)
    while True:
        curve = random_polynomial_curve(k, n, rng, scale=scale, window=window)
        try:
            worst = max(
                np.max(np.abs(np.concatenate(curve_p_values(curve, t))))
                for t in checks
            )
        except np.linalg.LinAlgError:
            continue
        if worst >= peak:
            continue
        from fanning import ode_coefficients

        growth = 0.0
        for t in (window[0], window[1]):
            p = ode_coefficients(curve.frame_jet(t, 2 * k))
            growth = max(growth, max(np.max(np.abs(c)) for pj in p for c in pj.coeffs))
        if growth < jet_peak:
            return curve


def drifting_ode_curve(rng, k=3, n=2):
    """ODE curve whose coefficients drift linearly in t, away from a centre."""
    from fanning import OdeFrameCurve

    ps = []
    for i in range(1, k + 1):
        c0 = (0.25 if i == 2 else 0.0) * np.eye(n) + 0.05 * rng.standard_normal((n, n))
        c1 = 0.02 * rng.standard_normal((n, n))
        ps.append(PolynomialMatrix((c0, c1)))
    return OdeFrameCurve(k, n, tuple(ps), random_invertible(k * n, rng, cond_max=10.0))


def random_polynomial_matrix_curve(n, degree, rng, scale=0.5):
    """Random n x n matrix polynomial with invertible constant term."""
    coeffs = [random_invertible(n, rng)]
    coeffs.extend(scale * rng.standard_normal((n, n)) for _ in range(degree))
    return PolynomialMatrix(tuple(coeffs))


def polynomial_product(a, b):
    """The matrix polynomial ``a(t) b(t)``, by coefficient convolution."""
    coeffs = np.zeros((a.degree + b.degree + 1, a.shape[0], b.shape[1]))
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            coeffs[i + j] += x @ y
    return PolynomialMatrix(coeffs)


def right_multiplied(curve, x):
    """The polynomial curve ``A(t) X(t)`` for a constant matrix or a PolynomialMatrix ``X``."""
    if not isinstance(x, PolynomialMatrix):
        x = PolynomialMatrix(np.asarray(x, dtype=float)[None])
    product = polynomial_product(curve.polynomial, x)
    return PolynomialFrameCurve(curve.k, curve.n, product.coefficients)


def unconjugate_ode_pair():
    """Two k = 2, n = 2 ODE curves whose invariant traces agree, but no conjugator relates.

    P_1 = 0 on both curves, P_2^A = D and P_2^B(t) = S(t)^-1 D S(t) with
    S(t) = (I + t E_12)(I + t E_21), whose inverse is polynomial.  kappa of
    B is conjugate to that of A at every time, so the traces agree, but
    only X = 0 conjugates them at t = 0 and to first order in t.
    """
    d, swap = np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    eye, e11, e22 = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    s = PolynomialMatrix(np.stack([eye, swap, e11]))
    s_inv = PolynomialMatrix(np.stack([eye, -swap, e22]))
    zero = PolynomialMatrix(np.zeros((1, 2, 2)))
    p2_b = polynomial_product(polynomial_product(s_inv, PolynomialMatrix(d[None])), s)
    curve_a = OdeFrameCurve(2, 2, (zero, PolynomialMatrix(d[None])), np.eye(4))
    curve_b = OdeFrameCurve(2, 2, (zero, p2_b), np.eye(4))
    return curve_a, curve_b


def tan_taylor_coefficients(degree):
    """Taylor coefficients of tan at 0, from m' = 1 + m^2."""
    a = np.zeros(degree + 1)
    for j in range(degree):
        s = 1.0 if j == 0 else 0.0
        s += sum(a[i] * a[j - i] for i in range(j + 1))
        a[j + 1] = s / (j + 1)
    return a


def tan_curve(degree=25):
    """The k=2, n=1 frame (1, tan t) as a high-degree Taylor polynomial."""
    a = tan_taylor_coefficients(degree)
    coeffs = [np.array([[1.0], [a[0]]])]
    coeffs.extend(np.array([[0.0], [a[j]]]) for j in range(1, degree + 1))
    return PolynomialFrameCurve(2, 1, tuple(coeffs))


def classical_schwarzian(poly_coeffs, t):
    """m'''/m' - 1.5 (m''/m')^2 for a scalar polynomial, evaluated directly."""
    m = np.polynomial.Polynomial(poly_coeffs)
    d1, d2, d3 = m.deriv(1)(t), m.deriv(2)(t), m.deriv(3)(t)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def derivative_value(curve, t, j):
    """A^(j)(t) of a polynomial frame curve by direct differentiation."""
    val = np.zeros((curve.k * curve.n, curve.n))
    for i in range(j, curve.degree + 1):
        val = val + math.perm(i, j) * curve.coefficients[i] * float(t) ** (i - j)
    return val


def taylor_shift(coefficients, t, order):
    """Coefficients of ``sum_i C_i s^i`` re-expanded about ``s = t``, one term at a time.

    Coefficient ``j`` is ``sum_(i >= j) C(i, j) t^(i-j) C_i``.
    """
    out = np.zeros((order + 1,) + coefficients.shape[1:])
    for j in range(order + 1):
        for i in range(j, len(coefficients)):
            out[j] += math.comb(i, j) * coefficients[i] * t ** (i - j)
    return out


def jet_derivative(a):
    """d/dt of the jet; the order drops by one."""
    if a.order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    factors = np.arange(1, a.order + 1, dtype=float)[:, None, None]
    return MatrixJet(a.base_time, factors * a.coeffs[..., 1:, :, :])


def truncated(jet, order):
    """``jet`` with its coefficients above ``order`` dropped."""
    assert order <= jet.order, f"cannot extend an order-{jet.order} jet to order {order}"
    return MatrixJet(jet.base_time, jet.coeffs[..., : order + 1, :, :])


def ambient_endomorphisms(fj):
    """The endomorphisms of ``fj`` in ambient coordinates, written out from its F.

    ``reflection`` is ``D = (2 F' - (k-2) I) / k``, ``projection`` is
    ``(I - D) / 2``, ``pdot`` its derivative ``-F'' / k`` and ``jacobi``
    the square of that; ``horizontal`` is the jet of
    ``H = A^(k-1) - (1/k) F A^(k)``, and ``moving_frame`` the value of
    ``(A | ... | A^(k-2) | H)``.  All values are at the base time.
    """
    k, n = fj.k, fj.n
    f = fj.fundamental_endomorphism
    eye = np.eye(k * n)
    reflection = (2.0 * f.derivative_value(1) - (k - 2) * eye) / k
    pdot = -f.derivative_value(2) / k
    h = fj.derivative_jet(k - 1) - (1.0 / k) * jet_mul(f, fj.derivative_jet(k))
    moving = np.concatenate((fj.juxtaposed.value()[..., : (k - 1) * n], h.value()), axis=-1)
    return SimpleNamespace(
        reflection=reflection,
        projection=(eye - reflection) / 2.0,
        pdot=pdot,
        jacobi=pdot @ pdot,
        horizontal=h,
        moving_frame=moving,
    )


def pullback_by_solve(fj, lift):
    """``L^-1 L'`` at the base time by one solve, for ``lift`` ``"H"`` or ``"kderiv"``.

    ``L`` is the juxtaposed lift, with its last block column replaced by the
    ambient H for the H-lift.
    """
    k, n = fj.k, fj.n
    lifted = fj.juxtaposed.coeffs[..., :2, :, :].copy()
    if lift == "H":
        lifted[..., :, (k - 1) * n :] = ambient_endomorphisms(fj).horizontal.coeffs[..., :2, :, :]
    return np.linalg.solve(lifted[..., 0, :, :], lifted[..., 1, :, :])


def jet_mul_reference(a, b):
    """Cauchy product summed term by term: ``c_j = a_0 b_j``, then ``+= a_i b_(j-i)``."""
    out = []
    for j in range(min(a.order, b.order) + 1):
        c = a.coeffs[0] @ b.coeffs[j]
        for i in range(1, j + 1):
            c = c + a.coeffs[i] @ b.coeffs[j - i]
        out.append(c)
    return np.array(out)


def jet_inverse_reference(a):
    """Jet inverse by the recursion ``b_m = -b_0 sum_(i=1..m) a_i b_(m-i)``, ``b_0 = a_0^-1``."""
    c = a.coeffs
    b = np.empty_like(c)
    b[..., 0, :, :] = np.linalg.inv(c[..., 0, :, :])
    for m in range(1, a.order + 1):
        s = c[..., 1, :, :] @ b[..., m - 1, :, :]
        for i in range(2, m + 1):
            s += c[..., i, :, :] @ b[..., m - i, :, :]
        b[..., m, :, :] = -(b[..., 0, :, :] @ s)
    return MatrixJet(a.base_time, b)


def invariants_reference(p):
    """``kappa, h_1 .. h_(k-2)`` as jets, one jet product at a time.

    ``W_0 = I``, ``W_1 = -P_1``, ``W_(m+1) = -P_1 W_m + W_m'`` and
    ``h_(j-2) = W_j + sum_(i=1..j) C(j, i) W_(j-i) P_i``.
    """
    k, p1 = len(p), p[0]
    w = [MatrixJet.identity(p1.rows, p1.base_time, p1.order), -p1]
    for _ in range(k - 1):
        w.append(-jet_mul(p1, w[-1]) + jet_derivative(w[-1]))
    hs = []
    for j in range(2, k + 1):
        acc = w[j]
        for i in range(1, j + 1):
            acc = acc + math.comb(j, i) * jet_mul(w[j - i], p[i - 1])
        hs.append(acc)
    return hs


def kron_system(pairs):
    """The intertwining system ``M kron I - I kron N^T``, one Kronecker pair at a time."""
    n = len(pairs[0][0])
    eye = np.eye(n)
    return np.vstack([np.kron(m, eye) - np.kron(eye, nn.T) for m, nn in pairs])


def eigenspace(m, eigenvalue, rtol=1e-8):
    """Orthonormal basis of the (numerical) eigenspace for ``eigenvalue``.

    The right singular vectors of ``m - lambda I`` whose singular values are
    at or below ``rtol`` times the largest.
    """
    m = np.asarray(m, dtype=float)
    _, s, vt = np.linalg.svd(m - eigenvalue * np.eye(m.shape[0]))
    return vt[np.count_nonzero(s > rtol * s[0]) :].T


def ode_jet_reference(curve, t, state, order):
    """Frame jet coefficients of an ODE curve from the equation, term by term.

    Coefficients below k are the state's blocks over ``j!``; coefficient
    ``m >= k`` solves the Taylor coefficient ``m - k`` of
    ``A^(k) = -sum_i C(k, i) A^(k-i) P_i``, a Cauchy product over lower
    coefficients with each ``P_i`` shifted to ``t`` on its own.
    """
    k, n = curve.k, curve.n
    coeffs = np.empty((order + 1, k * n, n))
    for j in range(k):
        coeffs[j] = state[:, j * n : (j + 1) * n] / math.factorial(j)
    p_coeffs = [poly.jet_at(t, max(order - k, 0)).coeffs for poly in curve.p]
    for m in range(k, order + 1):
        idx = m - k
        top = np.zeros((k * n, n))
        for i in range(1, k + 1):
            for r in range(idx + 1):
                top -= (
                    math.comb(k, i) * math.perm(r + k - i, k - i) * coeffs[r + k - i]
                ) @ p_coeffs[i - 1][idx - r]
        coeffs[m] = top / math.perm(m, k)
    return coeffs


def normalizing_jet_reference(p1, y0):
    """Coefficients of ``Y' = P_1 Y`` with ``Y(t0) = y0``, summed term by term."""
    n = p1.rows
    coeffs = np.empty((p1.order + 2, n, n))
    coeffs[0] = y0
    for m in range(p1.order + 1):
        s = np.zeros((n, n))
        for i in range(m + 1):
            s += p1.coeffs[i] @ coeffs[m - i]
        coeffs[m + 1] = s / (m + 1)
    return coeffs


def curve_p_values(curve, t):
    """Coefficients P_1 .. P_k of the frame equation by a direct value solve."""
    k, n = curve.k, curve.n
    jux = np.empty((k * n, k * n))
    for j in range(k):
        jux[:, j * n : (j + 1) * n] = derivative_value(curve, t, j)
    s = np.linalg.solve(jux, -derivative_value(curve, t, k))
    return [
        s[(k - i) * n : (k - i + 1) * n, :] / math.comb(k, i) for i in range(1, k + 1)
    ]


def schwarzian(fj):
    """The matrix Schwarzian ``{A, t} = 2 (P_2 - P_1^2 - P_1')`` written out, as a jet.

    The program reports it as ``2 kappa``; this is the direct formula.
    """
    p1, p2 = fj.equation_coefficients[:2]
    return 2.0 * (p2 - jet_mul(p1, p1) - jet_derivative(p1))


def h1_closed_form(p1, p2, p3):
    """The first invariant written out in the equation coefficients.

    ``h_1 = P_3 - 3 P_1 P_2 - 2 P_1' P_1 + 2 P_1 P_1' + 2 P_1^3 - P_1''``.
    """
    d1 = jet_derivative(p1)
    d2 = jet_derivative(d1)
    p1sq = jet_mul(p1, p1)
    return (
        p3
        - 3.0 * jet_mul(p1, p2)
        - 2.0 * jet_mul(d1, p1)
        + 2.0 * jet_mul(p1, d1)
        + 2.0 * jet_mul(p1sq, p1)
        - d2
    )


def h2_closed_form(p1, p2, p3, p4):
    """The second invariant written out in the equation coefficients.

    ``h_2 = P_4 - 4 P_1 P_3 + 6 P_1^2 P_2 - 6 P_1' P_2 + 3 P_1' P_1^2
    - 3 P_1^2 P_1' + 6 P_1 P_1' P_1 + 3 P_1 P_1'' - 3 P_1'' P_1 - 3 P_1^4
    + 3 P_1'^2 - P_1'''``; the last two terms carry the subscript 1
    forced by the reduction recursion.
    """
    d1 = jet_derivative(p1)
    d2 = jet_derivative(d1)
    d3 = jet_derivative(d2)
    p1sq = jet_mul(p1, p1)
    return (
        p4
        - 4.0 * jet_mul(p1, p3)
        + 6.0 * jet_mul(p1sq, p2)
        - 6.0 * jet_mul(d1, p2)
        + 3.0 * jet_mul(d1, p1sq)
        - 3.0 * jet_mul(p1sq, d1)
        + 6.0 * jet_mul(jet_mul(p1, d1), p1)
        + 3.0 * jet_mul(p1, d2)
        - 3.0 * jet_mul(d2, p1)
        - 3.0 * jet_mul(p1sq, p1sq)
        + 3.0 * jet_mul(d1, d1)
        - d3
    )


ALL_KN = [(k, n) for k in (2, 3, 4, 5) for n in (1, 2, 3)]
SMALL_KN = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1)]


def _fmt_reference(x):
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else "null"


def dumps_json_reference(obj):
    """JSON report text written one value at a time, arrays through ``tolist()``."""
    out = io.StringIO()
    _write_json_reference(out, obj, 0)
    out.write("\n")
    return out.getvalue()


def _write_json_reference(out, obj, level):
    pad = " " * (2 * (level + 1))
    closing = " " * (2 * level)
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        items = list(obj.items() if is_dict else enumerate(obj))
        brackets = "{}" if is_dict else "[]"
        if not items:
            out.write(brackets)
            return
        out.write(brackets[0] + "\n")
        for i, (key, value) in enumerate(items):
            if i:
                out.write(",\n")
            out.write(f'{pad}"{key}": ' if is_dict else pad)
            _write_json_reference(out, value, level + 1)
        out.write("\n" + closing + brackets[1])
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt_reference(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, np.ndarray):
        _write_json_reference(out, obj.tolist(), level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_rows_reference(t, name, matrix):
    """CSV rows ``t, name, i, j, value`` of one matrix, one entry at a time."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    t_text = "" if t is None else _fmt_reference(t)
    return [
        f"{t_text},{name},{i},{j},{_fmt_reference(matrix[i, j])}"
        for i in range(matrix.shape[0])
        for j in range(matrix.shape[1])
    ]
