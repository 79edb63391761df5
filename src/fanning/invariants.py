"""Differential invariants of fanning frames.

Everything here is computed through jets at a point: the coefficients of
the order-k linear equation satisfied by the frame, the matrix Schwarzian
and the Wilczynski-type invariants ``h_j``, normalizing frame changes, and
the endomorphism family (fundamental endomorphism, reflection, projection,
horizontal derivative and Jacobi endomorphism) together with their
moving-frame matrices.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .curves import InsufficientOrderError, IntegrationError, OdeFrameCurve
from .jets import MatrixJet, jet_mul

NORMALITY_RTOL = 1e-8


class NotNormalError(ValueError):
    """An operation defined only for normal frames received a non-normal one."""


class InternalConsistencyError(RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Equation coefficients ``P_1 .. P_k`` with the derived invariants.

    ``kappa`` is half the Schwarzian; ``h`` holds ``h_1 .. h_(k-2)``.
    All entries are n x n jets at the frame's base time.
    """

    p: tuple
    kappa: MatrixJet
    h: tuple

    @property
    def schwarzian(self):
        return 2.0 * self.kappa


def ode_coefficients(fj, order=None):
    """Coefficients ``P_1 .. P_k`` of the frame's order-k equation, as jets.

    Solves the block system ``(A | A' | ... | A^(k-1)) S = -A^(k)`` at jet
    level; block ``k - i`` of ``S`` is ``C(k, i) P_i``.  With a frame jet
    of order R the coefficient jets have order R - k.
    """
    k, n = fj.k, fj.n
    available = fj.order - k
    if available < 0:
        raise InsufficientOrderError(
            f"equation coefficients need frame order >= {k}, have {fj.order}"
        )
    if order is None:
        order = available
    elif order > available:
        raise InsufficientOrderError(
            f"coefficient order {order} needs frame order >= {k + order}, have {fj.order}"
        )
    fj.require_fanning()
    top = fj.derivative_jet(k)
    stacked = jet_mul(fj.juxtaposed_inverse, -top).truncated(order)
    ps = []
    for i in range(1, k + 1):
        j = k - i
        scale = 1.0 / math.comb(k, i)
        coeffs = tuple(scale * c[j * n : (j + 1) * n, :] for c in stacked.coeffs)
        ps.append(MatrixJet(fj.base_time, coeffs))
    return tuple(ps)


def schwarzian(fj):
    """Matrix Schwarzian ``{A, t} = 2 (P_2 - P_1^2 - P_1')`` as a jet."""
    p = ode_coefficients(fj)
    if p[0].order < 1:
        raise InsufficientOrderError(
            f"the Schwarzian needs frame order >= {fj.k + 1}, have {fj.order}"
        )
    p1, p2 = p[0], p[1]
    return 2.0 * (p2 - jet_mul(p1, p1) - p1.derivative())


def _w_chain(p1, length):
    """Jets ``W_0 .. W_length`` with ``W_0 = I`` and ``W_(m+1) = -P_1 W_m + W_m'``.

    The chain starts from ``W_1 = -P_1`` rather than differentiating the
    constant ``W_0``, which would cost one order; so ``W_m`` keeps order
    ``R - m + 1`` for a ``P_1`` jet of order R.
    """
    w = [MatrixJet.identity(p1.rows, p1.base_time, p1.order), -p1]
    for _ in range(length - 1):
        w.append(-jet_mul(p1, w[-1]) + w[-1].derivative())
    return w


def invariants_from_coefficients(p):
    """Invariant set from given coefficient jets ``P_1 .. P_k``.

    ``h_(j-2)`` is the conjugation class of the reduced-equation
    coefficient ``Q_j``; eliminating the normalizing frame change gives
    the closed recursion ``h_(j-2) = sum_i C(j, i) W_(j-i) P_i`` with
    ``P_0 = I``.
    """
    k = len(p)
    if p[0].order < k - 1:
        raise InsufficientOrderError(
            f"h_{k - 2} needs coefficient jets of order >= {k - 1}, have {p[0].order}"
        )
    w = _w_chain(p[0], k)
    hs = []
    for j in range(2, k + 1):
        acc = w[j]
        for i in range(1, j + 1):
            acc = acc + math.comb(j, i) * jet_mul(w[j - i], p[i - 1])
        hs.append(acc)
    return CoefficientSet(p=tuple(p), kappa=hs[0], h=tuple(hs[1:]))


def wilczynski_invariants(fj):
    """Complete invariant set of a frame: ``P_i``, ``kappa``, ``h_1 .. h_(k-2)``.

    Producing ``h_j`` as a value needs a frame jet of order at least
    ``k + j + 1``, since its top term contains ``P_1^(j+1)``.
    """
    k = fj.k
    if fj.order < 2 * k - 1:
        raise InsufficientOrderError(
            f"the full invariant set needs frame order >= {2 * k - 1}, have {fj.order}"
        )
    return invariants_from_coefficients(ode_coefficients(fj))


def h1_closed_form(p1, p2, p3):
    """The first invariant written out in the equation coefficients.

    ``h_1 = P_3 - 3 P_1 P_2 - 2 P_1' P_1 + 2 P_1 P_1' + 2 P_1^3 - P_1''``.
    """
    d1 = p1.derivative()
    d2 = d1.derivative()
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
    d1 = p1.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
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


def is_normal(fj, rtol=NORMALITY_RTOL):
    """Whether ``P_1`` vanishes at the base time, relative to ``P_2``."""
    p = ode_coefficients(fj)
    p1 = np.max(np.abs(p[0].value()))
    p2 = np.max(np.abs(p[1].value()))
    return bool(p1 < rtol * (1.0 + p2))


def require_normal(fj, rtol=NORMALITY_RTOL):
    if not is_normal(fj, rtol):
        p1 = np.max(np.abs(ode_coefficients(fj)[0].value()))
        raise NotNormalError(
            f"frame is not normal at t={fj.base_time!r}: |P_1| = {p1:.3e}"
        )


def normalizing_jet(p1, y0=None):
    """Jet of the right factor ``Y`` making ``A Y`` normal.

    ``Y`` solves ``Y' = P_1 Y`` with ``Y(t0) = y0`` (identity by default);
    it is the inverse of the reduction frame change ``X`` that solves
    ``X' = -X P_1``.
    """
    n = p1.rows
    y0 = np.eye(n) if y0 is None else np.asarray(y0, dtype=float)
    coeffs = [y0]
    for m in range(p1.order + 1):
        s = np.zeros((n, n))
        for i in range(m + 1):
            s += p1.coeffs[i] @ coeffs[m - i]
        coeffs.append(s / (m + 1))
    return MatrixJet(p1.base_time, tuple(coeffs))


def normalized_frame_jet(fj):
    """The normal frame jet through the same point: ``A Y`` with ``P_1 -> 0``.

    The output order is ``R - k + 1`` for an input of order R, the most the
    normalizing change is determined to.
    """
    p = ode_coefficients(fj)
    y = normalizing_jet(p[0])
    return fj.right_multiplied(y)


@dataclass(frozen=True, eq=False)
class NormalizationRecord:
    """Normalizing frame change integrated along a grid.

    ``x[i]`` solves ``X' = -X P_1`` with ``X(times[0]) = I``; ``frames[i]``
    is the normal frame value ``B = A X^-1`` at ``times[i]`` (the inverse
    makes the order k-1 term vanish); ``q[j - 2][i]`` holds the
    reduced-equation coefficient ``Q_j = P_j[B]`` there, and
    ``p1_residuals`` the achieved ``max |P_1[B]|``.
    """

    times: tuple
    x: tuple
    frames: tuple
    q: tuple
    p1_residuals: tuple


def _p1_value(curve, t):
    """Value of P_1 at ``t`` by an instantaneous linear solve on the curve."""
    if isinstance(curve, OdeFrameCurve):
        return curve.p[0].value(t)
    k, n = curve.k, curve.n
    row = curve.derivative_row(t)
    s = np.linalg.solve(row[:, : k * n], -row[:, k * n :])
    return s[(k - 1) * n :, :] / k


def normal_frame(curve, grid, jet_order=None, rtol=1e-10, atol=1e-12, jets=None):
    """Integrate the normalizing change ``X' = -X P_1`` along a time grid.

    The grid must be strictly monotonic; integration starts at the first
    grid point with ``X = I``.  Each returned sample carries the normal
    frame value ``B = A X^-1`` and the coefficients ``Q_j = P_j[B]``.
    ``jets`` may pass the curve's frame jets at the grid times, one per
    time in grid order and of order at least ``jet_order``, when the
    caller already holds them.
    """
    k, n = curve.k, curve.n
    times = [float(t) for t in grid]
    if len(times) < 1:
        raise ValueError("empty time grid")
    steps = np.diff(times)
    if len(times) > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("time grid must be strictly monotonic")
    if jet_order is None:
        jet_order = 2 * k + 1

    def rhs(t, y):
        x = y.reshape(n, n)
        return (-x @ _p1_value(curve, t)).reshape(-1)

    xs = [np.eye(n)]
    if len(times) > 1:
        sol = solve_ivp(
            rhs,
            (times[0], times[-1]),
            np.eye(n).reshape(-1),
            method="RK45",
            t_eval=times,
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise IntegrationError(f"normalization stopped early: {sol.message}")
        xs = [sol.y[:, i].reshape(n, n) for i in range(len(times))]

    if jets is None:
        jets = curve.frame_jets(times, jet_order)
    else:
        jets = list(jets)
        if len(jets) != len(times):
            raise ValueError(f"got {len(jets)} jets for {len(times)} grid times")
        if jets and min(fj.order for fj in jets) < jet_order:
            raise ValueError(f"jets must have order >= {jet_order}")
    frames = []
    qs = []
    residuals = []
    for fj, x in zip(jets, xs):
        fj.require_fanning()
        p1 = ode_coefficients(fj)[0]
        yjet = normalizing_jet(p1, y0=np.linalg.inv(x))
        bjet = fj.right_multiplied(yjet)
        pb = ode_coefficients(bjet)
        residuals.append(float(np.max(np.abs(pb[0].value()))))
        frames.append(bjet.jet.value())
        qs.append([pb[j].value() for j in range(1, k)])
    q_by_index = tuple(
        tuple(qs[i][j] for i in range(len(times))) for j in range(k - 1)
    )
    return NormalizationRecord(
        times=tuple(times),
        x=tuple(xs),
        frames=tuple(frames),
        q=q_by_index,
        p1_residuals=tuple(residuals),
    )


# -- endomorphism family ----------------------------------------------------


def nilpotent_matrix(k, n):
    """Block nilpotent with superdiagonal blocks ``1 I, 2 I, ..., (k-1) I``."""
    m = np.zeros((k * n, k * n))
    for j in range(k - 1):
        m[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = (j + 1) * np.eye(n)
    return m


def fundamental_endomorphism(fj, jet_order=None):
    """The equivariant endomorphism with ``F A^(i) = i A^(i-1)``, as a jet.

    Computed as the conjugate of the canonical nilpotent by the juxtaposed
    lift.  A frame jet of order R supports ``jet_order`` up to R - k + 1.
    """
    fj.require_fanning()
    available = fj.order - fj.k + 1
    if jet_order is None:
        jet_order = available
    elif jet_order > available:
        raise InsufficientOrderError(
            f"endomorphism jet order {jet_order} needs frame order >= "
            f"{fj.k - 1 + jet_order}, have {fj.order}"
        )
    nil = MatrixJet.constant(
        nilpotent_matrix(fj.k, fj.n), fj.base_time, fj.juxtaposed.order
    )
    f = jet_mul(jet_mul(fj.juxtaposed, nil), fj.juxtaposed_inverse)
    return f.truncated(jet_order)


@dataclass(frozen=True, eq=False)
class EndomorphismBundle:
    """Pointwise endomorphism data of a fanning frame.

    ``fundamental`` is the endomorphism jet; ``reflection`` its derivative
    scaled to an involution; ``projection`` projects onto the vertical
    space along the horizontal curve; ``pdot`` is the projection's time
    derivative, ``jacobi`` its square; ``horizontal`` spans the horizontal
    curve; ``moving_frame`` juxtaposes ``(A | ... | A^(k-2) | H)`` at the
    base time.
    """

    fundamental: MatrixJet
    reflection: np.ndarray
    projection: np.ndarray
    pdot: np.ndarray
    jacobi: np.ndarray
    horizontal: MatrixJet
    moving_frame: np.ndarray
    nilpotent: np.ndarray
    base_time: float
    horizontal_residual: float


def horizontal_derivative(fj):
    """Jet of ``H = A^(k-1) - (1/k) F A^(k)``, the span of the horizontal curve."""
    k = fj.k
    if fj.order < k + 1:
        raise InsufficientOrderError(
            f"the horizontal derivative needs frame order >= {k + 1}, have {fj.order}"
        )
    f = fundamental_endomorphism(fj)
    top = fj.derivative_jet(k)
    return fj.derivative_jet(k - 1).truncated(top.order) - (1.0 / k) * jet_mul(
        f.truncated(top.order), top
    )


def _horizontal_from_coefficients(fj, p):
    """Eq-derived route: ``H = A^(k-1) + sum C(k-1, i) A^(k-1-i) P_i``."""
    k = fj.k
    order = fj.order - k
    acc = fj.derivative_jet(k - 1).truncated(order)
    for i in range(1, k):
        acc = acc + math.comb(k - 1, i) * jet_mul(
            fj.derivative_jet(k - 1 - i).truncated(order), p[i - 1].truncated(order)
        )
    return acc


def endomorphism_bundle(fj, consistency_rtol=1e-6):
    """All pointwise endomorphism data; the two horizontal routes must agree."""
    k, n = fj.k, fj.n
    if fj.order < k + 1:
        raise InsufficientOrderError(
            f"the endomorphism bundle needs frame order >= {k + 1}, have {fj.order}"
        )
    fj.require_fanning()
    f = fundamental_endomorphism(fj)
    eye = np.eye(k * n)
    fdot = f.derivative_value(1)
    reflection = (2.0 * fdot - (k - 2) * eye) / k
    projection = (eye - reflection) / 2.0
    fddot = f.derivative_value(2)
    pdot = -fddot / k
    jacobi = pdot @ pdot

    h = horizontal_derivative(fj)
    p = ode_coefficients(fj)
    h_alt = _horizontal_from_coefficients(fj, p)
    scale = 1.0 + max(np.max(np.abs(c)) for c in h.coeffs)
    residual = max(
        np.max(np.abs(a - b)) for a, b in zip(h.coeffs, h_alt.coeffs)
    )
    if residual > consistency_rtol * scale:
        raise InternalConsistencyError(
            f"horizontal-derivative routes disagree: residual {residual:.3e}"
        )

    moving = np.empty((k * n, k * n))
    for j in range(k - 1):
        moving[:, j * n : (j + 1) * n] = fj.derivative_jet(j).value()
    moving[:, (k - 1) * n :] = h.value()

    return EndomorphismBundle(
        fundamental=f,
        reflection=reflection,
        projection=projection,
        pdot=pdot,
        jacobi=jacobi,
        horizontal=h,
        moving_frame=moving,
        nilpotent=nilpotent_matrix(k, n),
        base_time=fj.base_time,
        horizontal_residual=float(residual),
    )


def _normal_invariant_jets(fj):
    """``kappa, h_1 .. h_(k-2)`` of a normal frame, directly from the P jets."""
    p = ode_coefficients(fj)
    return [p[j] for j in range(1, fj.k)]


def jacobi_matrix(fj, which="K", consistency_rtol=1e-6):
    """Moving-frame matrix of the Jacobi endomorphism or of ``P'``.

    For a normal frame of order >= k+1, the Jacobi endomorphism written in
    the basis ``(A | ... | A^(k-2) | H)`` has a single nonzero column pair:
    the penultimate column stacks ``C(k-1, j) (h_(j-1) - h_(j-2)')`` from
    the bottom entry ``(k-1) kappa`` upward, and the corner block repeats
    ``(k-1) kappa``.  For ``which="Pdot"`` the same stack sits in the last
    column with an identity block at position (k, k-1).  The analytic
    pattern is cross-checked against the direct change of basis.
    """
    if which not in ("K", "Pdot"):
        raise ValueError(f"which must be 'K' or 'Pdot', got {which!r}")
    k, n = fj.k, fj.n
    require_normal(fj)
    invariants = _normal_invariant_jets(fj)
    if invariants[0].order < 1:
        raise InsufficientOrderError(
            f"the Jacobi matrix needs frame order >= {k + 1}, have {fj.order}"
        )

    column = np.zeros((k * n, n))
    for r in range(k - 1):
        h_hi = invariants[k - 2 - r].value()
        entry = h_hi.copy()
        if k - 3 - r >= 0:
            entry -= invariants[k - 3 - r].derivative_value(1)
        entry *= math.comb(k - 1, k - 1 - r)
        column[r * n : (r + 1) * n] = entry
    kappa = invariants[0].value()

    pattern = np.zeros((k * n, k * n))
    if which == "K":
        pattern[:, (k - 2) * n : (k - 1) * n] = column
        pattern[(k - 1) * n :, (k - 1) * n :] = (k - 1) * kappa
    else:
        pattern[:, (k - 1) * n :] = column
        pattern[(k - 1) * n :, (k - 2) * n : (k - 1) * n] = np.eye(n)

    bundle = endomorphism_bundle(fj)
    target = bundle.jacobi if which == "K" else bundle.pdot
    direct = np.linalg.solve(bundle.moving_frame, target @ bundle.moving_frame)
    scale = 1.0 + np.max(np.abs(direct))
    residual = np.max(np.abs(direct - pattern))
    if residual > consistency_rtol * scale:
        raise InternalConsistencyError(
            f"Jacobi pattern and change of basis disagree: residual {residual:.3e}"
        )
    return pattern


def maurer_cartan_pullback(fj, lift="with_H"):
    """Pullback ``L^-1 L'`` at the base time for one of the two frame lifts.

    ``lift="with_H"`` uses ``L = (A | ... | A^(k-2) | H)``;
    ``lift="with_kth_derivative"`` uses the plain juxtaposed lift
    ``(A | ... | A^(k-1))``.  The frame must be normal.
    """
    if lift not in ("with_H", "with_kth_derivative"):
        raise ValueError(f"unknown lift {lift!r}")
    k, n = fj.k, fj.n
    require_normal(fj)
    if fj.order < k + 1:
        raise InsufficientOrderError(
            f"the pullback needs frame order >= {k + 1}, have {fj.order}"
        )
    if lift == "with_kth_derivative":
        jux = fj.juxtaposed
        return np.linalg.solve(jux.value(), jux.derivative_value(1))
    h = horizontal_derivative(fj)
    order = h.order
    if order < 1:
        raise InsufficientOrderError(
            f"the H-lift pullback needs frame order >= {k + 1}, have {fj.order}"
        )
    coeffs = []
    for m in range(order + 1):
        block = np.empty((k * n, k * n))
        for j in range(k - 1):
            block[:, j * n : (j + 1) * n] = math.perm(m + j, j) * fj.jet.coeffs[m + j]
        block[:, (k - 1) * n :] = h.coeffs[m]
        coeffs.append(block)
    lifted = MatrixJet(fj.base_time, tuple(coeffs))
    return np.linalg.solve(lifted.value(), lifted.derivative_value(1))
