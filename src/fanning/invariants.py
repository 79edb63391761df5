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

from .curves import (
    ODE_ATOL,
    ODE_RTOL,
    InsufficientOrderError,
    IntegrationError,
    OdeFrameCurve,
    nilpotent_matrix,
)
from .jets import MatrixJet, jet_mul

NORMALITY_RTOL = 1e-8
# Relative agreement required of two routes to the same quantity.
CONSISTENCY_RTOL = 1e-6


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


def ode_coefficients(fj):
    """Coefficients ``P_1 .. P_k`` of the frame's order-k equation, as jets.

    They are solved for once per frame jet and cached there
    (:attr:`FrameJet.equation_coefficients`).
    """
    return fj.equation_coefficients


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


def is_normal(fj):
    """Whether ``P_1`` vanishes at the base time, relative to ``P_2``."""
    p = ode_coefficients(fj)
    p1 = np.max(np.abs(p[0].value()))
    p2 = np.max(np.abs(p[1].value()))
    return bool(p1 < NORMALITY_RTOL * (1.0 + p2))


def require_normal(fj):
    if not is_normal(fj):
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
    coeffs = np.empty((p1.order + 2, n, n))
    coeffs[0] = np.eye(n) if y0 is None else y0
    for m in range(p1.order + 1):
        s = np.zeros((n, n))
        for i in range(m + 1):
            s += p1.coeffs[i] @ coeffs[m - i]
        coeffs[m + 1] = s / (m + 1)
    return MatrixJet(p1.base_time, coeffs)


def normalized_frame_jet(fj, y0=None):
    """The normal frame jet through the same point: ``A Y`` with ``P_1 -> 0``.

    ``Y(t0) = y0``, the identity by default.  The output order is
    ``R - k + 1`` for an input of order R, the most the normalizing change
    is determined to.
    """
    return fj.right_multiplied(normalizing_jet(ode_coefficients(fj)[0], y0))


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


def normal_frame(curve, grid, jet_order=None, jets=None):
    """Integrate the normalizing change ``X' = -X P_1`` along a time grid.

    The grid must be strictly monotonic and the frame fanning at every
    grid time, which is checked before integrating; integration starts at
    the first grid point with ``X = I``.  Each returned sample carries the
    normal frame value ``B = A X^-1`` and the coefficients
    ``Q_j = P_j[B]``.  ``jets`` may pass the curve's frame jets at the
    grid times, one per time in grid order and of order at least
    ``jet_order``, when the caller already holds them.
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
    if jets is None:
        jets = curve.frame_jets(times, jet_order)
    else:
        jets = list(jets)
        if len(jets) != len(times):
            raise ValueError(f"got {len(jets)} jets for {len(times)} grid times")
        if jets and min(fj.order for fj in jets) < jet_order:
            raise ValueError(f"jets must have order >= {jet_order}")
    for fj in jets:
        fj.require_fanning()

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
            rtol=ODE_RTOL,
            atol=ODE_ATOL,
        )
        if not sol.success:
            raise IntegrationError(f"normalization stopped early: {sol.message}")
        xs = [sol.y[:, i].reshape(n, n) for i in range(len(times))]

    frames = []
    qs = []
    residuals = []
    for fj, x in zip(jets, xs):
        bjet = normalized_frame_jet(fj, y0=np.linalg.inv(x))
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


def fundamental_endomorphism(fj):
    """The equivariant endomorphism with ``F A^(i) = i A^(i-1)``, as a jet.

    It is built once per frame jet and cached there
    (:attr:`FrameJet.fundamental_endomorphism`).
    """
    return fj.fundamental_endomorphism


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
    top = fj.derivative_jet(k)
    f = fundamental_endomorphism(fj)
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


def endomorphism_bundle(fj):
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
    h_alt = _horizontal_from_coefficients(fj, ode_coefficients(fj))
    scale = 1.0 + np.max(np.abs(h.coeffs))
    residual = np.max(np.abs(h.coeffs - h_alt.coeffs))
    if residual > CONSISTENCY_RTOL * scale:
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


def jacobi_matrix(fj, which="K"):
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
    # With P_1 = 0 the invariants kappa, h_1 .. h_(k-2) are P_2 .. P_k.
    invariants = ode_coefficients(fj)[1:]
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
    if residual > CONSISTENCY_RTOL * scale:
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
    # The H-lift replaces the last block column of the juxtaposed lift.
    lifted = fj.juxtaposed.coeffs[:2].copy()
    if lift == "with_H":
        lifted[:, :, (k - 1) * n :] = horizontal_derivative(fj).coeffs[:2]
    return np.linalg.solve(lifted[0], lifted[1])
