"""Differential invariants of fanning frames.

Everything here is computed through jets at a point: the coefficients of
the order-k linear equation satisfied by the frame, the matrix Schwarzian
and the Wilczynski-type invariants ``h_j``, normalizing frame changes, and
the reflection, Jacobi matrix and Maurer-Cartan pullbacks, read from the
companion matrix C of the ``P_j`` in the basis of the juxtaposed lift J
(``J' = J C``).  The ambient endomorphism bundle, which
:func:`endomorphism_bundle` builds from F on each call, is ``verify``'s
cross-check.  Every function takes a frame jet at one time or batched over
a grid, and returns values of that batch shape, so a grid is one pass
through each of them.  The one quantity integrated along a grid rather
than read from jets is the normalizing change ``X' = -X P_1``:
:func:`normalizer` propagates it in one :func:`~fanning.curves.solve_ivp`
call, the package's one integrator, with ``-P_1`` expanded at every knot
from the curve's prescribed ``P_1`` (ODE curves) or from its frame jets
there (polynomial curves), and :func:`normal_frame` builds the normal
frame ``A X^-1`` from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    TAYLOR_ORDER,
    OdeFrameCurve,
    companion_stack,
    expansion_order,
    first_failure,
    nilpotent_matrix,
    require_order,
    solve_ivp,
)
from .jets import MatrixJet, cauchy_product, jet_mul, linear_taylor

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

    def values(self):
        """Values of ``kappa, h_1 .. h_(k-2)`` at the base time, stacked on a new leading axis."""
        return np.stack([self.kappa.value()] + [h.value() for h in self.h])


def ode_coefficients(fj):
    """Coefficients ``P_1 .. P_k`` of the frame's order-k equation, as jets.

    They are solved for once per frame jet and cached there
    (:attr:`FrameJet.equation_coefficients`).
    """
    return fj.equation_coefficients


def invariants_from_coefficients(p):
    """Invariant set from given coefficient jets ``P_1 .. P_k``.

    ``h_(j-2)`` is the conjugation class of the reduced-equation
    coefficient ``Q_j``; eliminating the normalizing frame change gives
    the closed recursion ``h_(j-2) = sum_i C(j, i) W_(j-i) P_i`` with
    ``P_0 = W_0 = I``, ``W_1 = -P_1`` (one order more than ``W_0'`` keeps)
    and ``W_(m+1) = -P_1 W_m + W_m'``.  Each sum is one Cauchy product
    batched over its terms, added in increasing ``i``.  Raises ``LinAlgError``
    naming the first invariant and time whose value is not finite.
    """
    k, p1 = len(p), p[0]
    require_order(p1.order, k - 1, f"h_{k - 2} from coefficient jets")
    # High orders of W_m may overflow; no order that h_(j-2) keeps reads them.
    with np.errstate(over="ignore", invalid="ignore"):
        w = [MatrixJet.identity(p1.rows, p1.base_time, p1.order), -p1]
        for _ in range(k - 1):
            w.append(-jet_mul(p1, w[-1]) + w[-1].derivative())
        hs = []
        for j in range(2, k + 1):
            count = min(x.order + 1 for x in [w[j]] + list(p[:j]))
            terms = cauchy_product(
                np.stack([w[j - i].coeffs[..., :count, :, :] for i in range(1, j + 1)]),
                np.stack([p[i - 1].coeffs[..., :count, :, :] for i in range(1, j + 1)]),
            )
            h = w[j].coeffs[..., :count, :, :]
            for i in range(1, j + 1):
                h = h + math.comb(j, i) * terms[i - 1]
            hs.append(h)
    finite = np.isfinite(np.stack([h[..., 0, :, :] for h in hs])).all(axis=(-2, -1))
    if not finite.all():
        j, i = np.argwhere(~finite.reshape(len(hs), -1))[0]
        name = f"h_{j}" if j else "kappa"
        t = float(np.ravel(p1.base_time)[i])
        raise np.linalg.LinAlgError(f"{name} at t={t!r} is not finite")
    hs = [MatrixJet(p1.base_time, h) for h in hs]
    return CoefficientSet(p=tuple(p), kappa=hs[0], h=tuple(hs[1:]))


def wilczynski_invariants(fj):
    """Complete invariant set of a frame: ``P_i``, ``kappa``, ``h_1 .. h_(k-2)``.

    Producing ``h_j`` as a value needs a frame jet of order at least
    ``k + j + 1``, since its top term contains ``P_1^(j+1)``.
    """
    require_order(fj.order, 2 * fj.k - 1, "the full invariant set")
    return invariants_from_coefficients(ode_coefficients(fj))


def _p1_size(fj):
    """``max |P_1|`` at the base time, per sample."""
    return np.max(np.abs(ode_coefficients(fj)[0].value()), axis=(-2, -1))


def is_normal(fj):
    """Whether ``P_1`` vanishes at the base time, relative to ``P_2``.

    A bool, or a bool array over the batch.
    """
    p2 = np.max(np.abs(ode_coefficients(fj)[1].value()), axis=(-2, -1))
    normal = _p1_size(fj) < NORMALITY_RTOL * (1.0 + p2)
    return bool(normal) if normal.ndim == 0 else normal


def require_normal(fj):
    """Raise :class:`NotNormalError` at the first sample that is not normal."""
    i = first_failure(np.logical_not(is_normal(fj)))
    if i is not None:
        t = float(np.ravel(fj.base_time)[i])
        p1 = np.ravel(_p1_size(fj))[i]
        raise NotNormalError(f"frame is not normal at t={t!r}: |P_1| = {p1:.3e}")


def normalizing_jet(p1, y0=None):
    """Jet of the right factor ``Y`` making ``A Y`` normal.

    ``Y`` solves ``Y' = P_1 Y`` with ``Y(t0) = y0`` (identity by default);
    it is the inverse of the reduction frame change ``X`` that solves
    ``X' = -X P_1``.  Its series is that of ``(Y^T)' = Y^T P_1^T``,
    transposed back.
    """
    y0 = np.eye(p1.rows) if y0 is None else y0
    series = linear_taylor(np.swapaxes(y0, -1, -2), np.swapaxes(p1.coeffs, -1, -2))
    return MatrixJet(p1.base_time, np.swapaxes(series, -1, -2))


def normalized_frame_jet(fj, y0=None):
    """The normal frame jet through the same point: ``A Y`` with ``P_1 -> 0``.

    ``Y(t0) = y0``, the identity by default, or one matrix per sample of a
    batched ``fj``.  The output order is
    ``R - k + 1`` for an input of order R, the most the normalizing change
    is determined to.
    """
    return fj.right_multiplied(normalizing_jet(ode_coefficients(fj)[0], y0))


@dataclass(frozen=True, eq=False)
class NormalizationRecord:
    """Normalizing frame change integrated along a grid of N times.

    Every field but ``times`` is an array whose sample axis runs over the
    grid.  ``x``, of shape (N, n, n), solves ``X' = -X P_1`` with
    ``X(times[0]) = I``; ``lifts``, of shape (N, kn, kn), holds the normal
    lift ``(B | B' | ... | B^(k-1))`` of the normal frame ``B = A X^-1``
    (the inverse makes the order k-1 term vanish), and ``frames`` is its
    first block column B, of shape (N, kn, n); ``q``, of shape
    (k-1, N, n, n), holds the reduced-equation coefficients, ``q[j - 2][i]``
    being ``Q_j = P_j[B]`` at ``times[i]``; and ``p1_residuals``, of shape
    (N,), the achieved ``max |P_1[B]|``.
    """

    times: tuple
    x: np.ndarray
    lifts: np.ndarray
    q: np.ndarray
    p1_residuals: np.ndarray

    @property
    def frames(self):
        return self.lifts[..., : self.x.shape[-1]]


def checked_grid(grid):
    """The times of ``grid`` as a float array, which must be non-empty and strictly monotonic."""
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1:
        raise ValueError("time grid must be a sequence of times")
    if len(times) < 1:
        raise ValueError("empty time grid")
    steps = np.diff(times)
    if len(times) > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("time grid must be strictly monotonic")
    return times


def _p1_series(curve, knots):
    """Taylor coefficients of ``P_1`` about every knot, to order ``TAYLOR_ORDER - 1``.

    An ODE curve prescribes ``P_1``, expanded in full if its degree is higher; a polynomial curve's is solved from its
    frame jets there, which raises :class:`~fanning.curves.NotFanningError`
    at the first knot where the frame is not fanning.
    """
    if isinstance(curve, OdeFrameCurve):
        return curve.p[0].jet_at(knots, expansion_order(curve.p[0])).coeffs
    jets = curve.frame_jets(knots, TAYLOR_ORDER + curve.k - 1)
    return ode_coefficients(jets)[0].coeffs


def normalizer(curve, grid):
    """The normalizing change ``X`` at every grid time, shape (N, n, n).

    ``X`` solves ``X' = -X P_1`` with ``X = I`` at the first grid time, so
    ``A X^-1`` is the normal frame through ``A`` there.  The grid must be
    strictly monotonic; the caller checks that the frame is fanning at the
    grid times.  One :func:`~fanning.curves.solve_ivp` call propagates ``X``
    through the whole grid, and the frame must be fanning at every knot it
    places between grid times.
    """
    times = checked_grid(grid)
    return solve_ivp(lambda knots: -_p1_series(curve, knots), times, np.eye(curve.n)).y


def normal_frame(curve, grid):
    """The normal frame ``B = A X^-1`` along a time grid, with ``X`` from :func:`normalizer`.

    The grid must be strictly monotonic and the frame fanning at every
    grid time, which is checked before integrating; integration starts at
    the first grid point with ``X = I``.  Each returned sample carries the
    normal lift of ``B`` and the coefficients ``Q_j = P_j[B]``,
    all read from the curve's frame jets of order 2k-1, the lowest order
    that fixes the ``Q_j`` values.  The jets of the whole grid are one
    batch, so ``B`` and its coefficients take one pass.
    """
    k = curve.k
    times = checked_grid(grid)
    jets = curve.frame_jets(times, 2 * k - 1)
    jets.require_fanning()
    xs = normalizer(curve, times)

    bjet = normalized_frame_jet(jets, y0=np.linalg.inv(xs))
    pb = ode_coefficients(bjet)
    return NormalizationRecord(
        times=tuple(times.tolist()),
        x=xs,
        lifts=bjet.juxtaposed.value(),
        q=np.stack([pb[j].value() for j in range(1, k)]),
        p1_residuals=_p1_size(bjet),
    )


# -- endomorphism family ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class EndomorphismBundle:
    """Pointwise endomorphism data of a fanning frame, in ambient coordinates.

    ``reflection`` is the derivative of the fundamental endomorphism F
    scaled to an involution; ``jacobi`` the square of the derivative of the
    projection ``(I - reflection) / 2``; ``horizontal`` spans the horizontal
    curve.  Every entry has the frame jet's batch shape; for a batched jet
    ``horizontal_residual`` is an array over it (a float for one time).
    """

    reflection: np.ndarray
    jacobi: np.ndarray
    horizontal: MatrixJet
    horizontal_residual: float


def endomorphism_bundle(fj):
    """All pointwise endomorphism data, built from F (:attr:`FrameJet.fundamental_endomorphism`).

    ``H = A^(k-1) - (1/k) F A^(k)`` is built through F and as the last
    block column of ``J G`` (:func:`_frame_basis`); the two routes must agree.
    """
    k, n = fj.k, fj.n
    require_order(fj.order, k + 1, "the endomorphism bundle")
    f = fj.fundamental_endomorphism
    reflection = (2.0 * f.derivative_value(1) - (k - 2) * np.eye(k * n)) / k
    pdot = -f.derivative_value(2) / k
    jacobi = pdot @ pdot

    h = fj.derivative_jet(k - 1) - (1.0 / k) * jet_mul(f, fj.derivative_jet(k))
    column = _frame_basis(fj, fj.order - k + 1)[1][..., -n:]
    column[..., 0, -n:, :] += np.eye(n)
    h_alt = jet_mul(fj.juxtaposed, MatrixJet(fj.base_time, column))
    every = (-3, -2, -1)
    scale = 1.0 + np.max(np.abs(h.coeffs), axis=every)
    residual = np.max(np.abs(h.coeffs - h_alt.coeffs), axis=every)
    i = first_failure(residual > CONSISTENCY_RTOL * scale)
    if i is not None:
        raise InternalConsistencyError(
            f"horizontal-derivative routes disagree: residual {np.ravel(residual)[i]:.3e}"
        )
    return EndomorphismBundle(
        reflection=reflection,
        jacobi=jacobi,
        horizontal=h,
        horizontal_residual=residual,
    )


def _frame_basis(fj, count):
    """The first ``count`` coefficients of C and ``G - I``: ``J' = J C``, ``J G = (A | ... | H)``.

    G is the identity but for its last block column ``e_(k-1) - N c_k / k``,
    ``c_k`` being that of C, so ``(G - I)^2 = 0`` and ``G^-1 = I - (G - I)``.
    """
    c = companion_stack([p.coeffs[..., :count, :, :] for p in ode_coefficients(fj)])
    g = np.zeros_like(c)
    g[..., -fj.n :] = nilpotent_matrix(fj.k, fj.n) @ c[..., -fj.n :] / -fj.k
    return c, g


def frame_reflection(fj):
    """The reflection ``(2 F' - (k-2) I) / k`` in the basis J: ``(2 [C, N] - (k-2) I) / k``."""
    k, nil = fj.k, nilpotent_matrix(fj.k, fj.n)
    c = _frame_basis(fj, 2)[0][..., 0, :, :]
    return (2.0 * (c @ nil - nil @ c) - (k - 2) * np.eye(k * fj.n)) / k


def _jacobi_direct(fj):
    """The Jacobi endomorphism ``K = (P')^2`` in the basis ``J G``: ``G^-1 (J^-1 P' J)^2 G``.

    ``P' = -F'' / k``, and ``J^-1 F'' J = [C, [C, N]] + [C', N]``.
    """
    c, g = _frame_basis(fj, 2)
    nil, eye = nilpotent_matrix(fj.k, fj.n), np.eye(fj.k * fj.n)
    c0, c1, g0 = c[..., 0, :, :], c[..., 1, :, :], g[..., 0, :, :]
    cn = c0 @ nil - nil @ c0
    pdot = -(c0 @ cn - cn @ c0 + c1 @ nil - nil @ c1) / fj.k
    return (eye - g0) @ (pdot @ pdot) @ (eye + g0)


def orbit_entries(fj):
    """The stack ``C(k-1, j) (h_(j-1) - h_(j-2)')``, j = 1 .. k-1, of a normal frame jet.

    Entry j - 1 is an n x n value at the base time, batched like ``fj``;
    the first is ``(k-1) kappa`` (no derivative term) and the last
    ``h_(k-2) - h_(k-3)'``.  They are the orbit coordinates of a standard
    jet and, bottom entry first, the nonzero column of the Jacobi matrix.
    """
    # With P_1 = 0 the invariants kappa, h_1 .. h_(k-2) are P_2 .. P_k.
    p = ode_coefficients(fj)
    entries = [(fj.k - 1) * p[1].value()]
    for j in range(2, fj.k):
        entry = p[j].value() - p[j - 1].derivative_value(1)
        entries.append(math.comb(fj.k - 1, j) * entry)
    return tuple(entries)


def jacobi_matrix(fj):
    """Moving-frame matrix of the Jacobi endomorphism.

    For a normal frame of order >= k+1, the Jacobi endomorphism written in
    the basis ``(A | ... | A^(k-2) | H)`` has a single nonzero column pair:
    the penultimate column stacks ``C(k-1, j) (h_(j-1) - h_(j-2)')`` from
    the bottom entry ``(k-1) kappa`` upward, and the corner block repeats
    ``(k-1) kappa``.  The analytic pattern is cross-checked against the
    direct change of basis, read from the companion matrix.
    """
    k, n = fj.k, fj.n
    batch = fj.jet.batch
    require_normal(fj)
    require_order(fj.order, k + 1, "the Jacobi matrix")

    entries = orbit_entries(fj)
    # Entry j sits in block row k - j, counted from 1; block row k is zero.
    column = np.concatenate(entries[::-1] + (np.zeros_like(entries[0]),), axis=-2)
    pattern = np.zeros(batch + (k * n, k * n))
    pattern[..., :, (k - 2) * n : (k - 1) * n] = column
    pattern[..., (k - 1) * n :, (k - 1) * n :] = entries[0]

    direct = _jacobi_direct(fj)
    scale = 1.0 + np.max(np.abs(direct), axis=(-2, -1))
    residual = np.max(np.abs(direct - pattern), axis=(-2, -1))
    i = first_failure(residual > CONSISTENCY_RTOL * scale)
    if i is not None:
        raise InternalConsistencyError(
            "Jacobi pattern and change of basis disagree: "
            f"residual {np.ravel(residual)[i]:.3e}"
        )
    return pattern


def maurer_cartan_pullback(fj, lift):
    """Pullback ``L^-1 L'`` at the base time for one of the two frame lifts.

    ``lift="H"`` uses ``L = (A | ... | A^(k-2) | H) = J G``, whose
    pullback is ``G^-1 (C G + G')``; ``lift="kderiv"`` uses the plain
    juxtaposed lift ``J = (A | ... | A^(k-1))``, whose pullback is the
    companion matrix C.  The frame must be normal.
    """
    if lift not in ("H", "kderiv"):
        raise ValueError(f"unknown lift {lift!r}")
    require_normal(fj)
    require_order(fj.order, fj.k + 1, "the Maurer-Cartan pullback")
    c, g = _frame_basis(fj, 2)
    if lift == "kderiv":
        return c[..., 0, :, :]
    eye, g0 = np.eye(fj.k * fj.n), g[..., 0, :, :]
    return (eye - g0) @ (c[..., 0, :, :] @ (eye + g0) + g[..., 1, :, :])
