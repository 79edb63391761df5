"""Curve backends and their jets.

Two curve representations are supported: polynomial frame curves, whose
jets at any base time are exact Taylor shifts, and ODE-defined frame
curves.  An ODE curve's juxtaposed state ``Y`` solves ``Y' = Y C(t)`` with
the block companion matrix ``C(t)``; :func:`solve_ivp` propagates it, and
its jet at a time is the first block column of the companion series there
(:func:`~fanning.jets.linear_taylor`).  Both kinds offer ``frame_jet`` at
one time and ``frame_jets`` at many.  ``frame_jets`` returns one
:class:`FrameJet` whose jet carries a leading sample axis over the times
(see :mod:`fanning.jets`): a polynomial curve Taylor-shifts to every time
in one contraction, and an ODE curve is propagated once outward from t=0
on each side, through the requested times, then expands all states in one
series.

:func:`solve_ivp` is the package's one integrator, serving the ODE backend
and the normalizing change of :mod:`fanning.invariants`: a batched Taylor
propagator for ``Y' = Y C(t)`` that expands ``C`` at all its knots at once,
bisects the intervals longer than the estimated radius of convergence over
``STEP_SAFETY``, multiplies the intervals' propagators, and reads a time
between knots from the series of the knot before it.  It needs nothing
beyond numpy.

A frame curve takes values in the kn x n matrices; its value at ``t``
spans an n-plane of R^(kn).  The curve is *fanning* at ``t`` when the
juxtaposed kn x kn matrix ``(A | A' | ... | A^(k-1))`` is invertible
there.  A :class:`FrameJet` caches what is computed once per jet: the
juxtaposed lift, the inverse of its value, the equation coefficients
``P_j`` and the fundamental endomorphism.  Each of them broadcasts over
the batch, so one function serves one time and a whole grid; the fanning
condition and every consistency check test each sample and report the
first that fails, in the caller's order.

:meth:`FrameJet.require_fanning` is the package's one conditioning gate:
the juxtaposed value must have a condition number below
``DEFAULT_CONDITION_LIMIT``.  The jet solves for ``P_j`` and F run it
first and share its inverse of that value, so everything built on them is
behind it; :func:`~fanning.jets.jet_solve` checks no conditioning.

:func:`require_order` is the package's one order gate: every computation
that reads jets to a fixed order (``P_j`` frame order k, the endomorphism
bundle k+1, the full invariant set 2k-1) calls it, and it alone raises
:class:`InsufficientOrderError`.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .jets import MatrixJet, coefficient_stack, horner, jet_solve, linear_taylor

# A frame is fanning where its juxtaposed value's condition number is below this.
DEFAULT_CONDITION_LIMIT = 1e8
# The most times a grid of the command line may hold.
MAX_GRID_POINTS = 100_000
# The Taylor propagator of :func:`solve_ivp`: the order of its series, the
# factor by which a step stays inside the estimated radius of convergence
# (Jorba & Zou 2005), the most requested times its first round expands, the
# bisection rounds allowed, and the knots one call may hold: the step rule,
# not the grid, sets their count, and the budget stops a runaway bisection.
TAYLOR_ORDER = 12
STEP_SAFETY = math.e**2
FIRST_KNOTS = 16
MAX_ROUNDS = 40
MAX_KNOTS = MAX_GRID_POINTS + 1


class NotFanningError(RuntimeError):
    """The juxtaposed derivative matrix of ``frame`` (a name) is singular or too ill-conditioned."""

    def __init__(self, condition, at_time, frame):
        super().__init__(f"{frame} is not fanning at t={at_time!r}: condition {condition:.3e}")
        self.condition = condition
        self.at_time = at_time


class InsufficientOrderError(ValueError):
    """A jet of higher order is required for the requested computation."""


def require_order(order, minimum, what):
    """The one order gate: ``what`` needs jet order ``minimum``, and ``order`` is held."""
    if order < minimum:
        raise InsufficientOrderError(f"{what} needs jet order >= {minimum}, have {order}")


class IntegrationError(RuntimeError):
    """The propagator could not reach the last requested time within its budget."""


@dataclass(frozen=True, eq=False)
class Propagation:
    """States of ``Y' = Y C`` at the requested times, and the work spent on them.

    ``y`` has shape ``(N, rows, cols)``, one state per requested time;
    ``nfev`` counts the expansions of ``C``, one per knot, over all rounds.
    """

    y: np.ndarray
    nfev: int


def _radius(coeffs):
    """Radius of convergence estimated from the last two coefficients, per sample.

    ``(1 / |c_j|)^(1/j)`` for the two highest orders ``j`` of ``coeffs``
    (largest entry as the norm), the smaller of the two; a zero coefficient
    bounds nothing.
    """
    top = coeffs.shape[-3] - 1
    orders = np.array([top - 1, top])
    norms = np.max(np.abs(coeffs[..., orders, :, :]), axis=(-2, -1))
    with np.errstate(divide="ignore"):
        return np.min(norms ** (-1.0 / orders), axis=-1)


def solve_ivp(expand, times, y0):
    """States of ``Y' = Y C(t)`` with ``Y(times[0]) = y0`` at every time of ``times``.

    ``times`` is strictly monotonic; ``expand(knots)`` returns the Taylor
    coefficients ``c_0 .. c_r`` of ``C`` about every knot, of shape
    ``(len(knots), r + 1, cols, cols)``, with ``r`` at least
    ``TAYLOR_ORDER - 1`` and, for a polynomial ``C``, at least its degree, so
    that no term of ``C`` escapes the radius estimates.  The knots start as
    the times, or past ``FIRST_KNOTS + 1`` times as ``FIRST_KNOTS + 1`` of
    them spread evenly by index, the first and the last among them.  Each
    round expands ``C`` at the knots not yet expanded, in one call, and
    builds each knot's propagator series ``linear_taylor(I, c)``, of order
    ``r + 1``, in one batched call.  A knot's radius is the smaller of the
    radii estimated from its propagator series and from ``C``'s own series,
    which sees a pole of ``C`` where the solution stays analytic.  An
    interval longer than ``radius / STEP_SAFETY`` is bisected, and the round
    repeats.  Each interval's propagator is then its series summed at its
    length, and the states at the knots are their running product from
    ``y0``.  Any other time lies in an interval the step rule accepted, so
    its truncation error has a step's bound; its state is ``Y(knot) @
    series(t - knot)`` from the last knot at or before it, in one batch.

    Raises :class:`IntegrationError`, naming the time reached and the knot
    count, when a round would hold more than ``MAX_KNOTS`` knots, or when
    intervals are still too long after ``MAX_ROUNDS`` rounds; naming the
    knot, as soon as a knot's propagator series is not finite (``C`` too
    large there); and, naming the first knot or requested time where it
    overflows, when a state is not finite.
    """
    knots = np.array(times, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    eye = np.eye(y0.shape[-1])
    count, picked = len(knots), None
    if count > FIRST_KNOTS + 1:
        picked = np.arange(FIRST_KNOTS + 1) * (count - 1) // FIRST_KNOTS
        times, knots = knots, knots[picked]
    on_grid = np.ones(len(knots), dtype=bool)
    # The first round expands every left knot; the stacks take their shapes from it.
    fresh, at = knots[:-1], np.zeros(len(knots) - 1, dtype=int)
    series = radius = None
    reached, nfev = knots[0], 0
    for _ in range(MAX_ROUNDS):
        if len(knots) > MAX_KNOTS:
            raise IntegrationError(
                f"integration stopped at t={float(reached)!r}: "
                f"{len(knots)} knots exceed the budget of {MAX_KNOTS}"
            )
        c = expand(fresh)
        nfev += len(fresh)
        # A knot's series depends only on C there, so no bisection repairs an overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            fresh_series = linear_taylor(eye, c)
        i = first_failure(~np.isfinite(fresh_series).all(axis=(-3, -2, -1)))
        if i is not None:
            raise IntegrationError(
                f"integration stopped at t={float(fresh[i])!r}: "
                "the propagator series at this knot is not finite"
            )
        fresh_radius = np.minimum(_radius(fresh_series), _radius(c))
        if series is None:
            series, radius = fresh_series, fresh_radius
        else:
            series = np.insert(series, at, fresh_series, axis=0)
            radius = np.insert(radius, at, fresh_radius)
        steps = np.diff(knots)
        # A radius that is not a number (an overflowed series) counts as too short.
        long = np.flatnonzero(~(np.abs(steps) <= radius / STEP_SAFETY))
        if len(long) == 0:
            break
        reached = knots[long[0]]
        fresh, at = knots[long] + steps[long] / 2, long + 1
        knots = np.insert(knots, at, fresh)
        on_grid = np.insert(on_grid, at, False)
    else:
        raise IntegrationError(
            f"integration stopped at t={float(reached)!r}: steps still too long "
            f"after {MAX_ROUNDS} rounds ({len(knots)} knots)"
        )
    propagators = horner(series, np.diff(knots))
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.array(list(itertools.accumulate(propagators, np.matmul, initial=y0)))
    if picked is None:
        i = first_failure(~np.isfinite(states).all(axis=(-2, -1)))
        if i is not None:
            raise _state_not_finite(knots[i])
        return Propagation(y=states[on_grid], nfev=nfev)
    is_knot = np.zeros(count, dtype=bool)
    is_knot[picked] = True
    rest = times[~is_knot]
    # Knot j is the last at or before each time, in the direction of integration.
    direction = np.sign(knots[-1] - knots[0])
    j = np.searchsorted(direction * knots, direction * rest, side="right") - 1
    with np.errstate(over="ignore", invalid="ignore"):
        dense = states[j] @ horner(series[j], rest - knots[j])
    failed = np.append(
        knots[~np.isfinite(states).all(axis=(-2, -1))],
        rest[~np.isfinite(dense).all(axis=(-2, -1))],
    )
    if len(failed):
        # The first time whose state is not finite, knot or not, is where integration stopped.
        raise _state_not_finite(failed[np.argmin(direction * failed)])
    y = np.empty((count,) + states.shape[1:])
    y[is_knot], y[~is_knot] = states[on_grid], dense
    return Propagation(y=y, nfev=nfev)


def _state_not_finite(t):
    return IntegrationError(f"integration stopped at t={float(t)!r}: the state is not finite")


class CurveFormatError(ValueError):
    """Malformed curve description (JSON schema violation)."""


def first_failure(failed):
    """Flat index of the first sample at which the boolean ``failed`` holds, or None.

    Samples are numbered in the caller's order, so this is the first failing
    grid time.
    """
    hits = np.flatnonzero(failed)
    return int(hits[0]) if hits.size else None


def _require_finite(coefficients, what):
    """Reject a coefficient stack with NaN or infinite entries (checked once at construction)."""
    if not np.isfinite(coefficients).all():
        i = first_failure(~np.isfinite(coefficients).all(axis=(-2, -1)))
        raise CurveFormatError(f"{what} coefficient {i} is not finite")


def taylor_coefficients(coefficients, times, order):
    """Coefficients ``0 .. order`` of ``sum_i C_i t^i`` (the stack ``coefficients``) about ``times``.

    Coefficient ``j`` is ``sum_i C(i, j) t^(i-j) C_i``, for every time at
    once: the shape of ``times`` leads the result.  Raises ``LinAlgError``
    naming the first time whose shift overflows.
    """
    times = np.asarray(times, dtype=float)
    count = len(coefficients)
    binomials = _binomials(order + 1, count)
    powers = np.maximum(np.arange(count) - np.arange(order + 1)[:, None], 0)
    flat = coefficients.reshape(count, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = binomials * np.power(times[..., None, None], powers)
        coeffs = (shift @ flat).reshape(shift.shape[:-1] + coefficients.shape[1:])
    finite = np.isfinite(coeffs).all(axis=(-3, -2, -1))
    if not finite.all():
        t = float(times[~finite][0])
        raise np.linalg.LinAlgError(f"Taylor shift to t={t!r} overflowed")
    return coeffs


def expansion_order(coefficients):
    """Order to which :func:`solve_ivp` expands a polynomial: its degree, at least ``TAYLOR_ORDER - 1``."""
    return max(TAYLOR_ORDER - 1, len(coefficients) - 1)


@cache
def _binomials(rows, cols):
    """Read-only ``rows x cols`` table of ``C(i, j)`` at row ``j``, column ``i``."""
    table = np.array([[math.comb(i, j) for i in range(cols)] for j in range(rows)], dtype=float)
    table.setflags(write=False)
    return table


def nilpotent_matrix(k, n):
    """Block nilpotent with superdiagonal blocks ``1 I, 2 I, ..., (k-1) I``."""
    m = np.zeros((k * n, k * n))
    for j in range(k - 1):
        m[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = (j + 1) * np.eye(n)
    return m


def companion_stack(p):
    """Coefficients ``(*batch, max m_i, kn, kn)`` of the companion matrix C of ``P_1 .. P_k``.

    ``p`` holds the stacks ``(*batch, m_i, n, n)`` of the ``P_i``.  C has
    identity blocks just below its block diagonal at order 0 and
    ``-C(k, i) P_i`` in block row ``k - i`` of its last block column, so the
    juxtaposed lift ``J = (A | ... | A^(k-1))`` of such a frame solves ``J' = J C``.
    """
    k, n = len(p), p[0].shape[-1]
    count = max(c.shape[-3] for c in p)
    stack = np.zeros(p[0].shape[:-3] + (count, k * n, k * n))
    stack[..., 0, n:, : (k - 1) * n] = np.eye((k - 1) * n)
    for i, c in enumerate(p, start=1):
        stack[..., : c.shape[-3], (k - i) * n : (k - i + 1) * n, -n:] = -math.comb(k, i) * c
    return stack


def _derivative_blocks(coeffs, orders, count):
    """Taylor coefficients ``0 .. count-1`` of ``A^(j)``, j in ``orders``, side by side.

    ``coeffs`` is the coefficient stack of ``A``, batched or not; block ``j``
    of coefficient ``m`` is ``perm(m + j, j) * c_(m+j)``, and zero past the
    last of ``coeffs``.
    """
    rows, cols = coeffs.shape[-2:]
    blocks = np.zeros(coeffs.shape[:-3] + (count, rows, len(orders) * cols))
    for b, j in enumerate(orders):
        filled = min(count, coeffs.shape[-3] - j)
        if filled > 0:
            scale = np.array([math.perm(m + j, j) for m in range(filled)], dtype=float)
            blocks[..., :filled, :, b * cols : (b + 1) * cols] = (
                scale[:, None, None] * coeffs[..., j : j + filled, :, :]
            )
    return blocks


class FrameJet:
    """Jet of a frame curve at one time or at a batch of times, with its cached juxtaposed lift.

    ``jet`` is a kn x n :class:`MatrixJet` of order at least k-1, batched
    or not; every property below has the jet's batch shape.  The
    juxtaposed jet stacks the jets of A, A', ..., A^(k-1) as block
    columns; the frame is fanning when its value at the base time is
    invertible within the conditioning threshold.
    """

    def __init__(self, jet):
        rows, cols = jet.shape
        if cols < 1 or rows % cols != 0:
            raise CurveFormatError(
                f"frame shape {jet.shape} is not kn x n for integer k"
            )
        self.n = cols
        self.k = rows // cols
        if self.k < 2:
            raise CurveFormatError("frames need k >= 2 (ambient dimension kn > n)")
        require_order(jet.order, self.k - 1, f"a frame jet with k={self.k}")
        self.jet = jet
        self._fanning = False
        # The stacked P_1 .. P_k of a frame whose equation is given (OdeFrameCurve.equation).
        self._equation = None

    @property
    def order(self):
        return self.jet.order

    @property
    def base_time(self):
        return self.jet.base_time

    @cached_property
    def juxtaposed(self):
        """kn x kn jet of ``(A | A' | ... | A^(k-1))``."""
        count = self.jet.order - self.k + 2
        blocks = _derivative_blocks(self.jet.coeffs, range(self.k), count)
        return MatrixJet(self.base_time, blocks)

    @cached_property
    def condition(self):
        """Condition number of the juxtaposed value: a float, or an array over the batch."""
        condition = np.linalg.cond(self.juxtaposed.value())
        return float(condition) if condition.ndim == 0 else condition

    @property
    def is_fanning(self):
        return self.condition < DEFAULT_CONDITION_LIMIT

    @cached_property
    def _value_inverse(self):
        """The juxtaposed value's inverse, NaN where ``inv`` fails (an exactly singular sample)."""
        value = self.juxtaposed.value()
        try:
            return np.linalg.inv(value)
        except np.linalg.LinAlgError:
            return np.full(value.shape, np.nan)

    def require_fanning(self):
        """Raise :class:`NotFanningError` at the first sample that is not fanning.

        ``||J0||_F ||J0^-1||_F`` bounds the condition of the juxtaposed value
        ``J0`` from above: below half the limit everywhere, the batch passes.
        Otherwise, or once it is known, the condition decides.  A batch that
        passed once is not tested again.
        """
        if self._fanning:
            return
        if "condition" not in self.__dict__:
            value, inv = self.juxtaposed.value(), self._value_inverse
            with np.errstate(over="ignore", invalid="ignore"):
                bound = np.linalg.norm(value, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
            if np.all(bound < DEFAULT_CONDITION_LIMIT / 2):
                self._fanning = True
                return
        condition = np.ravel(self.condition)
        i = first_failure(~(condition < DEFAULT_CONDITION_LIMIT))
        if i is not None:
            at_time = float(np.ravel(self.base_time)[i])
            raise NotFanningError(float(condition[i]), at_time, "frame")
        self._fanning = True

    @cached_property
    def equation_coefficients(self):
        """Coefficients ``P_1 .. P_k`` of the frame's order-k equation, as jets.

        Behind the fanning gate, once per frame jet: a given equation is
        shifted to the base time, else ``(A | A' | ... | A^(k-1)) S = -A^(k)``
        is solved, block ``k - i`` of ``S`` being ``C(k, i) P_i``.  A frame
        jet of order R gives them to order R - k.
        """
        k, n = self.k, self.n
        require_order(self.order, k, "the equation coefficients")
        self.require_fanning()
        if self._equation is not None:
            p = taylor_coefficients(self._equation, self.base_time, self.order - k)
            p = [p[..., i * n : (i + 1) * n, :] for i in range(k)]
        else:
            dk = _derivative_blocks(self.jet.coeffs, (k,), self.order - k + 1)
            s = jet_solve(self.juxtaposed.coeffs, -dk, self._value_inverse)
            s = s.reshape(s.shape[:-2] + (k, n, n))
            p = [(1.0 / math.comb(k, i)) * s[..., k - i, :, :] for i in range(1, k + 1)]
        return tuple(MatrixJet(self.base_time, c) for c in p)

    @cached_property
    def fundamental_endomorphism(self):
        """The equivariant endomorphism with ``F A^(i) = i A^(i-1)``, as a jet.

        Built once per frame jet by solving ``F J = J N`` on transposes, with
        ``J`` the juxtaposed lift and ``N`` the canonical nilpotent; a frame
        jet of order R gives it to order R - k + 1.
        """
        self.require_fanning()
        lift = self.juxtaposed.coeffs
        a, b = (np.swapaxes(c, -1, -2) for c in (lift, lift @ nilpotent_matrix(self.k, self.n)))
        transposed = jet_solve(a, b, np.swapaxes(self._value_inverse, -1, -2))
        return MatrixJet(self.base_time, np.swapaxes(transposed, -1, -2))

    def head(self, count):
        """The frame jet of the first ``count`` samples of a batch, with the same equation."""
        head = FrameJet(MatrixJet(self.base_time[:count], self.jet.coeffs[:count]))
        head._equation = self._equation
        return head

    def left_multiplied(self, t_matrix):
        """Frame jet of ``T A`` for a constant ambient matrix ``T``."""
        t_matrix = np.asarray(t_matrix, dtype=float)
        return FrameJet(MatrixJet(self.base_time, t_matrix @ self.jet.coeffs))

    def extended_with_zeros(self, order):
        """Pad with zero coefficients; used to fix a jet extension explicitly."""
        if order <= self.jet.order:
            return self
        zeros = np.zeros(self.jet.batch + (order - self.jet.order,) + self.jet.shape)
        coeffs = np.concatenate((self.jet.coeffs, zeros), axis=-3)
        return FrameJet(MatrixJet(self.base_time, coeffs))

    def __repr__(self):
        return (
            f"FrameJet(k={self.k}, n={self.n}, order={self.order}, "
            f"base_time={self.base_time})"
        )


@dataclass(frozen=True, eq=False)
class PolynomialFrameCurve:
    """Frame curve ``A(t) = sum_i M_i t^i`` with kn x n coefficients."""

    k: int
    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.k < 2 or self.n < 1:
            raise CurveFormatError(f"need k >= 2 and n >= 1, got k={self.k}, n={self.n}")
        stack = coefficient_stack(self.coefficients, CurveFormatError, ())
        shape = (self.k * self.n, self.n)
        if stack.shape[1:] != shape:
            raise CurveFormatError(
                f"frame coefficients have shape {stack.shape[1:]}, expected {shape}"
            )
        _require_finite(stack, "frame")
        object.__setattr__(self, "coefficients", stack)

    def frame_jet(self, t, order):
        """Exact jet of the frame at base time ``t``."""
        return self.frame_jets(float(t), order)

    def frame_jets(self, times, order):
        """Exact frame jets at many times, batched over ``times`` in the caller's order."""
        require_order(order, self.k - 1, f"frame jets with k={self.k}")
        return FrameJet(MatrixJet(times, taylor_coefficients(self.coefficients, times, order)))

    def transformed(self, t_matrix):
        """The curve ``T A(t)`` for a constant kn x kn matrix ``T``."""
        t_matrix = np.asarray(t_matrix, dtype=float)
        return PolynomialFrameCurve(self.k, self.n, t_matrix @ self.coefficients)


@dataclass(frozen=True, eq=False)
class OdeFrameCurve:
    """Frame curve defined by its order-k linear equation.

    The frame satisfies ``A^(k) + sum_(i=1..k) C(k,i) A^(k-i) P_i = 0``
    with prescribed n x n polynomial coefficient curves ``P_1 .. P_k``
    and initial juxtaposed matrix ``(A | A' | ... | A^(k-1))(0)``.  ``p``
    holds each ``P_i`` as one read-only array of shape ``(degree_i + 1, n, n)``.
    """

    k: int
    n: int
    p: tuple
    initial_juxtaposed: np.ndarray

    def __post_init__(self):
        if self.k < 2 or self.n < 1:
            raise CurveFormatError(f"need k >= 2 and n >= 1, got k={self.k}, n={self.n}")
        if len(self.p) != self.k:
            raise CurveFormatError(f"expected {self.k} coefficient curves, got {len(self.p)}")
        ps = []
        for i, poly in enumerate(self.p):
            stack = coefficient_stack(poly, CurveFormatError, ())
            if stack.shape[1:] != (self.n, self.n):
                raise CurveFormatError(
                    f"P_{i + 1} has shape {stack.shape[1:]}, expected {(self.n, self.n)}"
                )
            _require_finite(stack, f"P_{i + 1}")
            ps.append(stack)
        object.__setattr__(self, "p", tuple(ps))
        a0 = np.array(self.initial_juxtaposed, dtype=float)
        kn = self.k * self.n
        if a0.shape != (kn, kn):
            raise CurveFormatError(
                f"initial juxtaposed matrix has shape {a0.shape}, expected {(kn, kn)}"
            )
        if not np.all(np.isfinite(a0)):
            raise CurveFormatError("initial juxtaposed matrix is not finite")
        condition = np.linalg.cond(a0)
        if not condition < DEFAULT_CONDITION_LIMIT:
            raise NotFanningError(condition, 0.0, "frame")
        a0.setflags(write=False)
        object.__setattr__(self, "initial_juxtaposed", a0)

    @cached_property
    def companion(self):
        """The block companion matrix ``C(t)`` of :func:`companion_stack`, read-only: ``Y' = Y C``."""
        stack = companion_stack(self.p)
        stack.setflags(write=False)
        return stack

    @cached_property
    def equation(self):
        """``P_1 .. P_k`` as the n x n blocks, top down, of one ``(degree + 1, kn, n)`` stack."""
        n, count = self.n, max(len(poly) for poly in self.p)
        stack = np.zeros((count, self.k * n, n))
        for i, poly in enumerate(self.p):
            stack[: len(poly), i * n : (i + 1) * n] = poly
        stack.setflags(write=False)
        return stack

    def frame_jet(self, t, order):
        """Integrate the frame state from t=0 to ``t`` and build its jet there."""
        return self.frame_jets(float(t), order)

    def frame_jets(self, times, order):
        """Frame jets at many times from one propagation per side of t=0.

        Positive times are reached in ascending and negative times in
        descending order, each side by one :func:`solve_ivp` call from the
        initial state at t=0 through the side's distinct times, with the
        companion matrix expanded at every knot.  The states are then
        expanded at all times in one series, batched over ``times`` in the
        caller's order; a repeated time repeats its state.  The jets carry
        :attr:`equation`, whose shift gives their ``P_j``.
        """
        k, kn = self.k, self.k * self.n
        require_order(order, k - 1, f"frame jets with k={k}")
        times = np.array(times, dtype=float)
        flat = times.ravel().tolist()
        for t in flat:
            if not math.isfinite(t):
                raise ValueError(f"frame jet times must be finite, got {t!r}")
        states = {0.0: self.initial_juxtaposed}
        companion, expansion = self.companion, expansion_order(self.companion)
        positive = sorted({t for t in flat if t > 0.0})
        negative = sorted({t for t in flat if t < 0.0}, reverse=True)
        for side in (positive, negative):
            if side:
                sol = solve_ivp(
                    lambda knots: taylor_coefficients(companion, knots, expansion),
                    [0.0] + side,
                    self.initial_juxtaposed,
                )
                states.update(zip(side, sol.y[1:]))
        stack = np.array([states[t] for t in flat]).reshape(times.shape + (kn, kn))
        return _jet_from_state(self, times, stack, order)


def _jet_from_state(curve, t, state, order):
    """Frame jet at ``t`` from the juxtaposed state there (both batched alike, or not).

    The state's Taylor series comes from ``Y' = Y C`` with the companion
    matrix expanded about ``t``; the frame is its first block column, and
    its equation the curve's.
    """
    companion = taylor_coefficients(curve.companion, t, order - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        series = linear_taylor(state, companion)
    i = first_failure(~np.isfinite(series).all(axis=(-3, -2, -1)))
    if i is not None:
        at_time = float(np.ravel(t)[i])
        raise np.linalg.LinAlgError(f"the frame's series at t={at_time!r} overflowed")
    fj = FrameJet(MatrixJet(t, series[..., : curve.n]))
    fj._equation = curve.equation
    return fj


def standard_curve(k, n):
    """The monomial curve ``A(t) = sum_j E_j t^j`` over the identity blocks."""
    coeffs = np.zeros((k, k * n, n))
    for j in range(k):
        coeffs[j, j * n : (j + 1) * n] = np.eye(n)
    return PolynomialFrameCurve(k, n, coeffs)


# -- JSON curve format ----------------------------------------------------


def curve_from_dict(data):
    """Build a curve from the JSON description consumed by the CLI."""
    if not isinstance(data, dict):
        raise CurveFormatError("curve description must be a JSON object")
    try:
        kind, k, n = data["kind"], data["k"], data["n"]
    except KeyError as exc:
        raise CurveFormatError(f"missing curve header field {exc}") from exc
    for name, value in (("k", k), ("n", n)):
        # bool is an int subclass; JSON true must not read as 1
        if type(value) is not int:
            raise CurveFormatError(f"{name} must be a JSON integer, got {value!r}")
    if kind == "polynomial":
        if "coefficients" not in data:
            raise CurveFormatError("polynomial curve needs 'coefficients'")
        return PolynomialFrameCurve(k, n, data["coefficients"])
    if kind == "ode":
        if "P" not in data or "A0" not in data:
            raise CurveFormatError("ode curve needs 'P' and 'A0'")
        if not isinstance(data["P"], list):
            raise CurveFormatError(f"P must be a list of coefficient curves, got {data['P']!r}")
        ps = []
        for i, entry in enumerate(data["P"]):
            try:
                ps.append(coefficient_stack(entry["coefficients"], CurveFormatError, ()))
            except (TypeError, KeyError) as exc:
                raise CurveFormatError(f"P entry {i} lacks 'coefficients'") from exc
            except CurveFormatError as exc:
                raise CurveFormatError(f"P entry {i}: {exc}") from exc
        try:
            a0 = np.array(data["A0"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise CurveFormatError(f"A0 must be a matrix of numbers: {exc}") from exc
        return OdeFrameCurve(k, n, tuple(ps), a0)
    raise CurveFormatError(f"unknown curve kind {kind!r}")


def curve_to_dict(curve):
    if isinstance(curve, PolynomialFrameCurve):
        return {
            "kind": "polynomial",
            "k": curve.k,
            "n": curve.n,
            "coefficients": curve.coefficients.tolist(),
        }
    if isinstance(curve, OdeFrameCurve):
        return {
            "kind": "ode",
            "k": curve.k,
            "n": curve.n,
            "P": [
                {"degree": len(poly) - 1, "coefficients": poly.tolist()}
                for poly in curve.p
            ],
            "A0": curve.initial_juxtaposed.tolist(),
        }
    raise CurveFormatError(f"cannot serialize {type(curve).__name__}")


def load_curve(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CurveFormatError(f"cannot read curve file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CurveFormatError(f"invalid JSON in {path}: {exc}") from exc
    return curve_from_dict(data)
