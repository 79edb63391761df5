"""Curve backends and their jets.

Two curve representations are supported: polynomial frame curves, whose
jets at any base time are exact Taylor shifts, and ODE-defined frame
curves.  An ODE curve's juxtaposed state ``Y`` solves ``Y' = Y C(t)`` with
the block companion matrix ``C(t)``; an adaptive Runge-Kutta 5(4)
integrator advances it, and derivatives of order k and above come from
differentiating the defining equation.  Both kinds offer ``frame_jet`` at
one time and ``frame_jets`` at many; for an ODE curve the latter sweeps
once outward from t=0 through the sorted times instead of integrating
from t=0 for each of them.

A frame curve takes values in the kn x n matrices; its value at ``t``
spans an n-plane of R^(kn).  The curve is *fanning* at ``t`` when the
juxtaposed kn x kn matrix ``(A | A' | ... | A^(k-1))`` is invertible
there.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .jets import DEFAULT_CONDITION_LIMIT, MatrixJet, coefficient_stack, horner, jet_mul

# Integration tolerances of the ODE backend and of the normalizing change,
# two orders tighter than the downstream invariant tolerances.
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12


class NotFanningError(RuntimeError):
    """The juxtaposed derivative matrix is singular or too ill-conditioned."""

    def __init__(self, condition, at_time=None):
        where = "" if at_time is None else f" at t={at_time!r}"
        super().__init__(f"frame is not fanning{where}: condition {condition:.3e}")
        self.condition = condition
        self.at_time = at_time


class InsufficientOrderError(ValueError):
    """A jet of higher order is required for the requested computation."""


class IntegrationError(RuntimeError):
    """The adaptive integrator failed to reach the requested time."""


class CurveFormatError(ValueError):
    """Malformed curve description (JSON schema violation)."""


def _require_finite(coefficients, what):
    """Reject curve data with NaN or infinite entries (checked once at construction)."""
    for i, c in enumerate(coefficients):
        if not np.all(np.isfinite(c)):
            raise CurveFormatError(f"{what} coefficient {i} is not finite")


@dataclass(frozen=True, eq=False)
class PolynomialMatrix:
    """Matrix polynomial ``sum_i C_i t^i`` in the global time variable.

    ``coefficients`` is one read-only array of shape ``(degree + 1, rows, cols)``.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", coefficient_stack(self.coefficients, CurveFormatError)
        )

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def shape(self):
        return self.coefficients.shape[1:]

    def value(self, t):
        return horner(self.coefficients, float(t))

    def jet_at(self, t, order):
        """Exact Taylor re-expansion about base time ``t``, truncated at ``order``."""
        t = float(t)
        coeffs = np.zeros((order + 1,) + self.shape)
        for j, c in enumerate(coeffs):
            for i in range(j, self.degree + 1):
                c += math.comb(i, j) * self.coefficients[i] * t ** (i - j)
        return MatrixJet(t, coeffs)

    def __matmul__(self, other):
        """Polynomial product by coefficient convolution."""
        coeffs = np.zeros(
            (self.degree + other.degree + 1, self.shape[0], other.shape[1])
        )
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                coeffs[i + j] += a @ b
        return PolynomialMatrix(coeffs)


def nilpotent_matrix(k, n):
    """Block nilpotent with superdiagonal blocks ``1 I, 2 I, ..., (k-1) I``."""
    m = np.zeros((k * n, k * n))
    for j in range(k - 1):
        m[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = (j + 1) * np.eye(n)
    return m


def _derivative_blocks(coeffs, orders, count):
    """Taylor coefficients ``0 .. count-1`` of ``A^(j)``, j in ``orders``, side by side.

    ``coeffs`` is the coefficient stack of ``A``; block ``j`` of coefficient
    ``m`` is ``perm(m + j, j) * c_(m+j)``, and zero past the last of ``coeffs``.
    """
    rows, cols = coeffs.shape[1:]
    blocks = np.zeros((count, rows, len(orders) * cols))
    for b, j in enumerate(orders):
        for m in range(min(count, len(coeffs) - j)):
            blocks[m, :, b * cols : (b + 1) * cols] = math.perm(m + j, j) * coeffs[m + j]
    return blocks


class FrameJet:
    """Jet of a frame curve at one time, with its cached juxtaposed lift.

    ``jet`` is a kn x n :class:`MatrixJet` of order at least k-1.  The
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
        if jet.order < self.k - 1:
            raise InsufficientOrderError(
                f"frame jet order {jet.order} is below k-1={self.k - 1}"
            )
        self.jet = jet

    @property
    def order(self):
        return self.jet.order

    @property
    def base_time(self):
        return self.jet.base_time

    def derivative_jet(self, j):
        """Jet of A^(j) about the base time (order drops by ``j``)."""
        if j == 0:
            return self.jet
        if j > self.jet.order:
            raise InsufficientOrderError(
                f"derivative {j} needs jet order >= {j}, have {self.jet.order}"
            )
        blocks = _derivative_blocks(self.jet.coeffs, (j,), self.jet.order - j + 1)
        return MatrixJet(self.base_time, blocks)

    @cached_property
    def juxtaposed(self):
        """kn x kn jet of ``(A | A' | ... | A^(k-1))``."""
        count = self.jet.order - self.k + 2
        blocks = _derivative_blocks(self.jet.coeffs, range(self.k), count)
        return MatrixJet(self.base_time, blocks)

    @cached_property
    def condition(self):
        return float(np.linalg.cond(self.juxtaposed.value()))

    @property
    def is_fanning(self):
        return self.condition < DEFAULT_CONDITION_LIMIT

    def require_fanning(self):
        if not self.is_fanning:
            raise NotFanningError(self.condition, at_time=self.base_time)

    @cached_property
    def juxtaposed_inverse(self):
        self.require_fanning()
        return self.juxtaposed.inverse(condition_limit=None)

    @cached_property
    def equation_coefficients(self):
        """Coefficients ``P_1 .. P_k`` of the frame's order-k equation, as jets.

        Solves the block system ``(A | A' | ... | A^(k-1)) S = -A^(k)`` at
        jet level, once per frame jet; block ``k - i`` of ``S`` is
        ``C(k, i) P_i``.  With a frame jet of order R the coefficient jets
        have order R - k.
        """
        k, n = self.k, self.n
        if self.order < k:
            raise InsufficientOrderError(
                f"equation coefficients need frame order >= {k}, have {self.order}"
            )
        self.require_fanning()
        stacked = jet_mul(self.juxtaposed_inverse, -self.derivative_jet(k)).coeffs
        return tuple(
            MatrixJet(
                self.base_time,
                (1.0 / math.comb(k, i)) * stacked[:, (k - i) * n : (k - i + 1) * n, :],
            )
            for i in range(1, k + 1)
        )

    @cached_property
    def fundamental_endomorphism(self):
        """The equivariant endomorphism with ``F A^(i) = i A^(i-1)``, as a jet.

        Built once per frame jet as the conjugate of the canonical nilpotent
        by the juxtaposed lift; a frame jet of order R gives it to order
        R - k + 1.
        """
        self.require_fanning()
        lifted = self.juxtaposed.coeffs @ nilpotent_matrix(self.k, self.n)
        return jet_mul(MatrixJet(self.base_time, lifted), self.juxtaposed_inverse)

    def left_multiplied(self, t_matrix):
        """Frame jet of ``T A`` for a constant ambient matrix ``T``."""
        t_matrix = np.asarray(t_matrix, dtype=float)
        return FrameJet(MatrixJet(self.base_time, t_matrix @ self.jet.coeffs))

    def right_multiplied(self, x):
        """Frame jet of ``A X`` for a constant n x n matrix or an n x n jet."""
        if isinstance(x, MatrixJet):
            return FrameJet(jet_mul(self.jet, x))
        x = np.asarray(x, dtype=float)
        return FrameJet(MatrixJet(self.base_time, self.jet.coeffs @ x))

    def truncated(self, order):
        return FrameJet(self.jet.truncated(order))

    def extended_with_zeros(self, order):
        """Pad with zero coefficients; used to fix a jet extension explicitly."""
        if order <= self.jet.order:
            return self
        zeros = np.zeros((order - self.jet.order,) + self.jet.shape)
        coeffs = np.concatenate((self.jet.coeffs, zeros))
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
        stack = coefficient_stack(self.coefficients, CurveFormatError)
        shape = (self.k * self.n, self.n)
        if stack.shape[1:] != shape:
            raise CurveFormatError(
                f"frame coefficients have shape {stack.shape[1:]}, expected {shape}"
            )
        _require_finite(stack, "frame")
        object.__setattr__(self, "coefficients", stack)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @cached_property
    def polynomial(self):
        """The frame as one :class:`PolynomialMatrix`."""
        return PolynomialMatrix(self.coefficients)

    @cached_property
    def _derivative_stack(self):
        """Horner-ready coefficients of (A | A' | ... | A^(k)) as one array."""
        return _derivative_blocks(self.coefficients, range(self.k + 1), self.degree + 1)

    def derivative_row(self, t):
        """Values of (A | A' | ... | A^(k)) at ``t`` in one Horner pass."""
        return horner(self._derivative_stack, float(t))

    def frame_jet(self, t, order):
        """Exact jet of the frame at base time ``t``."""
        if order < self.k - 1:
            raise InsufficientOrderError(f"order {order} is below k-1={self.k - 1}")
        return FrameJet(self.polynomial.jet_at(t, order))

    def frame_jets(self, times, order):
        return [self.frame_jet(t, order) for t in times]

    def transformed(self, t_matrix):
        """The curve ``T A(t)`` for a constant kn x kn matrix ``T``."""
        t_matrix = np.asarray(t_matrix, dtype=float)
        return PolynomialFrameCurve(self.k, self.n, t_matrix @ self.coefficients)

    def right_multiplied(self, x):
        """The curve ``A(t) X(t)`` for a constant matrix or PolynomialMatrix."""
        if not isinstance(x, PolynomialMatrix):
            x = PolynomialMatrix(np.asarray(x, dtype=float)[None])
        product = self.polynomial @ x
        return PolynomialFrameCurve(self.k, self.n, product.coefficients)


@dataclass(frozen=True, eq=False)
class OdeFrameCurve:
    """Frame curve defined by its order-k linear equation.

    The frame satisfies ``A^(k) + sum_(i=1..k) C(k,i) A^(k-i) P_i = 0``
    with prescribed n x n polynomial coefficient curves ``P_1 .. P_k``
    and initial juxtaposed matrix ``(A | A' | ... | A^(k-1))(0)``.
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
            if not isinstance(poly, PolynomialMatrix):
                poly = PolynomialMatrix(poly)
            if poly.shape != (self.n, self.n):
                raise CurveFormatError(
                    f"P_{i + 1} has shape {poly.shape}, expected {(self.n, self.n)}"
                )
            _require_finite(poly.coefficients, f"P_{i + 1}")
            ps.append(poly)
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
            raise NotFanningError(condition, at_time=0.0)
        a0.setflags(write=False)
        object.__setattr__(self, "initial_juxtaposed", a0)

    @cached_property
    def companion(self):
        """The block companion matrix ``C(t)`` as one matrix polynomial.

        The juxtaposed state ``Y = (A | A' | ... | A^(k-1))`` solves
        ``Y' = Y C(t)``: ``C`` has identity blocks just below its block
        diagonal and ``-C(k, i) P_i(t)`` in block row ``k - i`` of its last
        block column.
        """
        k, n = self.k, self.n
        degree = max(poly.degree for poly in self.p)
        stack = np.zeros((degree + 1, k * n, k * n))
        for j in range(k - 1):
            stack[0, (j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = np.eye(n)
        for i, poly in enumerate(self.p, start=1):
            for m, c in enumerate(poly.coefficients):
                stack[m, (k - i) * n : (k - i + 1) * n, (k - 1) * n :] = (
                    -math.comb(k, i) * c
                )
        return PolynomialMatrix(stack)

    def frame_jet(self, t, order):
        """Integrate the frame state from t=0 to ``t`` and build its jet there."""
        return self.frame_jets((t,), order)[0]

    def frame_jets(self, times, order):
        """Frame jets at many times from one integration sweep.

        The requested times are visited outward from t=0, positive times in
        ascending and negative times in descending order.  Each Runge-Kutta
        5(4) segment starts from the state at the previous requested time, so
        every requested time is a step endpoint (no dense-output
        interpolation).  Jets come back in the caller's order; repeated times
        share one jet.
        """
        k = self.k
        if order < k - 1:
            raise InsufficientOrderError(f"order {order} is below k-1={k - 1}")
        times = [float(t) for t in times]
        for t in times:
            if not math.isfinite(t):
                raise ValueError(f"frame jet times must be finite, got {t!r}")
        states = {0.0: self.initial_juxtaposed}
        positive = sorted({t for t in times if t > 0.0})
        negative = sorted({t for t in times if t < 0.0}, reverse=True)
        for side in (positive, negative):
            t_prev, state = 0.0, self.initial_juxtaposed
            for t in side:
                state = _advance(self, t_prev, t, state)
                states[t] = state
                t_prev = t
        jets = {t: _jet_from_state(self, t, states[t], order) for t in set(times)}
        return [jets[t] for t in times]


def _ode_state_derivative(curve, t, state):
    """``Y' = Y C(t)`` on the flattened juxtaposed state ``Y``."""
    kn = curve.k * curve.n
    return (state.reshape(kn, kn) @ curve.companion.value(t)).reshape(-1)


def _advance(curve, t0, t1, state):
    """The juxtaposed state at ``t1``, given ``state`` at ``t0``."""
    sol = solve_ivp(
        lambda s, y: _ode_state_derivative(curve, s, y),
        (t0, t1),
        state.reshape(-1),
        method="RK45",
        rtol=ODE_RTOL,
        atol=ODE_ATOL,
    )
    if not sol.success:
        raise IntegrationError(f"integrator stopped before t={t1}: {sol.message}")
    return sol.y[:, -1].reshape(state.shape)


def _jet_from_state(curve, t, state, order):
    """Frame jet at ``t`` from the juxtaposed state there.

    Coefficients of order >= k come from the defining equation: the
    Taylor coefficient ``idx`` of ``A^(k) = -sum_i C(k, i) A^(k-i) P_i``
    is a Cauchy product over lower coefficients.
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
    return FrameJet(MatrixJet(t, coeffs))


def standard_jet(k, n, order, base_time=0.0):
    """Canonical frame jet: ``A^(j) = j``-th block column for j <= k-1, zero above.

    Its juxtaposed value is the identity, so the jet is fanning and its
    fundamental endomorphism equals the canonical nilpotent matrix.
    """
    if order < k - 1:
        raise InsufficientOrderError(f"order {order} is below k-1={k - 1}")
    coeffs = np.zeros((order + 1, k * n, n))
    for j in range(k):
        coeffs[j, j * n : (j + 1) * n] = np.eye(n) / math.factorial(j)
    return FrameJet(MatrixJet(base_time, coeffs))


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
        ps = []
        for i, entry in enumerate(data["P"]):
            try:
                coeffs = entry["coefficients"]
            except (TypeError, KeyError) as exc:
                raise CurveFormatError(f"P entry {i} lacks 'coefficients'") from exc
            ps.append(PolynomialMatrix(coeffs))
        return OdeFrameCurve(k, n, tuple(ps), np.array(data["A0"], dtype=float))
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
                {"degree": poly.degree, "coefficients": poly.coefficients.tolist()}
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
