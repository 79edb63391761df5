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

from .jets import DEFAULT_CONDITION_LIMIT, MatrixJet, jet_mul


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


def _matrix_tuple(coefficients, shape, what):
    out = []
    for i, c in enumerate(coefficients):
        arr = np.array(c, dtype=float)
        if arr.shape != shape:
            raise CurveFormatError(
                f"{what} coefficient {i} has shape {arr.shape}, expected {shape}"
            )
        arr.setflags(write=False)
        out.append(arr)
    return tuple(out)


def _require_finite(coefficients, what):
    """Reject curve data with NaN or infinite entries (checked once at construction)."""
    for i, c in enumerate(coefficients):
        if not np.all(np.isfinite(c)):
            raise CurveFormatError(f"{what} coefficient {i} is not finite")


@dataclass(frozen=True, eq=False)
class PolynomialMatrix:
    """Matrix polynomial ``sum_i C_i t^i`` in the global time variable."""

    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise CurveFormatError("a polynomial needs at least one coefficient")
        shape = np.asarray(self.coefficients[0], dtype=float).shape
        object.__setattr__(
            self, "coefficients", _matrix_tuple(self.coefficients, shape, "polynomial")
        )

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def shape(self):
        return self.coefficients[0].shape

    def value(self, t):
        val = np.array(self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            val = val * float(t) + c
        return val

    def jet_at(self, t, order):
        """Exact Taylor re-expansion about base time ``t``, truncated at ``order``."""
        t = float(t)
        coeffs = []
        for j in range(order + 1):
            c = np.zeros(self.shape)
            for i in range(j, self.degree + 1):
                c = c + math.comb(i, j) * self.coefficients[i] * t ** (i - j)
            coeffs.append(c)
        return MatrixJet(t, tuple(coeffs))

    def __matmul__(self, other):
        """Polynomial product by coefficient convolution."""
        coeffs = [
            np.zeros((self.shape[0], other.shape[1]))
            for _ in range(self.degree + other.degree + 1)
        ]
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                coeffs[i + j] = coeffs[i + j] + a @ b
        return PolynomialMatrix(tuple(coeffs))


class FrameJet:
    """Jet of a frame curve at one time, with its cached juxtaposed lift.

    ``jet`` is a kn x n :class:`MatrixJet` of order at least k-1.  The
    juxtaposed jet stacks the jets of A, A', ..., A^(k-1) as block
    columns; the frame is fanning when its value at the base time is
    invertible within the conditioning threshold.
    """

    def __init__(self, jet, condition_limit=DEFAULT_CONDITION_LIMIT):
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
        self.condition_limit = condition_limit

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
        coeffs = tuple(
            math.perm(m + j, j) * self.jet.coeffs[m + j]
            for m in range(self.jet.order - j + 1)
        )
        return MatrixJet(self.base_time, coeffs)

    @cached_property
    def juxtaposed(self):
        """kn x kn jet of ``(A | A' | ... | A^(k-1))``."""
        q = self.jet.order - self.k + 1
        kn = self.k * self.n
        coeffs = []
        for m in range(q + 1):
            block = np.empty((kn, kn))
            for j in range(self.k):
                block[:, j * self.n : (j + 1) * self.n] = (
                    math.perm(m + j, j) * self.jet.coeffs[m + j]
                )
            coeffs.append(block)
        return MatrixJet(self.base_time, tuple(coeffs))

    @cached_property
    def condition(self):
        return float(np.linalg.cond(self.juxtaposed.value()))

    @property
    def is_fanning(self):
        return self.condition < self.condition_limit

    def require_fanning(self):
        if not self.is_fanning:
            raise NotFanningError(self.condition, at_time=self.base_time)

    @cached_property
    def juxtaposed_inverse(self):
        self.require_fanning()
        return self.juxtaposed.inverse(condition_limit=None)

    def left_multiplied(self, t_matrix):
        """Frame jet of ``T A`` for a constant ambient matrix ``T``."""
        t_matrix = np.asarray(t_matrix, dtype=float)
        coeffs = tuple(t_matrix @ c for c in self.jet.coeffs)
        return FrameJet(MatrixJet(self.base_time, coeffs), self.condition_limit)

    def right_multiplied(self, x):
        """Frame jet of ``A X`` for a constant n x n matrix or an n x n jet."""
        if isinstance(x, MatrixJet):
            return FrameJet(jet_mul(self.jet, x), self.condition_limit)
        x = np.asarray(x, dtype=float)
        coeffs = tuple(c @ x for c in self.jet.coeffs)
        return FrameJet(MatrixJet(self.base_time, coeffs), self.condition_limit)

    def truncated(self, order):
        return FrameJet(self.jet.truncated(order), self.condition_limit)

    def extended_with_zeros(self, order):
        """Pad with zero coefficients; used to fix a jet extension explicitly."""
        if order <= self.jet.order:
            return self
        zero = np.zeros(self.jet.shape)
        coeffs = self.jet.coeffs + (zero,) * (order - self.jet.order)
        return FrameJet(MatrixJet(self.base_time, coeffs), self.condition_limit)

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
    coefficients: tuple

    def __post_init__(self):
        if self.k < 2 or self.n < 1:
            raise CurveFormatError(f"need k >= 2 and n >= 1, got k={self.k}, n={self.n}")
        shape = (self.k * self.n, self.n)
        object.__setattr__(
            self, "coefficients", _matrix_tuple(self.coefficients, shape, "frame")
        )
        _require_finite(self.coefficients, "frame")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def value(self, t):
        val = np.array(self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            val = val * float(t) + c
        return val

    def derivative_value(self, t, j):
        """A^(j)(t) by direct polynomial differentiation."""
        val = np.zeros((self.k * self.n, self.n))
        for i in range(j, self.degree + 1):
            val = val + math.perm(i, j) * self.coefficients[i] * float(t) ** (i - j)
        return val

    @cached_property
    def _derivative_stack(self):
        """Horner-ready coefficients of (A | A' | ... | A^(k)) as one array."""
        k, n = self.k, self.n
        stack = np.zeros((self.degree + 1, k * n, (k + 1) * n))
        for j in range(k + 1):
            for m in range(self.degree + 1 - j):
                stack[m, :, j * n : (j + 1) * n] = (
                    math.perm(m + j, j) * self.coefficients[m + j]
                )
        return stack

    def derivative_row(self, t):
        """Values of (A | A' | ... | A^(k)) at ``t`` in one Horner pass."""
        stack = self._derivative_stack
        val = np.array(stack[-1])
        t = float(t)
        for c in stack[-2::-1]:
            val = val * t + c
        return val

    def frame_jet(self, t, order, condition_limit=DEFAULT_CONDITION_LIMIT):
        return eval_frame_jet(self, t, order, condition_limit)

    def frame_jets(self, times, order):
        return [self.frame_jet(t, order) for t in times]

    def transformed(self, t_matrix):
        """The curve ``T A(t)`` for a constant kn x kn matrix ``T``."""
        t_matrix = np.asarray(t_matrix, dtype=float)
        return PolynomialFrameCurve(
            self.k, self.n, tuple(t_matrix @ c for c in self.coefficients)
        )

    def right_multiplied(self, x):
        """The curve ``A(t) X(t)`` for a constant matrix or PolynomialMatrix."""
        if not isinstance(x, PolynomialMatrix):
            x = PolynomialMatrix((np.asarray(x, dtype=float),))
        product = PolynomialMatrix(self.coefficients) @ x
        return PolynomialFrameCurve(self.k, self.n, product.coefficients)


def eval_frame_jet(curve, t, order, condition_limit=DEFAULT_CONDITION_LIMIT):
    """Exact jet of a polynomial frame curve at base time ``t``."""
    if order < curve.k - 1:
        raise InsufficientOrderError(
            f"order {order} is below k-1={curve.k - 1}"
        )
    poly = PolynomialMatrix(curve.coefficients)
    return FrameJet(poly.jet_at(t, order), condition_limit)


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
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if self.k < 2 or self.n < 1:
            raise CurveFormatError(f"need k >= 2 and n >= 1, got k={self.k}, n={self.n}")
        if len(self.p) != self.k:
            raise CurveFormatError(f"expected {self.k} coefficient curves, got {len(self.p)}")
        ps = []
        for i, poly in enumerate(self.p):
            if not isinstance(poly, PolynomialMatrix):
                poly = PolynomialMatrix(tuple(np.asarray(c, dtype=float) for c in poly))
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
        return PolynomialMatrix(tuple(stack))

    def frame_jet(self, t, order, condition_limit=DEFAULT_CONDITION_LIMIT):
        return integrate_ode_jet(self, t, order, condition_limit)

    def frame_jets(self, times, order):
        return integrate_ode_jets(self, times, order)


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
        rtol=curve.rtol,
        atol=curve.atol,
    )
    if not sol.success:
        raise IntegrationError(f"integrator stopped before t={t1}: {sol.message}")
    return sol.y[:, -1].reshape(state.shape)


def _jet_from_state(curve, t, state, order, condition_limit):
    """Frame jet at ``t`` from the juxtaposed state there.

    Coefficients of order >= k come from the defining equation: the
    Taylor coefficient ``idx`` of ``A^(k) = -sum_i C(k, i) A^(k-i) P_i``
    is a Cauchy product over lower coefficients.
    """
    k, n = curve.k, curve.n
    coeffs = [state[:, j * n : (j + 1) * n] / math.factorial(j) for j in range(k)]
    p_coeffs = [poly.jet_at(t, max(order - k, 0)).coeffs for poly in curve.p]
    for m in range(k, order + 1):
        idx = m - k
        top = np.zeros((k * n, n))
        for i in range(1, k + 1):
            for r in range(idx + 1):
                top -= (
                    math.comb(k, i) * math.perm(r + k - i, k - i) * coeffs[r + k - i]
                ) @ p_coeffs[i - 1][idx - r]
        coeffs.append(top / math.perm(m, k))
    return FrameJet(MatrixJet(t, tuple(coeffs)), condition_limit)


def integrate_ode_jets(curve, times, order, condition_limit=DEFAULT_CONDITION_LIMIT):
    """Frame jets at many times from one integration sweep.

    The requested times are visited outward from t=0, positive times in
    ascending and negative times in descending order.  Each Runge-Kutta
    5(4) segment starts from the state at the previous requested time, so
    every requested time is a step endpoint (no dense-output
    interpolation).  Jets come back in the caller's order; repeated times
    share one jet.
    """
    k = curve.k
    if order < k - 1:
        raise InsufficientOrderError(f"order {order} is below k-1={k - 1}")
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"frame jet times must be finite, got {t!r}")
    states = {0.0: curve.initial_juxtaposed}
    positive = sorted({t for t in times if t > 0.0})
    negative = sorted({t for t in times if t < 0.0}, reverse=True)
    for side in (positive, negative):
        t_prev, state = 0.0, curve.initial_juxtaposed
        for t in side:
            state = _advance(curve, t_prev, t, state)
            states[t] = state
            t_prev = t
    jets = {
        t: _jet_from_state(curve, t, states[t], order, condition_limit)
        for t in set(times)
    }
    return [jets[t] for t in times]


def integrate_ode_jet(curve, t, order, condition_limit=DEFAULT_CONDITION_LIMIT):
    """Integrate the frame state from t=0 to ``t`` and build its jet there."""
    return integrate_ode_jets(curve, (t,), order, condition_limit)[0]


def standard_jet(k, n, order, base_time=0.0):
    """Canonical frame jet: ``A^(j) = j``-th block column for j <= k-1, zero above.

    Its juxtaposed value is the identity, so the jet is fanning and its
    fundamental endomorphism equals the canonical nilpotent matrix.
    """
    if order < k - 1:
        raise InsufficientOrderError(f"order {order} is below k-1={k - 1}")
    coeffs = []
    for j in range(order + 1):
        c = np.zeros((k * n, n))
        if j <= k - 1:
            c[j * n : (j + 1) * n] = np.eye(n) / math.factorial(j)
        coeffs.append(c)
    return FrameJet(MatrixJet(base_time, tuple(coeffs)))


def standard_curve(k, n):
    """The monomial curve ``A(t) = sum_j E_j t^j`` over the identity blocks."""
    coeffs = []
    for j in range(k):
        c = np.zeros((k * n, n))
        c[j * n : (j + 1) * n] = np.eye(n)
        coeffs.append(c)
    return PolynomialFrameCurve(k, n, tuple(coeffs))


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
        return PolynomialFrameCurve(k, n, tuple(data["coefficients"]))
    if kind == "ode":
        if "P" not in data or "A0" not in data:
            raise CurveFormatError("ode curve needs 'P' and 'A0'")
        ps = []
        for i, entry in enumerate(data["P"]):
            try:
                coeffs = entry["coefficients"]
            except (TypeError, KeyError) as exc:
                raise CurveFormatError(f"P entry {i} lacks 'coefficients'") from exc
            ps.append(PolynomialMatrix(tuple(coeffs)))
        return OdeFrameCurve(k, n, tuple(ps), np.array(data["A0"], dtype=float))
    raise CurveFormatError(f"unknown curve kind {kind!r}")


def curve_to_dict(curve):
    if isinstance(curve, PolynomialFrameCurve):
        return {
            "kind": "polynomial",
            "k": curve.k,
            "n": curve.n,
            "coefficients": [c.tolist() for c in curve.coefficients],
        }
    if isinstance(curve, OdeFrameCurve):
        return {
            "kind": "ode",
            "k": curve.k,
            "n": curve.n,
            "P": [
                {"degree": poly.degree, "coefficients": [c.tolist() for c in poly.coefficients]}
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
