"""Truncated Taylor (jet) arithmetic over dense real matrices.

A :class:`MatrixJet` stores the Taylor coefficients ``c_0 .. c_r`` of a
matrix-valued curve about a base time ``t0``; the represented curve is
``sum_i c_i (t - t0)**i`` and the i-th derivative at ``t0`` is
``i! * c_i``.  Coefficients rather than raw derivatives are stored so that
entries stay O(1) for analytic curves and no factorial overflow occurs at
high order; accessors convert on demand.

The coefficients are one read-only float array of shape
``(order + 1, rows, cols)``: ``coeffs[i]`` is ``c_i``, so coefficientwise
operations are single array expressions and a constant right or left
factor is one broadcast matmul.  The Cauchy product takes one broadcast
matmul per term index against the whole other stack, and the inverse
inverts the constant term once with numpy and multiplies by it; no
kernel loops over coefficient pairs in Python or calls scipy.
:func:`linear_taylor` expands both linear equations ``Y' = Y C`` that the
package solves by series, the ODE state's and the normalizing change's.
Matrix polynomials in :mod:`fanning.curves` hold their coefficients in the
same layout, and :func:`horner` evaluates either.

Mixed-order binary operations truncate to the minimum order and never
zero-pad: unknown higher derivatives are unknown, not zero.

Jets are immutable and all operations are pure functions, so shared jets
are safe to use concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CONDITION_LIMIT = 1e8


class JetError(ValueError):
    """Structurally invalid jet operation (shape, base time or order misuse)."""


class SingularLeadingCoefficientError(JetError):
    """Jet inverse requested for a singular or ill-conditioned constant term."""

    def __init__(self, condition, limit):
        super().__init__(
            f"leading coefficient condition {condition:.3e} exceeds limit {limit:.3e}"
        )
        self.condition = condition
        self.limit = limit


def coefficient_stack(coeffs, error):
    """``coeffs`` as one read-only float array of shape ``(count, rows, cols)``.

    Raises ``error`` unless ``coeffs`` holds at least one matrix and all
    its matrices share one shape.  The result is always a fresh copy, so
    no caller holds a writable alias of it.
    """
    try:
        stack = np.array(coeffs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"coefficients are not matrices of one shape: {exc}") from exc
    if stack.shape[:1] == (0,):
        raise error("at least one coefficient is needed")
    if stack.ndim != 3:
        raise error(f"coefficients must be matrices, got an array of shape {stack.shape}")
    stack.setflags(write=False)
    return stack


def horner(coeffs, x):
    """``sum_i coeffs[i] x**i`` by Horner's rule over the first axis of ``coeffs``."""
    val = np.array(coeffs[-1])
    for c in coeffs[-2::-1]:
        val = val * x + c
    return val


@dataclass(frozen=True, eq=False)
class MatrixJet:
    """Taylor coefficients ``c_0 .. c_r`` of a matrix curve at ``base_time``.

    ``coeffs`` is one read-only array of shape ``(r + 1, rows, cols)``.
    """

    base_time: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", coefficient_stack(self.coeffs, JetError))
        object.__setattr__(self, "base_time", float(self.base_time))

    # -- construction --------------------------------------------------

    @classmethod
    def constant(cls, value, base_time=0.0, order=0):
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((order + 1,) + value.shape)
        coeffs[0] = value
        return cls(base_time, coeffs)

    @classmethod
    def identity(cls, dim, base_time=0.0, order=0):
        return cls.constant(np.eye(dim), base_time, order)

    @classmethod
    def zero(cls, rows, cols, base_time=0.0, order=0):
        return cls(base_time, np.zeros((order + 1, rows, cols)))

    # -- structure -----------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def rows(self):
        return self.coeffs.shape[1]

    @property
    def cols(self):
        return self.coeffs.shape[2]

    @property
    def shape(self):
        return self.coeffs.shape[1:]

    def value(self):
        """Curve value at the base time (the constant coefficient)."""
        return self.coeffs[0]

    def derivative_value(self, i):
        """i-th derivative at the base time, ``i! * c_i``."""
        if not 0 <= i <= self.order:
            raise JetError(f"derivative {i} is not held by an order-{self.order} jet")
        return math.factorial(i) * self.coeffs[i]

    def truncated(self, order):
        if order > self.order:
            raise JetError(f"cannot extend an order-{self.order} jet to order {order}")
        return MatrixJet(self.base_time, self.coeffs[: order + 1])

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return jet_add(self, other)

    def __sub__(self, other):
        return jet_add(self, -other)

    def __neg__(self):
        return MatrixJet(self.base_time, -self.coeffs)

    def __matmul__(self, other):
        return jet_mul(self, other)

    def __mul__(self, scalar):
        return MatrixJet(self.base_time, float(scalar) * self.coeffs)

    __rmul__ = __mul__

    def derivative(self):
        return jet_derivative(self)

    def inverse(self, condition_limit=DEFAULT_CONDITION_LIMIT):
        return jet_inverse(self, condition_limit)

    def __repr__(self):
        return (
            f"MatrixJet(base_time={self.base_time}, order={self.order}, "
            f"shape={self.shape})"
        )


def _check_compatible(a, b, same_shape):
    if a.base_time != b.base_time:
        raise JetError(f"base times differ: {a.base_time} vs {b.base_time}")
    if same_shape and a.shape != b.shape:
        raise JetError(f"shapes differ: {a.shape} vs {b.shape}")
    if not same_shape and a.cols != b.rows:
        raise JetError(f"inner dimensions differ: {a.shape} @ {b.shape}")


def jet_add(a, b):
    """Coefficientwise sum, truncated to the smaller order."""
    _check_compatible(a, b, same_shape=True)
    m = min(a.order, b.order)
    return MatrixJet(a.base_time, a.coeffs[: m + 1] + b.coeffs[: m + 1])


def jet_mul(a, b):
    """Cauchy product ``c_m = sum_i a_i b_(m-i)``, truncated to the smaller order."""
    _check_compatible(a, b, same_shape=False)
    m = min(a.order, b.order)
    # Term i adds a_i b_(j-i) to every c_j at once, in increasing i, so each
    # c_j is summed as a_0 b_j + a_1 b_(j-1) + ...: a pairwise .sum(axis=0)
    # would round 1 x 1 blocks differently.
    out = a.coeffs[0] @ b.coeffs[: m + 1]
    for i in range(1, m + 1):
        out[i:] += a.coeffs[i] @ b.coeffs[: m + 1 - i]
    return MatrixJet(a.base_time, out)


def jet_inverse(a, condition_limit=DEFAULT_CONDITION_LIMIT):
    """Multiplicative inverse to the truncation order.

    Inverts ``b_0 = c_0^-1`` once and recurses on
    ``b_m = -b_0 sum_(i=1..m) c_i b_(m-i)``.  Fails loudly when the constant
    term's condition number exceeds ``condition_limit`` (pass ``None`` to
    skip the check), and raises ``LinAlgError`` when the constant term or a
    coefficient of the recursion is not finite (an overflow, reported by
    this error rather than by a warning).
    """
    if a.rows != a.cols:
        raise JetError(f"only square jets can be inverted, got shape {a.shape}")
    c0 = a.coeffs[0]
    if not np.isfinite(c0).all():
        raise np.linalg.LinAlgError("jet inverse of a non-finite leading coefficient")
    if condition_limit is not None:
        condition = np.linalg.cond(c0)
        if not condition < condition_limit:
            raise SingularLeadingCoefficientError(condition, condition_limit)
    b = np.empty_like(a.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            b[0] = np.linalg.inv(c0)
        except np.linalg.LinAlgError as exc:
            raise SingularLeadingCoefficientError(np.inf, condition_limit or np.inf) from exc
        for m in range(1, a.order + 1):
            s = a.coeffs[1] @ b[m - 1]
            for i in range(2, m + 1):
                s += a.coeffs[i] @ b[m - i]
            b[m] = -(b[0] @ s)
    overflowed = np.flatnonzero(~np.isfinite(b).all(axis=(1, 2)))
    if overflowed.size:
        raise np.linalg.LinAlgError(f"jet inverse overflowed at order {overflowed[0]}")
    return MatrixJet(a.base_time, b)


def linear_taylor(y0, c):
    """Taylor coefficients ``y_0 .. y_(r+1)`` of the solution of ``Y' = Y C``.

    ``y0`` is ``Y`` at the base time and ``c`` the coefficient stack
    ``c_0 .. c_r`` of ``C`` about it; each next coefficient is
    ``y_(m+1) = sum_(i=0..m) y_i c_(m-i) / (m + 1)``.  Returns one array of
    shape ``(r + 2, rows, cols)``.
    """
    y = np.empty((len(c) + 1,) + np.shape(y0))
    y[0] = y0
    for m in range(len(c)):
        y[m + 1] = (y[: m + 1] @ c[m::-1]).sum(axis=0) / (m + 1)
    return y


def jet_derivative(a):
    """d/dt of the jet; the order drops by one."""
    if a.order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    factors = np.arange(1, a.order + 1, dtype=float)[:, None, None]
    return MatrixJet(a.base_time, factors * a.coeffs[1:])


def jet_eval(a, t):
    """Horner evaluation of the jet polynomial at time ``t``."""
    return horner(a.coeffs, float(t) - a.base_time)
