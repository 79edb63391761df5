"""Truncated Taylor (jet) arithmetic over dense real matrices.

A :class:`MatrixJet` stores the Taylor coefficients ``c_0 .. c_r`` of a
matrix-valued curve about a base time ``t0``; the represented curve is
``sum_i c_i (t - t0)**i`` and the i-th derivative at ``t0`` is
``i! * c_i``.  Coefficients rather than raw derivatives are stored so that
entries stay O(1) for analytic curves and no factorial overflow occurs at
high order; accessors convert on demand.

Mixed-order binary operations truncate to the minimum order and never
zero-pad: unknown higher derivatives are unknown, not zero.

Jets are immutable and all operations are pure functions, so shared jets
are safe to use concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

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


def _freeze(c):
    arr = np.array(c, dtype=float)
    if arr.ndim != 2:
        raise JetError(f"jet coefficients must be matrices, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MatrixJet:
    """Taylor coefficients ``c_0 .. c_r`` of a matrix curve at ``base_time``."""

    base_time: float
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise JetError("a jet needs at least its constant coefficient")
        frozen = tuple(_freeze(c) for c in self.coeffs)
        shapes = {c.shape for c in frozen}
        if len(shapes) != 1:
            raise JetError(f"jet coefficients have mixed shapes {sorted(shapes)}")
        object.__setattr__(self, "coeffs", frozen)
        object.__setattr__(self, "base_time", float(self.base_time))

    # -- construction --------------------------------------------------

    @classmethod
    def constant(cls, value, base_time=0.0, order=0):
        value = np.asarray(value, dtype=float)
        zero = np.zeros_like(value)
        return cls(base_time, (value,) + (zero,) * order)

    @classmethod
    def identity(cls, dim, base_time=0.0, order=0):
        return cls.constant(np.eye(dim), base_time, order)

    @classmethod
    def zero(cls, rows, cols, base_time=0.0, order=0):
        return cls(base_time, tuple(np.zeros((rows, cols)) for _ in range(order + 1)))

    # -- structure -----------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def rows(self):
        return self.coeffs[0].shape[0]

    @property
    def cols(self):
        return self.coeffs[0].shape[1]

    @property
    def shape(self):
        return self.coeffs[0].shape

    def value(self):
        """Curve value at the base time (the constant coefficient)."""
        return self.coeffs[0]

    def derivative_value(self, i=1):
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
        return MatrixJet(self.base_time, tuple(-c for c in self.coeffs))

    def __matmul__(self, other):
        return jet_mul(self, other)

    def __mul__(self, scalar):
        scalar = float(scalar)
        return MatrixJet(self.base_time, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self):
        return jet_derivative(self)

    def inverse(self, condition_limit=DEFAULT_CONDITION_LIMIT):
        return jet_inverse(self, condition_limit)

    def eval(self, t):
        return jet_eval(self, t)

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
    return MatrixJet(a.base_time, tuple(a.coeffs[i] + b.coeffs[i] for i in range(m + 1)))


def jet_mul(a, b):
    """Cauchy product ``c_m = sum_i a_i b_(m-i)``, truncated to the smaller order."""
    _check_compatible(a, b, same_shape=False)
    m = min(a.order, b.order)
    coeffs = []
    for j in range(m + 1):
        c = a.coeffs[0] @ b.coeffs[j]
        for i in range(1, j + 1):
            c += a.coeffs[i] @ b.coeffs[j - i]
        coeffs.append(c)
    return MatrixJet(a.base_time, tuple(coeffs))


def jet_inverse(a, condition_limit=DEFAULT_CONDITION_LIMIT):
    """Multiplicative inverse to the truncation order.

    Solves ``b_0 = c_0^-1`` and ``b_m = -b_0 * sum_(i=1..m) c_i b_(m-i)``
    recursively.  Fails loudly when the constant term's condition number
    exceeds ``condition_limit`` (pass ``None`` to skip the check).
    """
    if a.rows != a.cols:
        raise JetError(f"only square jets can be inverted, got shape {a.shape}")
    c0 = a.coeffs[0]
    if condition_limit is not None:
        condition = np.linalg.cond(c0)
        if not condition < condition_limit:
            raise SingularLeadingCoefficientError(condition, condition_limit)
    try:
        lu = lu_factor(c0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check catches first
        raise SingularLeadingCoefficientError(np.inf, condition_limit or np.inf) from exc
    b = [lu_solve(lu, np.eye(a.rows))]
    for m in range(1, a.order + 1):
        s = a.coeffs[1] @ b[m - 1]
        for i in range(2, m + 1):
            s += a.coeffs[i] @ b[m - i]
        b.append(-lu_solve(lu, s))
    return MatrixJet(a.base_time, tuple(b))


def jet_derivative(a):
    """d/dt of the jet; the order drops by one."""
    if a.order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    return MatrixJet(a.base_time, tuple((i + 1) * a.coeffs[i + 1] for i in range(a.order)))


def jet_eval(a, t):
    """Horner evaluation of the jet polynomial at time ``t``."""
    dt = float(t) - a.base_time
    val = np.array(a.coeffs[-1])
    for c in a.coeffs[-2::-1]:
        val = val * dt + c
    return val
