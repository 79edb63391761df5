"""Truncated Taylor (jet) arithmetic over dense real matrices.

A :class:`MatrixJet` stores the Taylor coefficients ``c_0 .. c_r`` of a
matrix-valued curve about a base time ``t0``; the represented curve is
``sum_i c_i (t - t0)**i`` and the i-th derivative at ``t0`` is
``i! * c_i``.  Coefficients rather than raw derivatives are stored so that
entries stay O(1) for analytic curves and no factorial overflow occurs at
high order; accessors convert on demand.

The coefficients are one read-only float array of shape
``(*batch, order + 1, rows, cols)``.  The optional leading batch axes hold
independent samples, typically the jets of one curve at every time of a
grid: ``base_time`` is then a float array of shape ``batch``, and a float
for the unbatched jet (batch ``()``).  Every kernel indexes the
coefficient axis as ``[..., i, :, :]``, so one function serves any batch
shape and a batch costs one array operation where the samples would cost
one each.  Coefficientwise operations are single array expressions and a
constant right or left factor is one broadcast matmul.  The Cauchy product
takes one broadcast matmul per term index against the whole other stack,
and the solve of ``a x = b`` one batched matmul and sum per order; no
kernel loops over samples or coefficient pairs in Python or leaves numpy.
Stacked matmul and ``inv`` treat each sample as the unbatched call would,
so a batch agrees bitwise with its samples computed one at a time.
:func:`linear_taylor` expands both linear equations ``Y' = Y C`` that the
package solves by series, the ODE state's and the normalizing change's.
Matrix polynomials in :mod:`fanning.curves` hold their coefficients in the
unbatched layout, and :func:`horner` evaluates either.

Mixed-order binary operations truncate to the minimum order and never
zero-pad: unknown higher derivatives are unknown, not zero.  Binary
operations need equal base times, and so equal batch shapes.

No kernel here checks conditioning: the one conditioning gate is the
fanning test of :class:`fanning.curves.FrameJet`, which admits a jet to
:func:`jet_solve` only when its juxtaposed value is well conditioned.

Jets are immutable and all operations are pure functions, so shared jets
are safe to use concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np


class JetError(ValueError):
    """Structurally invalid jet operation (shape, base time or order misuse)."""


def coefficient_stack(coeffs, error, batch):
    """``coeffs`` as one read-only float array of shape ``(*batch, count, rows, cols)``.

    Raises ``error`` unless ``coeffs`` holds at least one matrix per sample
    and all its matrices share one shape, and its leading axes are
    ``batch``.  The result is always a fresh copy, so no caller holds a
    writable alias of it.
    """
    try:
        stack = np.array(coeffs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"coefficients are not matrices of one shape: {exc}") from exc
    if stack.shape[len(batch) : len(batch) + 1] == (0,):
        raise error("at least one coefficient is needed")
    if stack.ndim != len(batch) + 3:
        raise error(f"coefficients must be matrices, got an array of shape {stack.shape}")
    if stack.shape[: len(batch)] != batch:
        raise error(
            f"coefficients of shape {stack.shape} do not have the batch shape {batch}"
        )
    stack.setflags(write=False)
    return stack


def horner(coeffs, x):
    """``sum_i coeffs[..., i, :, :] x**i`` by Horner's rule over the coefficient axis.

    ``x`` is a number or an array of the leading batch shape of ``coeffs``.
    """
    x = np.asarray(x, dtype=float)[..., None, None]
    val = np.array(coeffs[..., -1, :, :])
    for i in range(coeffs.shape[-3] - 2, -1, -1):
        val = val * x + coeffs[..., i, :, :]
    return val


@dataclass(frozen=True, eq=False)
class MatrixJet:
    """Taylor coefficients ``c_0 .. c_r`` of a matrix curve at ``base_time``.

    ``coeffs`` is one read-only array of shape ``(*batch, r + 1, rows, cols)``
    and ``base_time`` a float (batch ``()``) or a read-only float array of
    shape ``batch``.
    """

    base_time: float
    coeffs: np.ndarray

    def __post_init__(self):
        base_time = self.base_time
        # A batch's base times are shared by the jets built from it.
        shared = isinstance(base_time, np.ndarray) and base_time.dtype == float
        if not (shared and not base_time.flags.writeable):
            base_time = np.array(base_time, dtype=float)
            base_time.setflags(write=False)
        stack = coefficient_stack(self.coeffs, JetError, base_time.shape)
        if base_time.ndim == 0:
            base_time = float(base_time)
        object.__setattr__(self, "coeffs", stack)
        object.__setattr__(self, "base_time", base_time)

    # -- construction --------------------------------------------------

    @classmethod
    def identity(cls, dim, base_time=0.0, order=0):
        coeffs = np.zeros(np.shape(base_time) + (order + 1, dim, dim))
        coeffs[..., 0, :, :] = np.eye(dim)
        return cls(base_time, coeffs)

    # -- structure -----------------------------------------------------

    @property
    def batch(self):
        return self.coeffs.shape[:-3]

    @property
    def order(self):
        return self.coeffs.shape[-3] - 1

    @property
    def rows(self):
        return self.coeffs.shape[-2]

    @property
    def cols(self):
        return self.coeffs.shape[-1]

    @property
    def shape(self):
        return self.coeffs.shape[-2:]

    def value(self):
        """Curve value at the base time (the constant coefficient)."""
        return self.coeffs[..., 0, :, :]

    def derivative_value(self, i):
        """i-th derivative at the base time, ``i! * c_i``."""
        if not 0 <= i <= self.order:
            raise JetError(f"derivative {i} is not held by an order-{self.order} jet")
        return math.factorial(i) * self.coeffs[..., i, :, :]

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

    def __repr__(self):
        where = f"base_time={self.base_time}" if not self.batch else f"batch={self.batch}"
        return f"MatrixJet({where}, order={self.order}, shape={self.shape})"


def _check_compatible(a, b, same_shape):
    if a.base_time is not b.base_time and not np.array_equal(a.base_time, b.base_time):
        raise JetError(f"base times differ: {a.base_time} vs {b.base_time}")
    if same_shape and a.shape != b.shape:
        raise JetError(f"shapes differ: {a.shape} vs {b.shape}")
    if not same_shape and a.cols != b.rows:
        raise JetError(f"inner dimensions differ: {a.shape} @ {b.shape}")


def jet_add(a, b):
    """Coefficientwise sum, truncated to the smaller order."""
    _check_compatible(a, b, same_shape=True)
    m = min(a.order, b.order)
    return MatrixJet(a.base_time, a.coeffs[..., : m + 1, :, :] + b.coeffs[..., : m + 1, :, :])


def cauchy_product(ac, bc):
    """``c_m = sum_i a_i b_(m-i)`` of two coefficient stacks of one order, any leading axes."""
    # Term i adds a_i b_(j-i) to every c_j at once, so each c_j is summed as a_0 b_j +
    # a_1 b_(j-1) + ...: a pairwise sum over the term axis would round 1 x 1 blocks differently.
    out = ac[..., :1, :, :] @ bc
    for i in range(1, bc.shape[-3]):
        out[..., i:, :, :] += ac[..., i : i + 1, :, :] @ bc[..., :-i, :, :]
    return out


def jet_mul(a, b):
    """Cauchy product, truncated to the smaller order."""
    _check_compatible(a, b, same_shape=False)
    m = min(a.order, b.order) + 1
    return MatrixJet(a.base_time, cauchy_product(a.coeffs[..., :m, :, :], b.coeffs[..., :m, :, :]))


def jet_solve(a, b, a0_inverse):
    """The jet ``x`` with ``a x = b``, truncated to the smaller order.

    Recurses on ``x_m = a_0^-1 (b_m - sum_(i=1..m) a_i x_(m-i))``, so that
    ``x_m`` reads no order above m.  ``a0_inverse`` is ``a_0^-1``, or None
    to invert it here.  Raises ``LinAlgError`` when ``a_0`` is singular or
    not finite, or, naming the first such order, when ``x`` overflows.
    """
    if a.rows != a.cols:
        raise JetError(f"only square jets can be solved against, got shape {a.shape}")
    _check_compatible(a, b, same_shape=False)
    ac, bc = a.coeffs, b.coeffs
    if not np.isfinite(ac[..., 0, :, :]).all():
        raise np.linalg.LinAlgError("jet solve against a non-finite leading coefficient")
    order = min(a.order, b.order)
    x = np.empty(bc.shape[:-3] + (order + 1,) + bc.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        if a0_inverse is None:
            a0_inverse = np.linalg.inv(ac[..., 0, :, :])
        x[..., 0, :, :] = a0_inverse @ bc[..., 0, :, :]
        for m in range(1, order + 1):
            terms = ac[..., m:0:-1, :, :] @ x[..., :m, :, :]
            x[..., m, :, :] = a0_inverse @ (bc[..., m, :, :] - terms.sum(axis=-3))
    overflowed = np.flatnonzero(~np.isfinite(x).all(axis=(-2, -1)).reshape(-1, order + 1).all(0))
    if overflowed.size:
        raise np.linalg.LinAlgError(f"jet solve overflowed at order {overflowed[0]}")
    return MatrixJet(a.base_time, x)


def jet_inverse(a):
    """Multiplicative inverse to the truncation order: :func:`jet_solve` against the identity."""
    return jet_solve(a, MatrixJet.identity(a.rows, a.base_time, a.order), None)


def linear_taylor(y0, c):
    """Taylor coefficients ``y_0 .. y_(r+1)`` of the solution of ``Y' = Y C``.

    ``y0`` is ``Y`` at the base time and ``c`` the coefficient stack
    ``c_0 .. c_r`` of ``C`` about it, of shape ``(*batch, r + 1, cols,
    cols)``; ``y0`` is one matrix or one per sample.  Each next coefficient
    is ``y_(m+1) = sum_(i=0..m) y_i c_(m-i) / (m + 1)``.  Returns one array
    of shape ``(*batch, r + 2, rows, cols)``.
    """
    y = np.empty(c.shape[:-3] + (c.shape[-3] + 1,) + np.shape(y0)[-2:])
    y[..., 0, :, :] = y0
    for m in range(c.shape[-3]):
        terms = y[..., : m + 1, :, :] @ c[..., m::-1, :, :]
        y[..., m + 1, :, :] = terms.sum(axis=-3) / (m + 1)
    return y
