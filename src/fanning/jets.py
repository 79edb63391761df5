"""Truncated Taylor (jet) arithmetic over dense real matrices.

A jet holds the Taylor coefficients ``c_0 .. c_r`` of a matrix curve about
a base time ``t0``: the curve is ``sum_i c_i (t - t0)**i`` and its i-th
derivative there ``i! * c_i``, so entries stay O(1) for analytic curves.

The kernels (:func:`cauchy_product`, :func:`jet_solve`, :func:`linear_taylor`,
:func:`horner`) take and return coefficient arrays of shape
``(*batch, order + 1, rows, cols)``; the package chains them on arrays.
The optional batch axes hold independent samples, typically one curve's
jets at every time of a grid.  Each kernel indexes the coefficient axis as
``[..., i, :, :]`` and costs one broadcast matmul per order, with no Python
loop over samples; stacked matmul and ``inv`` treat each sample as the
unbatched call would, so a batch agrees bitwise with its samples.
Products and solves truncate to the smaller order and never zero-pad:
unknown higher derivatives are unknown, not zero.

:class:`MatrixJet`, a validated read-only coefficient array with its base
times, is the type of the public API, built where a jet enters the package
(a curve's ``frame_jets``, a library caller) or leaves it.  It has no
arithmetic operators: :func:`jet_mul` (at equal base times) and
:func:`jet_inverse` are its operations.

No kernel checks conditioning: the one conditioning gate is the fanning
test of :class:`fanning.curves.FrameJet`, which admits a jet to
:func:`jet_solve` only when its juxtaposed value is well conditioned.
Jets are immutable and all operations pure, so shared jets are safe to use
concurrently.
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

    def __repr__(self):
        where = f"base_time={self.base_time}" if not self.batch else f"batch={self.batch}"
        return f"MatrixJet({where}, order={self.order}, shape={self.shape})"


def cauchy_product(ac, bc):
    """``c_m = sum_i a_i b_(m-i)`` of two coefficient stacks, any leading axes, to the shorter's order."""
    m = min(ac.shape[-3], bc.shape[-3])
    ac, bc = ac[..., :m, :, :], bc[..., :m, :, :]
    # Term i adds a_i b_(j-i) to every c_j at once, so each c_j is summed as a_0 b_j +
    # a_1 b_(j-1) + ...: a pairwise sum over the term axis would round 1 x 1 blocks differently.
    out = ac[..., :1, :, :] @ bc
    for i in range(1, m):
        out[..., i:, :, :] += ac[..., i : i + 1, :, :] @ bc[..., :-i, :, :]
    return out


def jet_mul(a, b):
    """Cauchy product of two jets, truncated to the smaller order."""
    if a.base_time is not b.base_time and not np.array_equal(a.base_time, b.base_time):
        raise JetError(f"base times differ: {a.base_time} vs {b.base_time}")
    if a.cols != b.rows:
        raise JetError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return MatrixJet(a.base_time, cauchy_product(a.coeffs, b.coeffs))


def jet_solve(ac, bc, a0_inverse):
    """The coefficients of ``x`` with ``a x = b``, truncated to the smaller order.

    ``ac`` and ``bc`` are the coefficient stacks of ``a`` and ``b``, with
    equal leading axes.  Recurses on ``x_m = a_0^-1 (b_m - sum_(i=1..m)
    a_i x_(m-i))``, so that ``x_m`` reads no order above m.  ``a0_inverse``
    is ``a_0^-1``, or None to invert it here.  Raises ``LinAlgError`` when
    ``a_0`` is singular or not finite, or, naming the first such order,
    when ``x`` overflows.
    """
    if ac.shape[-2] != ac.shape[-1]:
        raise JetError(f"only square jets can be solved against, got shape {ac.shape[-2:]}")
    if not np.isfinite(ac[..., 0, :, :]).all():
        raise np.linalg.LinAlgError("jet solve against a non-finite leading coefficient")
    count = min(ac.shape[-3], bc.shape[-3])
    x = np.empty(bc.shape[:-3] + (count,) + bc.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        if a0_inverse is None:
            a0_inverse = np.linalg.inv(ac[..., 0, :, :])
        x[..., 0, :, :] = a0_inverse @ bc[..., 0, :, :]
        for m in range(1, count):
            terms = ac[..., m:0:-1, :, :] @ x[..., :m, :, :]
            x[..., m, :, :] = a0_inverse @ (bc[..., m, :, :] - terms.sum(axis=-3))
    overflowed = np.flatnonzero(~np.isfinite(x).all(axis=(-2, -1)).reshape(-1, count).all(0))
    if overflowed.size:
        raise np.linalg.LinAlgError(f"jet solve overflowed at order {overflowed[0]}")
    return x


def jet_inverse(a):
    """Multiplicative inverse of a square jet to its order: :func:`jet_solve` against the identity."""
    identity = np.zeros(a.batch + (a.order + 1, a.rows, a.rows))
    identity[..., 0, :, :] = np.eye(a.rows)
    return MatrixJet(a.base_time, jet_solve(a.coeffs, identity, None))


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
