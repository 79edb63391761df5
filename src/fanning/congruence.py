"""Congruence decision, canonical jets and orbit coordinates.

Two fanning curves are congruent exactly when a single constant ambient
transformation maps one onto the other; equivalently, when the invariants
``kappa, h_1 .. h_(k-2)`` of their normal frames are simultaneously
conjugate by one constant n x n matrix.  Since a frame change conjugates
the invariants pointwise, the traces of their powers are read from each
curve's own jets, and differing traces refute congruence before anything
is integrated.  Otherwise this module linearizes the conjugacy condition,
reconstructs the ambient transformation from the normal lifts, and
verifies it on the sampled planes.  It also canonicalizes jets to a
standard form whose invariant entries coordinatize the orbits of
(k+1)-jets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import DEFAULT_CONDITION_LIMIT, FrameJet, require_order
from .invariants import (
    checked_grid,
    normalized_frame_jet,
    normalizer,
    normalizing_jet,
    ode_coefficients,
    orbit_entries,
    wilczynski_invariants,
)
from .jets import MatrixJet
from .linalg import NULLSPACE_RTOL, nullspace, span_distance

DEFAULT_SPAN_TOL = 1e-7
# Seeded random nullspace combinations tried for a well-conditioned conjugator.
CONJUGATOR_ATTEMPTS = 20


def simultaneous_conjugator(pairs, seed=0):
    """A constant invertible ``X`` with ``M X = X N`` for every pair, or None.

    ``pairs`` is a sequence of ``(M, N)`` pairs or their ``(P, 2, n, n)``
    array.  The intertwining conditions stack into one linear system on the
    n^2 unknowns; its SVD nullspace is searched for a well-conditioned
    element, first along the basis vectors and then along seeded random
    combinations.  Singular values below ``NULLSPACE_RTOL * sigma_max``
    count as zero, with an absolute floor of ``NULLSPACE_RTOL`` times the
    input magnitude so that a numerically vanishing system (equal
    invariants) reads as all nullspace rather than as full rank.  Returns
    the best-conditioned candidate found, scale-normalized and negated if
    need be so that the first entry in row-major order whose magnitude is
    at least half the largest is positive (a plain argmax could flip
    between near-equal entries, as near diag(1, -1)); ``None`` when the
    nullspace is trivial.  Absence of an invertible solution is a valid
    outcome, not an error.
    """
    if len(pairs) == 0:
        raise ValueError("at least one matrix pair is required")
    try:
        pairs = np.array(pairs, dtype=float)
    except ValueError as exc:
        raise ValueError("all pairs must be square matrices of one size") from exc
    count, n = len(pairs), pairs.shape[-1]
    if pairs.shape != (count, 2, n, n):
        raise ValueError("all pairs must be square matrices of one size")
    ms, ns = pairs[:, 0], pairs[:, 1]
    scale = max(1.0, np.max(np.abs(pairs)))
    # Row-major vec: vec(M X - X N) = (M kron I - I kron N^T) vec(X).  Entry
    # (p, a, b, c, d) is M_p[a, c] I[b, d] - I[a, c] N_p[d, b]: one broadcast
    # product per Kronecker factor over all pairs, signed zeros included.
    eye = np.eye(n)
    system = (
        ms[:, :, None, :, None] * eye[:, None, :]
        - eye[:, None, :, None] * ns.transpose(0, 2, 1)[:, None, :, None, :]
    )
    basis = nullspace(system.reshape(count * n * n, n * n), floor=NULLSPACE_RTOL * scale)
    if basis.shape[1] == 0:
        return None

    def candidate(weights):
        x = (basis @ weights).reshape(n, n)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return None, np.inf
        x = x * (math.sqrt(n) / norm)
        return x, float(np.linalg.cond(x))

    best, best_cond = None, np.inf
    for j in range(basis.shape[1]):
        weights = np.zeros(basis.shape[1])
        weights[j] = 1.0
        x, cond = candidate(weights)
        if cond < best_cond:
            best, best_cond = x, cond
    rng = np.random.default_rng(seed)
    for _ in range(CONJUGATOR_ATTEMPTS):
        if best_cond < DEFAULT_CONDITION_LIMIT:
            break
        x, cond = candidate(rng.standard_normal(basis.shape[1]))
        if cond < best_cond:
            best, best_cond = x, cond
    if best is None:
        return None
    magnitudes = np.abs(best.ravel())
    lead = best.flat[np.argmax(magnitudes >= 0.5 * magnitudes.max())]
    return -best if lead < 0 else best


@dataclass(frozen=True, eq=False)
class CongruenceWitness:
    """Outcome of a congruence test: the ``congruent`` report, fields in its order.

    ``verdict`` is one of ``congruent``, ``not_congruent``, ``inconclusive``.
    Once a conjugator is found, ``conjugator`` is the constant n x n matrix
    relating the normal-frame invariants, its sign fixed by
    :func:`simultaneous_conjugator`'s rule, and ``ambient`` the
    reconstructed kn x kn transformation, which is linear in the
    conjugator's inverse and so follows its sign; ``residuals`` holds
    per-sample max-abs conjugation defects and ``span_distances`` the
    subspace distances after applying the ambient map.
    """

    verdict: str
    samples: tuple
    conjugator: np.ndarray | None
    ambient: np.ndarray | None
    residuals: tuple
    span_distances: tuple
    conjugator_condition: float
    message: str


def trace_gaps(wa, wb):
    """Relative gaps between the traces of powers of two curves' invariants.

    ``wa`` and ``wb`` stack ``kappa, h_1 .. h_(k-2)`` over a sample axis,
    shape (k-1, N, n, n).  Entry ``[m - 1, j, i]`` of the result, for
    m = 1 .. n, compares ``tr(w^m)`` of invariant j at sample i as
    ``|tr_A - tr_B| / (1 + max(|tr_A|, |tr_B|))``.  Congruent curves have
    equal traces, since a frame change conjugates every invariant
    pointwise and an ambient map leaves them unchanged.  A power that
    overflows gives a gap that is not finite, without a numpy warning.
    """
    gaps = []
    pa, pb = wa, wb
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(wa.shape[-1]):
            if m:
                pa, pb = pa @ wa, pb @ wb
            ta, tb = np.trace(pa, axis1=-2, axis2=-1), np.trace(pb, axis1=-2, axis2=-1)
            gaps.append(np.abs(ta - tb) / (1.0 + np.maximum(np.abs(ta), np.abs(tb))))
    return np.stack(gaps)


def _largest_gap(gaps, samples):
    """The first trace gap that is not finite, else the largest, and ``tr(word) at t=...``."""
    index = np.unravel_index(np.argmax(np.where(np.isfinite(gaps), gaps, np.inf)), gaps.shape)
    m, j, i = index
    word = "kappa" if j == 0 else f"h_{j}"
    if m:
        word = f"{word}^{m + 1}"
    return gaps[index], f"tr({word}) at t={samples[i]!r}"


def _reduced_coefficients(curve, times, w):
    """``Q_j = X h_(j-2) X^-1`` of the normal frame ``A X^-1`` through the first sample.

    For n = 1 conjugation is the identity, so nothing is integrated.
    """
    if curve.n == 1:
        return w
    x = normalizer(curve, times)
    return x @ w @ np.linalg.inv(x)


def _first_normal_lift(fj):
    """The normal lift at the first sample of the batched ``fj``, from its cached ``P_1``."""
    p1 = ode_coefficients(fj)[0]
    y = normalizing_jet(MatrixJet(p1.base_time[:1], p1.coeffs[:1]))
    first = FrameJet(MatrixJet(fj.base_time[:1], fj.jet.coeffs[:1]))
    return first.right_multiplied(y).juxtaposed.value()[0]


def are_congruent(curve_a, curve_b, samples, tol=DEFAULT_SPAN_TOL, seed=0):
    """Decide congruence of two fanning curves from sampled invariants.

    Each curve's frame jets of order 2k-1 are built once, A's first, and
    checked for fanning at every sample.  Their invariants decide first:
    when :func:`trace_gaps` exceeds ``tol`` anywhere, the curves are not
    congruent and nothing is integrated; a gap that is not finite raises
    ``LinAlgError`` naming its word and time.  Otherwise the normal frames'
    ``Q_j`` values, the invariants conjugated by :func:`normalizer` (the
    invariants themselves for n = 1), feed :func:`simultaneous_conjugator`;
    on success the ambient transformation is reconstructed from the two
    normal lifts at the first sample and verified against the sampled
    spans of the curves.
    """
    if curve_a.k != curve_b.k or curve_a.n != curve_b.n:
        raise ValueError("curves live in different Grassmannians")
    samples = tuple(np.asarray(samples, dtype=float).tolist())
    if len(samples) < 2:
        raise ValueError("need at least two sample times")
    times = checked_grid(samples)
    k, n = curve_a.k, curve_a.n
    jets = []
    for curve in (curve_a, curve_b):
        fj = curve.frame_jets(times, 2 * k - 1)
        fj.require_fanning()
        jets.append(fj)
    # Every field but the verdict and the message, as a verdict reached
    # before the conjugator leaves them; each later stage updates its own.
    record = dict(samples=samples, conjugator=None, ambient=None, residuals=(),
                  span_distances=(), conjugator_condition=np.inf)
    # w[j - 2, i] is kappa (j = 2) or h_(j-2) at samples[i].
    wa, wb = (wilczynski_invariants(fj).values() for fj in jets)
    gaps = trace_gaps(wa, wb)
    if not np.max(gaps) <= tol:
        gap, site = _largest_gap(gaps, samples)
        if not np.isfinite(gap):
            raise np.linalg.LinAlgError(f"{site} is not finite")
        message = f"invariant traces differ: {site} by {gap:.3e} (relative)"
        return CongruenceWitness("not_congruent", message=message, **record)

    # q[j - 2, i] is Q_j at samples[i]: kappa, h_1 .. h_(k-2) of the normal
    # frame, whose P_1 vanishes.  The pairs run sample by sample.
    qa = _reduced_coefficients(curve_a, times, wa)
    qb = _reduced_coefficients(curve_b, times, wb)
    pairs = np.stack([qa, qb], axis=2).swapaxes(0, 1).reshape(-1, 2, n, n)
    x = simultaneous_conjugator(pairs, seed=seed)
    if x is None:
        message = "no common conjugator for the sampled invariants"
        return CongruenceWitness("not_congruent", message=message, **record)
    x_cond = float(np.linalg.cond(x))
    if not x_cond < DEFAULT_CONDITION_LIMIT:
        record.update(conjugator_condition=x_cond)
        message = f"only ill-conditioned conjugators found (condition {x_cond:.3e})"
        return CongruenceWitness("inconclusive", message=message, **record)

    residuals = np.max(np.abs(qa @ x - x @ qb), axis=(0, 2, 3))

    # T maps the X-adjusted normal lift of A at the first sample onto that
    # of B, and must then map the sampled planes of A onto those of B.  The
    # normalizing change is the identity at the first sample, so the lifts
    # there are those of the normal frames anchored there, from the batch's P_1.
    x_block = np.kron(np.eye(k), x)
    lift_a, lift_b = (_first_normal_lift(fj) for fj in jets)
    ambient = lift_b @ np.linalg.inv(lift_a @ x_block)
    spans = span_distance(ambient @ jets[0].jet.value(), jets[1].jet.value())
    record.update(
        conjugator=x,
        ambient=ambient,
        residuals=tuple(residuals.tolist()),
        span_distances=tuple(spans.tolist()),
        conjugator_condition=x_cond,
    )

    invariant_scale = 1.0 + np.max(np.abs(qa))
    if not (np.max(residuals) <= tol * invariant_scale and np.max(spans) <= tol):
        message = "conjugator found but verification failed"
        return CongruenceWitness("not_congruent", message=message, **record)
    return CongruenceWitness("congruent", message="", **record)


def canonicalize_jet(fj):
    """Standardize a fanning jet; returns ``(standard_jet, ambient_map)``.

    The frame is first made normal by the jet frame change equal to the
    identity at the base time, then left-multiplied by the inverse of its
    juxtaposed value, so the output has derivative blocks
    ``A^(j)(t0) = E_j`` up to order k-1, vanishing ``P_1`` and base plane
    spanned by the leading coordinate block.  Orbit data beyond the
    input's order is fixed by a zero extension of the input jet, which
    leaves all entries that depend on the first k+1 derivatives
    unchanged.
    """
    require_order(fj.order, fj.k + 1, "canonicalization")
    normal = normalized_frame_jet(fj.extended_with_zeros(2 * fj.k + 2))
    ambient = np.linalg.inv(normal.juxtaposed.value())
    return normal.left_multiplied(ambient), ambient


@dataclass(frozen=True, eq=False)
class OrbitCoordinates:
    """Entries coordinatizing the orbit of a (k+1)-jet.

    The list ``((k-1) kappa, C(k-1,2)(h_1 - kappa'), ...,
    (h_(k-2) - h_(k-3)'))`` evaluated at the base time of the
    standardized jet; each entry is an n x n matrix.
    """

    base_time: float
    entries: tuple


def orbit_coordinates(fj):
    """Orbit coordinates of a (k+1)-jet, via internal canonicalization.

    They are :func:`~fanning.invariants.orbit_entries` of the standardized
    jet, whose ``P_1`` vanishes; every entry uses at most one derivative of
    its invariants.
    """
    standard, _ = canonicalize_jet(fj)
    return OrbitCoordinates(base_time=fj.base_time, entries=orbit_entries(standard))
