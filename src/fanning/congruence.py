"""Congruence decision, canonical jets and orbit coordinates.

Two fanning curves are congruent exactly when a single constant ambient
transformation maps one onto the other; equivalently, when the invariants
``kappa, h_1 .. h_(k-2)`` of their normal frames are simultaneously
conjugate by one constant n x n matrix.  This module linearizes that
condition, reconstructs the ambient transformation from the normal
lifts, and canonicalizes jets to a standard form whose invariant entries
coordinatize the orbits of (k+1)-jets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import InsufficientOrderError
from .invariants import normal_frame, normalizing_jet, ode_coefficients
from .jets import DEFAULT_CONDITION_LIMIT
from .linalg import nullspace, span_distance

DEFAULT_CONJUGATOR_RTOL = 1e-9
DEFAULT_SPAN_TOL = 1e-7


def simultaneous_conjugator(
    pairs,
    rtol=DEFAULT_CONJUGATOR_RTOL,
    seed=0,
    attempts=20,
    condition_limit=DEFAULT_CONDITION_LIMIT,
):
    """A constant invertible ``X`` with ``M X = X N`` for every pair, or None.

    The intertwining conditions stack into one linear system on the n^2
    unknowns; its SVD nullspace is searched for a well-conditioned
    element, first along the basis vectors and then along seeded random
    combinations.  Singular values below ``rtol * sigma_max`` count as
    zero, with an absolute floor of ``rtol`` times the input magnitude so
    that a numerically vanishing system (equal invariants) reads as all
    nullspace rather than as full rank.  Returns the best-conditioned
    candidate found; ``None`` when the nullspace is trivial.  Absence of
    an invertible solution is a valid outcome, not an error.
    """
    if len(pairs) == 0:
        raise ValueError("at least one matrix pair is required")
    n = np.asarray(pairs[0][0]).shape[0]
    eye = np.eye(n)
    blocks = []
    scale = 1.0
    for m, nn in pairs:
        m = np.asarray(m, dtype=float)
        nn = np.asarray(nn, dtype=float)
        if m.shape != (n, n) or nn.shape != (n, n):
            raise ValueError("all pairs must be square matrices of one size")
        scale = max(scale, np.max(np.abs(m)), np.max(np.abs(nn)))
        # Row-major vec: vec(M X - X N) = (M kron I - I kron N^T) vec(X).
        blocks.append(np.kron(m, eye) - np.kron(eye, nn.T))
    basis = nullspace(np.vstack(blocks), rtol=rtol, floor=rtol * scale)
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
    for _ in range(attempts):
        if best_cond < condition_limit:
            break
        x, cond = candidate(rng.standard_normal(basis.shape[1]))
        if cond < best_cond:
            best, best_cond = x, cond
    return best


@dataclass(frozen=True, eq=False)
class CongruenceWitness:
    """Outcome of a congruence test.

    ``verdict`` is one of ``congruent``, ``not_congruent``, ``inconclusive``.
    When congruent, ``conjugator`` is the constant n x n matrix relating the
    normal-frame invariants and ``ambient`` the reconstructed kn x kn
    transformation; ``residuals`` holds per-sample max-abs conjugation
    defects and ``span_distances`` the subspace distances after applying
    the ambient map.
    """

    verdict: str
    conjugator: np.ndarray | None
    ambient: np.ndarray | None
    samples: tuple
    residuals: tuple
    span_distances: tuple
    conjugator_condition: float
    message: str = ""


def _refused(verdict, samples, message, condition=np.inf):
    return CongruenceWitness(
        verdict=verdict,
        conjugator=None,
        ambient=None,
        samples=tuple(samples),
        residuals=(),
        span_distances=(),
        conjugator_condition=condition,
        message=message,
    )


def _normal_invariant_values(curve, samples, jets, jet_order):
    """Per-sample invariant values of the normal frame started at samples[0].

    ``values[i]`` lists ``kappa, h_1, ..., h_(k-2)`` of the normal frame
    at ``samples[i]``; with ``P_1 = 0`` these are its coefficients
    ``P_2 .. P_k``, which the normalization record already carries.
    """
    record = normal_frame(curve, samples, jet_order=jet_order, jets=jets)
    count = len(record.times)
    return [
        [record.q[j][i] for j in range(curve.k - 1)] for i in range(count)
    ]


def are_congruent(
    curve_a,
    curve_b,
    samples,
    tol=DEFAULT_SPAN_TOL,
    seed=0,
    conjugator_rtol=DEFAULT_CONJUGATOR_RTOL,
    condition_limit=DEFAULT_CONDITION_LIMIT,
    jet_order=None,
):
    """Decide congruence of two fanning curves from sampled invariants.

    Normal-frame invariants of both curves are collected on the sample
    grid and fed to :func:`simultaneous_conjugator`; on success the
    ambient transformation is reconstructed from the two normal lifts at
    the first sample and verified against the sampled spans.
    """
    if curve_a.k != curve_b.k or curve_a.n != curve_b.n:
        raise ValueError("curves live in different Grassmannians")
    samples = tuple(float(t) for t in samples)
    if len(samples) < 2:
        raise ValueError("need at least two sample times")
    k = curve_a.k
    if jet_order is None:
        # The invariant values need the normal frame's coefficients only
        # at order zero, which a frame jet of order 2k-1 already pins.
        jet_order = 2 * k - 1

    jets_a = curve_a.frame_jets(samples, jet_order)
    jets_b = curve_b.frame_jets(samples, jet_order)
    vals_a = _normal_invariant_values(curve_a, samples, jets_a, jet_order)
    vals_b = _normal_invariant_values(curve_b, samples, jets_b, jet_order)

    pairs = []
    for va, vb in zip(vals_a, vals_b):
        pairs.extend(zip(va, vb))
    x = simultaneous_conjugator(
        pairs, rtol=conjugator_rtol, seed=seed, condition_limit=condition_limit
    )
    if x is None:
        return _refused(
            "not_congruent", samples, "no common conjugator for the sampled invariants"
        )
    x_cond = float(np.linalg.cond(x))
    if not x_cond < condition_limit:
        return _refused(
            "inconclusive",
            samples,
            f"only ill-conditioned conjugators found (condition {x_cond:.3e})",
            condition=x_cond,
        )

    residuals = tuple(
        float(max(np.max(np.abs(ma @ x - x @ mb)) for ma, mb in zip(va, vb)))
        for va, vb in zip(vals_a, vals_b)
    )

    # Normal lifts at the first sample: T maps the X-adjusted lift of A
    # onto the lift of B, and must then map sampled spans onto spans.
    jux_a = _normal_juxtaposed(jets_a[0])
    jux_b = _normal_juxtaposed(jets_b[0])
    x_block = np.kron(np.eye(k), x)
    ambient = jux_b @ np.linalg.inv(jux_a @ x_block)

    spans = tuple(
        float(span_distance(ambient @ ja.jet.value(), jb.jet.value()))
        for ja, jb in zip(jets_a, jets_b)
    )
    invariant_scale = 1.0 + max(
        max(np.max(np.abs(m)) for m in va) for va in vals_a
    )
    max_residual = max(residuals) if residuals else 0.0
    max_span = max(spans) if spans else 0.0
    if max_residual > tol * invariant_scale or max_span > tol:
        return CongruenceWitness(
            verdict="not_congruent",
            conjugator=x,
            ambient=ambient,
            samples=samples,
            residuals=residuals,
            span_distances=spans,
            conjugator_condition=x_cond,
            message="conjugator found but verification failed",
        )
    return CongruenceWitness(
        verdict="congruent",
        conjugator=x,
        ambient=ambient,
        samples=samples,
        residuals=residuals,
        span_distances=spans,
        conjugator_condition=x_cond,
        message="",
    )


def _normal_juxtaposed(fj):
    fj.require_fanning()
    p1 = ode_coefficients(fj)[0]
    bjet = fj.right_multiplied(normalizing_jet(p1))
    return bjet.juxtaposed.value()


def canonicalize_jet(fj, extension_order=None):
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
    k = fj.k
    if fj.order < k + 1:
        raise InsufficientOrderError(
            f"canonicalization needs jet order >= {k + 1}, have {fj.order}"
        )
    fj.require_fanning()
    if extension_order is None:
        extension_order = max(fj.order, 2 * k + 2)
    extended = fj.extended_with_zeros(extension_order)
    p1 = ode_coefficients(extended)[0]
    normal = extended.right_multiplied(normalizing_jet(p1))
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

    def max_abs_difference(self, other):
        return max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(self.entries, other.entries)
        )


def orbit_coordinates(fj):
    """Orbit coordinates of a (k+1)-jet, via internal canonicalization.

    Computed from the standardized jet's equation coefficients: with
    ``P_1 = 0`` the invariants are ``kappa = P_2`` and ``h_j = P_(j+2)``,
    and every entry uses at most one derivative of them.
    """
    k = fj.k
    standard, _ = canonicalize_jet(fj)
    p = ode_coefficients(standard)
    entries = [(k - 1) * p[1].value()]
    for j in range(2, k):
        entry = p[j].value() - p[j - 1].derivative_value(1)
        entries.append(math.comb(k - 1, j) * entry)
    return OrbitCoordinates(base_time=fj.base_time, entries=tuple(entries))
