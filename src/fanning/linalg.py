"""Dense linear-algebra helpers: rank, nullspaces and subspace geometry.

Every rank counts the singular values above a threshold relative to the
largest one.
"""

import numpy as np

# Relative singular-value cut of numeric_rank and eigenvalue_multiplicity.
RANK_RTOL = 1e-8
# Relative singular-value cut of the column-span bases in span_distance.
SPAN_RTOL = 1e-10
# Relative singular-value cut of nullspace.
NULLSPACE_RTOL = 1e-9


def numeric_rank(m):
    """Number of singular values above ``RANK_RTOL`` times the largest.

    ``m`` is one matrix (an int is returned) or a stack of them (an int
    array, one count per matrix).
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    rank = np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)
    return int(rank) if m.ndim == 2 else rank


def span_distance(u, v):
    """sin of the largest principal angle between the column spans of u and v.

    ``u`` and ``v`` are one pair of matrices (a float is returned) or two
    stacks with the same leading axes (an array, one distance per pair).
    Each span's orthonormal basis is its left singular vectors above
    ``SPAN_RTOL`` times the largest singular value, padded with zero columns
    past the rank, so that the bases of a stack share one shape.  Returns 1.0
    for a pair whose spans have different dimensions.
    """
    bases, ranks = [], []
    for m in (u, v):
        w, s, _ = np.linalg.svd(np.atleast_2d(np.asarray(m, dtype=float)), full_matrices=False)
        kept = s > SPAN_RTOL * s[..., :1]
        bases.append(w * kept[..., None, :])
        ranks.append(np.count_nonzero(kept, axis=-1))
    uo, vo = bases
    resid = vo - uo @ (np.swapaxes(uo, -1, -2) @ vo)
    distance = np.where(ranks[0] == ranks[1], np.linalg.norm(resid, 2, axis=(-2, -1)), 1.0)
    return float(distance) if distance.ndim == 0 else distance


def nullspace(m, floor):
    """Columns spanning the numerical right nullspace of ``m``.

    Singular values at or below ``max(NULLSPACE_RTOL * sigma_max, floor)``
    count as zero; the absolute ``floor`` guards against operators that are
    numerically zero altogether, where a purely relative cut would report
    full rank, so every caller states it.  Tall
    inputs take the thin SVD, which never forms the rows x rows ``U``; wide
    ones need the full ``V``, whose extra rows span part of the nullspace.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = m.shape
    _, s, vt = np.linalg.svd(m, full_matrices=rows < cols)
    if s.size == 0:
        return np.eye(cols)
    cut = max(NULLSPACE_RTOL * s[0], floor)
    rank = int(np.count_nonzero(s > cut))
    return vt[rank:].T


def eigenvalue_multiplicity(m, eigenvalue):
    """Geometric multiplicity of ``eigenvalue``, the nullity of ``m - lambda I``.

    One count for one square matrix, an array of counts for a stack of them.
    ``eigenvalue`` may be a sequence: its counts, stacked on a new leading
    axis, then come from one batched SVD of all the shifts.
    """
    m = np.asarray(m, dtype=float)
    lam = np.asarray(eigenvalue, dtype=float)
    shifted = m - lam.reshape(lam.shape + (1,) * m.ndim) * np.eye(m.shape[-1])
    return m.shape[-1] - numeric_rank(shifted)
