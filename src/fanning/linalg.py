"""Dense linear-algebra helpers: rank, nullspaces and subspace geometry.

Every rank counts the singular values above a threshold relative to the
largest one.
"""

import numpy as np

# Relative singular-value cut of numeric_rank and eigenvalue_multiplicity.
RANK_RTOL = 1e-8
# Relative singular-value cut of the column-span bases in span_distance.
SPAN_RTOL = 1e-10


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


def orthonormal_columns(m):
    """Orthonormal basis of the column span, via SVD."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0:
        return u[:, :0]
    rank = int(np.count_nonzero(s > SPAN_RTOL * s[0]))
    return u[:, :rank]


def span_distance(u, v):
    """sin of the largest principal angle between the column spans of u and v.

    Returns 1.0 when the spans have different dimensions.
    """
    uo = orthonormal_columns(u)
    vo = orthonormal_columns(v)
    if uo.shape[1] != vo.shape[1]:
        return 1.0
    if uo.shape[1] == 0:
        return 0.0
    resid = vo - uo @ (uo.T @ vo)
    return float(np.linalg.norm(resid, 2))


def nullspace(m, rtol=1e-9, floor=0.0):
    """Columns spanning the numerical right nullspace of ``m``.

    Singular values at or below ``max(rtol * sigma_max, floor)`` count as
    zero; ``floor`` guards against operators that are numerically zero
    altogether, where a purely relative cut would report full rank.  Tall
    inputs take the thin SVD, which never forms the rows x rows ``U``; wide
    ones need the full ``V``, whose extra rows span part of the nullspace.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = m.shape
    _, s, vt = np.linalg.svd(m, full_matrices=rows < cols)
    if s.size == 0:
        return np.eye(cols)
    cut = max(rtol * s[0], floor)
    rank = int(np.count_nonzero(s > cut))
    return vt[rank:].T


def eigenvalue_multiplicity(m, eigenvalue):
    """Geometric multiplicity of ``eigenvalue``, the nullity of ``m - lambda I``.

    One count for one square matrix, an array of counts for a stack of them.
    """
    m = np.asarray(m, dtype=float)
    shifted = m - eigenvalue * np.eye(m.shape[-1])
    return m.shape[-1] - numeric_rank(shifted)
