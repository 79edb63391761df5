"""Dense linear-algebra helpers: rank, nullspaces and subspace geometry."""

import numpy as np
import scipy.linalg


def numeric_rank(m, rtol=1e-8):
    """Rank from a rank-revealing (pivoted) QR with relative threshold ``rtol``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0
    r = scipy.linalg.qr(m, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > rtol * diag[0]))


def orthonormal_columns(m, rtol=1e-10):
    """Orthonormal basis of the column span, via SVD."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    rank = int(np.count_nonzero(s > rtol * s[0]))
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


def eigenvalue_multiplicity(m, eigenvalue, rtol=1e-8):
    """Geometric multiplicity of ``eigenvalue``, the nullity of ``m - lambda I``."""
    m = np.asarray(m, dtype=float)
    shifted = m - eigenvalue * np.eye(m.shape[0])
    return m.shape[0] - numeric_rank(shifted, rtol=rtol)


def eigenspace(m, eigenvalue, rtol=1e-8):
    """Orthonormal basis of the (numerical) eigenspace for ``eigenvalue``."""
    m = np.asarray(m, dtype=float)
    shifted = m - eigenvalue * np.eye(m.shape[0])
    return nullspace(shifted, rtol=rtol)
