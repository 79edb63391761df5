"""Rank, nullspace and subspace-angle helpers."""

import numpy as np

from fanning.linalg import (
    eigenvalue_multiplicity,
    nullspace,
    numeric_rank,
    span_distance,
)
from conftest import eigenspace


def test_numeric_rank_detects_near_dependence(rng):
    a = rng.standard_normal((5, 3))
    m = np.hstack([a, a @ rng.standard_normal((3, 2))])
    assert numeric_rank(m) == 3
    m_noisy = m + 1e-12 * rng.standard_normal(m.shape)
    assert numeric_rank(m_noisy) == 3


def test_span_distance_basic():
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    v = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert abs(span_distance(u, u)) < 1e-14
    assert abs(span_distance(u, v) - 1.0) < 1e-12
    w = np.array([[1.0], [0.0], [0.0]])
    assert span_distance(u, w) == 1.0  # dimension mismatch


def test_span_distance_of_a_stack_is_per_pair(rng):
    """A stack of pairs gives each pair's own distance, bit for bit."""
    a, b = rng.standard_normal((2, 4, 1))
    us = rng.standard_normal((5, 4, 2))
    vs = rng.standard_normal((5, 4, 2))
    vs[1] = us[1] @ rng.standard_normal((2, 2))  # one span
    us[2], vs[2] = np.hstack([a, 2 * a]), np.hstack([b, -b])  # both of rank 1
    vs[3] = np.hstack([b, 3 * b])  # ranks 2 and 1
    us[4] = vs[4] = 0.0  # both of rank 0
    distances = span_distance(us, vs)
    np.testing.assert_array_equal(distances, [span_distance(u, v) for u, v in zip(us, vs)])
    assert distances[1] < 1e-14
    assert 0.0 < distances[2] < 1.0
    assert distances[3] == 1.0
    assert distances[4] == 0.0


def test_nullspace_and_floor(rng):
    m = rng.standard_normal((4, 4))
    m[:, 3] = m[:, 0] + m[:, 1]
    ns = nullspace(m, floor=0.0)
    assert ns.shape[1] == 1
    assert np.max(np.abs(m @ ns)) < 1e-12
    tiny = 1e-13 * rng.standard_normal((3, 3))
    assert nullspace(tiny, floor=1e-9).shape[1] == 3
    assert nullspace(np.zeros((2, 2)), floor=0.0).shape[1] == 2


def test_nullspace_of_wide_matrix(rng):
    m = rng.standard_normal((3, 7))
    m[2] = m[0] - m[1]
    ns = nullspace(m, floor=0.0)
    assert ns.shape == (7, 5)
    assert np.max(np.abs(m @ ns)) < 1e-12
    np.testing.assert_allclose(ns.T @ ns, np.eye(5), atol=1e-12)


def test_eigen_helpers():
    d = np.diag([1.0, -1.0, -1.0])
    assert eigenvalue_multiplicity(d, -1.0) == 2
    assert eigenvalue_multiplicity(d, 1.0) == 1
    space = eigenspace(d, -1.0)
    assert space.shape[1] == 2
    assert np.max(np.abs(space[0, :])) < 1e-12


def test_counts_of_a_stack_are_per_matrix(rng):
    a = rng.standard_normal((5, 3))
    ms = np.array([np.hstack([a, a[:, :r] @ rng.standard_normal((r, 2))]) for r in (1, 2)])
    ms = np.concatenate([ms, rng.standard_normal((1, 5, 5))])
    ranks = numeric_rank(ms)
    assert ranks.tolist() == [numeric_rank(m) for m in ms] == [3, 3, 5]
    ds = np.array([np.diag(d) for d in ([1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [2.0, 3.0, 4.0])])
    assert eigenvalue_multiplicity(ds, -1.0).tolist() == [2, 1, 0]
    assert eigenvalue_multiplicity(ds, 1.0).tolist() == [1, 2, 0]


def test_counts_of_several_eigenvalues_come_from_one_svd(rng, monkeypatch):
    import fanning.linalg as linalg_mod

    ds = np.array([np.diag(d) for d in ([1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [2.0, 3.0, 4.0])])
    moved = ds @ rng.standard_normal((3, 3))
    expected = [eigenvalue_multiplicity(m, lam).tolist() for m in (ds, moved) for lam in (-1.0, 1.0)]
    calls = []
    rank = linalg_mod.numeric_rank

    def counted(m):
        calls.append(m.shape)
        return rank(m)

    monkeypatch.setattr(linalg_mod, "numeric_rank", counted)
    counts = [eigenvalue_multiplicity(m, (-1.0, 1.0)) for m in (ds, moved)]
    assert [c.tolist() for pair in counts for c in pair] == expected
    assert calls == [(2, 3, 3, 3)] * 2
    assert eigenvalue_multiplicity(ds[0], (-1.0, 1.0)).tolist() == [2, 1]
