"""Rank, nullspace and subspace-angle helpers."""

import numpy as np

from fanning.linalg import (
    eigenspace,
    eigenvalue_multiplicity,
    nullspace,
    numeric_rank,
    span_distance,
)


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


def test_nullspace_and_floor(rng):
    m = rng.standard_normal((4, 4))
    m[:, 3] = m[:, 0] + m[:, 1]
    ns = nullspace(m)
    assert ns.shape[1] == 1
    assert np.max(np.abs(m @ ns)) < 1e-12
    tiny = 1e-13 * rng.standard_normal((3, 3))
    assert nullspace(tiny, floor=1e-9).shape[1] == 3
    assert nullspace(np.zeros((2, 2))).shape[1] == 2


def test_nullspace_of_wide_matrix(rng):
    m = rng.standard_normal((3, 7))
    m[2] = m[0] - m[1]
    ns = nullspace(m)
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
