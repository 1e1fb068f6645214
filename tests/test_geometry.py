import math

import numpy as np
import pytest

from navstack.geometry import (
    point_rect_distance,
    point_segment_distance,
    ray_disc_hits,
    ray_segment_hits,
    rect_edges,
    segment_terms,
    supercover_cells,
)


def test_rect_edges_close_the_loop():
    edges = rect_edges((0.0, 0.0, 2.0, 1.0))
    assert len(edges) == 4
    assert edges[0][:2] == (0.0, 0.0)
    assert edges[-1][2:] == (0.0, 0.0)


def test_ray_segment_perpendicular_hit():
    segs = np.array([[2.0, -1.0, 2.0, 1.0]])
    t = ray_segment_hits(0.0, 0.0, np.array([1.0]), np.array([0.0]), segment_terms(segs))
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_ray_segment_miss_behind():
    segs = np.array([[-2.0, -1.0, -2.0, 1.0]])
    assert np.isinf(ray_segment_hits(0.0, 0.0, np.array([1.0]), np.array([0.0]), segment_terms(segs))).all()


def test_ray_segment_hits_is_segments_by_rays():
    # Three rays (+x, +y, -x) against a wall at x = 2 and a floor at y = 3.
    segs = np.array([[2.0, -1.0, 2.0, 1.0], [-5.0, 3.0, 5.0, 3.0]])
    t = ray_segment_hits(0.0, 0.0, np.array([1.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0]), segment_terms(segs))
    assert t.shape == (2, 3)
    assert t[0, 0] == pytest.approx(2.0) and np.isinf(t[0, 1:]).all()
    assert t[1, 1] == pytest.approx(3.0) and np.isinf(t[1, [0, 2]]).all()
    empty = ray_segment_hits(0.0, 0.0, np.ones(3), np.zeros(3), segment_terms(np.zeros((0, 4))))
    assert empty.shape == (0, 3)


def test_ray_disc_front_and_inside():
    origin = np.zeros(2)
    dirs = np.array([[1.0, 0.0]])
    centers = np.array([[3.0, 0.0]])
    radii = np.array([0.5])
    t = ray_disc_hits(origin, dirs, centers, radii)
    assert t[0, 0] == pytest.approx(2.5, abs=1e-12)
    # starting inside reports the exit, which is still positive
    t_in = ray_disc_hits(np.array([3.0, 0.0]), dirs, centers, radii)
    assert t_in[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_ray_disc_hits_is_discs_by_rays():
    # Three rays (+x, +y, -x) against a disc on the x axis and one on the y axis.
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    t = ray_disc_hits(np.zeros(2), dirs, np.array([[3.0, 0.0], [0.0, 5.0]]), np.array([0.5, 1.0]))
    assert t.shape == (2, 3)
    assert t[0, 0] == pytest.approx(2.5) and np.isinf(t[0, 1:]).all()
    assert t[1, 1] == pytest.approx(4.0) and np.isinf(t[1, [0, 2]]).all()
    empty = ray_disc_hits(np.zeros(2), dirs, np.zeros((0, 2)), np.zeros(0))
    assert empty.shape == (0, 3)


def test_point_distances():
    assert point_segment_distance(0, 1, -1, 0, 1, 0) == pytest.approx(1.0)
    assert point_segment_distance(5, 0, -1, 0, 1, 0) == pytest.approx(4.0)
    assert point_rect_distance(0.5, 0.5, (0, 0, 1, 1)) == 0.0
    assert point_rect_distance(2, 0.5, (0, 0, 1, 1)) == pytest.approx(1.0)
    assert point_rect_distance(2, 2, (0, 0, 1, 1)) == pytest.approx(math.sqrt(2))


def _sampled_cells(p0, p1, origin, res, n=4000):
    cells = set()
    for i in range(n + 1):
        t = i / n
        x = p0[0] + t * (p1[0] - p0[0])
        y = p0[1] + t * (p1[1] - p0[1])
        cells.add((math.floor((y - origin[1]) / res), math.floor((x - origin[0]) / res)))
    return cells


def test_supercover_contains_dense_samples():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p0 = tuple(rng.uniform(0, 5, 2))
        p1 = tuple(rng.uniform(0, 5, 2))
        cover = set(supercover_cells(p0, p1, (0.0, 0.0), 0.1))
        sampled = _sampled_cells(p0, p1, (0.0, 0.0), 0.1)
        assert sampled <= cover


def test_supercover_endpoints_present():
    cover = supercover_cells((0.05, 0.05), (0.95, 0.35), (0.0, 0.0), 0.1)
    assert cover[0] == (0, 0)
    assert (3, 9) in cover


def test_supercover_degenerate_point():
    assert supercover_cells((0.25, 0.25), (0.25, 0.25), (0.0, 0.0), 0.1) == [(2, 2)]
