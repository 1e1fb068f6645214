import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _segment_hits(ox, oy, cos, sin, segs):
    """``ray_segment_hits`` with inf where it reports no hit."""
    t, valid = ray_segment_hits(ox, oy, cos, sin, segment_terms(segs))
    assert valid.shape == t.shape and valid.dtype == bool
    return np.where(valid, t, np.inf)


def test_ray_segment_perpendicular_hit():
    segs = np.array([[2.0, -1.0, 2.0, 1.0]])
    t = _segment_hits(0.0, 0.0, np.array([1.0]), np.array([0.0]), segs)
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_ray_segment_miss_behind():
    segs = np.array([[-2.0, -1.0, -2.0, 1.0]])
    assert np.isinf(_segment_hits(0.0, 0.0, np.array([1.0]), np.array([0.0]), segs)).all()


def test_ray_segment_hits_is_segments_by_rays():
    # Three rays (+x, +y, -x) against a wall at x = 2 and a floor at y = 3.
    segs = np.array([[2.0, -1.0, 2.0, 1.0], [-5.0, 3.0, 5.0, 3.0]])
    t = _segment_hits(0.0, 0.0, np.array([1.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0]), segs)
    assert t.shape == (2, 3)
    assert t[0, 0] == pytest.approx(2.0) and np.isinf(t[0, 1:]).all()
    assert t[1, 1] == pytest.approx(3.0) and np.isinf(t[1, [0, 2]]).all()
    empty = _segment_hits(0.0, 0.0, np.ones(3), np.zeros(3), np.zeros((0, 4)))
    assert empty.shape == (0, 3)


def _ray_segment_hits_oracle(ox, oy, cos, sin, terms):
    """The kernel that wrote inf where there is no hit, kept verbatim."""
    a0, a1, e0, e1 = terms
    ao0 = a0 - ox
    ao1 = a1 - oy
    denom = cos * e1 - sin * e0  # cross(d, e)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = (ao0 * e1 - ao1 * e0) / denom
        u = (ao0 * sin - ao1 * cos) / denom
    valid = np.abs(denom) > 1e-12
    valid &= t > 1e-9
    valid &= u >= 0.0
    valid &= u <= 1.0
    t[~valid] = np.inf
    return t


_seg_coord = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 1e-10, 2.0, 1e300, -1e300, math.nan]))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_seg_coord, _seg_coord),
    st.floats(-10.0, 10.0),
    st.integers(1, 80),
    st.lists(st.tuples(_seg_coord, _seg_coord, _seg_coord, _seg_coord), max_size=8),
    st.booleans(),
)
def test_ray_segment_hits_matches_oracle_bit_for_bit(origin, heading, beams, segs, degenerate):
    """inf written where ``valid`` is false gives the old array's bits, and
    the masked minimum over axis 0 from a range of 6 equals the old plain
    minimum clamped to it; zero-length, parallel, NaN and huge segments
    included."""
    if segs and degenerate:
        segs[0] = segs[0][:2] * 2  # zero length
    angles = heading + 2.0 * np.pi * np.arange(beams) / beams
    cos, sin = np.cos(angles), np.sin(angles)
    terms = segment_terms(np.array(segs, dtype=float).reshape(-1, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        t, valid = ray_segment_hits(origin[0], origin[1], cos, sin, terms)
        want = _ray_segment_hits_oracle(origin[0], origin[1], cos, sin, terms)
    assert t.shape == valid.shape == (len(segs), beams)
    assert np.where(valid, t, np.inf).tobytes() == want.tobytes()
    got_min = t.min(axis=0, initial=6.0, where=valid)
    assert got_min.tobytes() == np.minimum(np.full(beams, 6.0), want.min(axis=0, initial=np.inf)).tobytes()


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
