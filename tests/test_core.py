"""Tests for pointwise axis analysis: labels, sliding field, equilibria, tangencies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filippov.acceptance import _random_system
from filippov.core import (
    AffineField,
    FilippovSystem,
    RawSystem,
    RegionLabel,
    SLIDING_LABELS,
    axis_breakpoints,
    classify_point,
    crossing_sets,
    equilibrium_info,
    normalize_to_y_axis,
    pseudo_equilibria,
    sigma_decomposition,
    sliding_field,
    tangency_points,
)
from filippov.errors import (
    DegenerateField,
    FilippovError,
    NotSlidingRegion,
    VelocityOverflow,
    ZeroNormal,
)


def _helper_canonical_system(alpha, beta, gamma1, delta, gamma2, gamma3, eta, rho):
    right = AffineField([[2 * alpha, 1.0], [-1 - alpha * alpha, 0.0]], [0.0, beta])
    left = AffineField([[gamma1, delta], [gamma2, gamma3]], [eta, rho])
    return FilippovSystem(left=left, right=right)


def _helper_scenario_system(alpha, rho):
    # Right half: standard focus block; left half: fixed focus with offset (1, rho).
    return _helper_canonical_system(alpha, 1.0, 2.0, 1.0, -2.0, 0.0, 1.0, rho)


def test_classify_point_examples():
    sys = _helper_scenario_system(0.5, -1.0)
    assert classify_point(sys, -0.5) is RegionLabel.ATTRACTIVE_SLIDING
    assert classify_point(sys, 0.0) is RegionLabel.TANGENCY_RIGHT
    assert classify_point(sys, 1.0) is RegionLabel.CROSSING
    assert classify_point(sys, -1.0) is RegionLabel.TANGENCY_LEFT
    assert classify_point(sys, -3.0) is RegionLabel.CROSSING


def test_classify_boundary_equilibrium_precedence():
    # Right field vanishes at (0, 1); that beats the tangency tag.
    right = AffineField([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.0])
    left = AffineField([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    sys = FilippovSystem(left=left, right=right)
    assert classify_point(sys, 1.0) is RegionLabel.BOUNDARY_EQUILIBRIUM_RIGHT


def test_classify_singular_sliding_vs_tangency_both():
    # Both x-velocities vanish at y=0 with opposite slopes: seam point.
    right = AffineField([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0])
    left = AffineField([[0.0, -1.0], [0.0, 0.0]], [0.0, 1.0])
    sys = FilippovSystem(left=left, right=right)
    assert classify_point(sys, 0.0) is RegionLabel.SINGULAR_SLIDING
    # Equal slopes: isolated double contact inside a crossing zone.
    left2 = AffineField([[0.0, 2.0], [0.0, 0.0]], [0.0, 1.0])
    sys2 = FilippovSystem(left=left2, right=right)
    assert classify_point(sys2, 0.0) is RegionLabel.TANGENCY_BOTH


def test_sliding_field_examples():
    sys = _helper_scenario_system(0.5, -1.0)
    assert sliding_field(sys, -0.5) == pytest.approx(0.0, abs=1e-14)
    # On the sliding band the field reduces to 2y+1 for rho=-1.
    assert sliding_field(sys, -0.2) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(NotSlidingRegion):
        sliding_field(sys, 1.0)


def test_sliding_field_at_tangency_matches_one_sided_field():
    sys = _helper_scenario_system(0.5, -1.0)
    # At the right tangency the combination collapses onto the right field.
    assert sliding_field(sys, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_pseudo_equilibria_examples():
    sys = _helper_scenario_system(0.5, -1.0)
    pes = pseudo_equilibria(sys)
    assert len(pes) == 1
    np.testing.assert_allclose(pes[0], [0.0, -0.5], atol=1e-12)

    sys3 = _helper_scenario_system(0.5, -3.0)
    pes3 = pseudo_equilibria(sys3)
    assert len(pes3) == 1
    np.testing.assert_allclose(pes3[0], [0.0, -0.25], atol=1e-12)

    # delta=0 with gamma3=0 and rho>0: the sliding-field zero sits in the
    # crossing zone, so no pseudo-equilibrium is reported.
    sys0 = _helper_canonical_system(1.0, 1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0)
    assert pseudo_equilibria(sys0) == []


def test_equilibrium_info_examples():
    right = AffineField([[2.0, 1.0], [-2.0, 0.0]], [0.0, 1.0])
    info = equilibrium_info(right, "right")
    assert info.location == pytest.approx((0.5, -1.0))
    assert (info.kind, info.stability, info.placement) == ("focus", "unstable", "admissible")

    left = AffineField([[2.0, 1.0], [-2.0, 0.0]], [1.0, -1.0])
    info_l = equilibrium_info(left, "left")
    assert info_l.location == pytest.approx((-0.5, 0.0))
    assert (info_l.kind, info_l.stability, info_l.placement) == ("focus", "unstable", "admissible")

    rot = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])
    info_c = equilibrium_info(rot, "right")
    assert (info_c.kind, info_c.stability, info_c.placement) == ("center", "neutral", "boundary")


def test_equilibrium_info_saddle_and_node():
    saddle = AffineField([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])
    info = equilibrium_info(saddle, "left")
    assert info.kind == "saddle"
    node = AffineField([[-1.0, 0.0], [0.0, -2.0]], [1.0, 0.0])
    info_n = equilibrium_info(node, "right")
    assert (info_n.kind, info_n.stability, info_n.placement) == ("node", "stable", "admissible")


def test_equilibrium_info_degenerate_raises():
    deg = AffineField([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0])
    with pytest.raises(DegenerateField):
        equilibrium_info(deg, "right")


def test_equilibrium_placement_flips_under_mirror():
    rng = np.random.default_rng(7)
    K = np.diag([-1.0, 1.0])
    for _ in range(25):
        A = rng.uniform(-2, 2, size=(2, 2))
        b = rng.uniform(-2, 2, size=2)
        f = AffineField(A, b)
        if f.is_degenerate:
            continue
        g = AffineField(K @ A @ K, K @ b)
        fi = equilibrium_info(f, "right")
        gi = equilibrium_info(g, "left")
        assert fi.placement == gi.placement
        assert (fi.kind, fi.stability) == (gi.kind, gi.stability)


def test_tangency_points_examples():
    sys = _helper_scenario_system(0.5, -1.0)
    tps = tangency_points(sys)
    assert len(tps) == 2
    tl, tr = tps
    assert tl.side == "left" and tl.visibility == "visible"
    assert tl.y == pytest.approx(-1.0)
    assert tr.side == "right" and tr.visibility == "visible"
    assert tr.y == pytest.approx(0.0, abs=1e-14)

    # delta=0: constant left x-velocity, no left tangency.
    sys0 = _helper_canonical_system(0.1, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert all(t.side == "right" for t in tangency_points(sys0))

    flat = FilippovSystem(
        left=AffineField([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0]),
        right=AffineField([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0]),
    )
    assert tangency_points(flat) == []


def test_tangency_invisible_example():
    # Right field with downward curvature at its contact point: invisible.
    right = AffineField([[0.0, 1.0], [0.0, 0.0]], [0.0, -1.0])
    left = AffineField([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    tps = tangency_points(FilippovSystem(left=left, right=right))
    (tr,) = tps
    assert tr.side == "right" and tr.visibility == "invisible"


def test_tangency_excludes_boundary_equilibrium():
    right = AffineField([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])  # vanishes at origin
    left = AffineField([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    tps = tangency_points(FilippovSystem(left=left, right=right))
    assert tps == []


def test_sigma_decomposition_scenario():
    sys = _helper_scenario_system(0.5, -1.0)
    dec = sigma_decomposition(sys)
    labels = [iv.label for iv in dec.intervals]
    assert labels == [
        RegionLabel.CROSSING,
        RegionLabel.ATTRACTIVE_SLIDING,
        RegionLabel.CROSSING,
    ]
    assert dec.intervals[0].hi == pytest.approx(-1.0)
    assert dec.intervals[1].hi == pytest.approx(0.0, abs=1e-14)
    assert [lab for _, lab in dec.points] == [
        RegionLabel.TANGENCY_LEFT,
        RegionLabel.TANGENCY_RIGHT,
    ]


def test_sigma_decomposition_delta0():
    # Constant positive left x-velocity: single crossing interval above the
    # right tangency, attractive sliding below, no left breakpoint.
    sys = _helper_canonical_system(0.1, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    dec = sigma_decomposition(sys)
    crossing = [iv for iv in dec.intervals if iv.label is RegionLabel.CROSSING]
    assert len(crossing) == 1
    assert len(dec.points) == 1 and dec.points[0][0] == pytest.approx(0.0, abs=1e-14)
    assert dec.intervals[0].label is RegionLabel.ATTRACTIVE_SLIDING


def test_sigma_decomposition_identical_fields_all_crossing():
    f = AffineField([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0])
    dec = sigma_decomposition(FilippovSystem(left=f, right=f))
    assert all(iv.label is RegionLabel.CROSSING for iv in dec.intervals)


@pytest.mark.parametrize("scale", [1.0, 1e10, 1e16, 1e20, 1e300])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sigma_decomposition_labels_far_half_lines_by_an_interior_probe(scale, sign):
    # tangencies at y = sign * scale and 1.5 * sign * scale: from about 1e16
    # on, a unit step off the outer one rounds back onto it
    rot = [[0.0, 1.0], [-1.0, 0.0]]
    right = AffineField(rot, [-sign * scale, 1.0])
    left = AffineField(rot, [-1.5 * sign * scale, 1.0])
    dec = sigma_decomposition(FilippovSystem(left=left, right=right))
    assert [iv.label for iv in dec.intervals] == [
        RegionLabel.CROSSING,
        RegionLabel.REPULSIVE_SLIDING if sign > 0 else RegionLabel.ATTRACTIVE_SLIDING,
        RegionLabel.CROSSING,
    ]


def test_sigma_intervals_cover_axis_in_order():
    sys = _helper_scenario_system(0.3, -2.0)
    dec = sigma_decomposition(sys)
    assert dec.intervals[0].lo == -np.inf
    assert dec.intervals[-1].hi == np.inf
    for a, b in zip(dec.intervals[:-1], dec.intervals[1:]):
        assert a.hi == b.lo


def _helper_raw_from_axis_system(sys, c, d):
    """Embed an axis-normalized system as a RawSystem with line c.z + d = 0."""
    c1, c2 = c
    if c1 != 0.0:
        B = np.array([[1.0 / c1, -c2 / c1], [0.0, 1.0]])
    else:
        B = np.array([[0.0, 1.0], [1.0 / c2, 0.0]])
    nu = np.array([-d, 0.0])

    def embed(f):
        A_raw = B @ f.A @ np.linalg.inv(B)
        b_raw = B @ (f.b - f.A @ nu)
        return AffineField(A_raw, b_raw)

    return RawSystem(plus=embed(sys.right), minus=embed(sys.left), c=np.array(c), d=d)


def test_normalize_identity_when_already_axis():
    sys = _helper_scenario_system(0.5, -1.0)
    raw = RawSystem(plus=sys.right, minus=sys.left, c=np.array([1.0, 0.0]), d=0.0)
    out, rec = normalize_to_y_axis(raw)
    np.testing.assert_allclose(out.right.A, sys.right.A, atol=1e-14)
    np.testing.assert_allclose(out.left.b, sys.left.b, atol=1e-14)
    np.testing.assert_allclose(rec.push([0.3, -0.7]), [0.3, -0.7], atol=1e-14)


def test_normalize_swap_branch():
    sys = _helper_scenario_system(0.5, -1.0)
    raw = _helper_raw_from_axis_system(sys, (0.0, 1.0), 0.0)
    out, rec = normalize_to_y_axis(raw)
    np.testing.assert_allclose(out.right.A, sys.right.A, atol=1e-12)
    np.testing.assert_allclose(out.left.A, sys.left.A, atol=1e-12)
    # Raw points on the line y=0 land on the new axis, and the record undoes itself.
    for x in (-1.5, 0.0, 2.0):
        w = rec.push([x, 0.0])
        assert abs(w[0]) < 1e-12
        assert rec.pullback_axis(w[1]) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rec.pullback(w), [x, 0.0], atol=1e-12)
    for z in ((0.3, -0.7), (-2.0, 1.5)):
        np.testing.assert_allclose(rec.pullback(rec.push(z)), z, atol=1e-12)


def test_normalize_general_line():
    sys = _helper_scenario_system(0.5, -1.0)
    raw = _helper_raw_from_axis_system(sys, (2.0, -1.0), 3.0)
    out, rec = normalize_to_y_axis(raw)
    np.testing.assert_allclose(out.right.A, sys.right.A, atol=1e-12)
    np.testing.assert_allclose(out.right.b, sys.right.b, atol=1e-12)
    np.testing.assert_allclose(out.left.A, sys.left.A, atol=1e-12)
    np.testing.assert_allclose(out.left.b, sys.left.b, atol=1e-12)
    # Three sampled points with H(z)=0 land on x=0.
    for y in (-1.0, 0.25, 2.0):
        z_raw = np.linalg.solve(np.array([[2.0, -1.0], [0.0, 1.0]]), np.array([-3.0, y]))
        assert abs(raw.H(z_raw)) < 1e-12
        w = rec.push(z_raw)
        assert abs(w[0]) < 1e-12
        assert rec.pullback_axis(w[1]) == pytest.approx(z_raw[1], abs=1e-12)
    for z in ((0.3, -0.7), (-2.0, 1.5), (4.0, 4.0)):
        np.testing.assert_allclose(rec.pullback(rec.push(z)), z, atol=1e-12)


def test_normalize_labels_match_embedded_system():
    sys = _helper_scenario_system(0.7, -2.5)
    raw = _helper_raw_from_axis_system(sys, (1.5, 0.5), -1.0)
    out, rec = normalize_to_y_axis(raw)
    for y in np.linspace(-4, 4, 41):
        assert classify_point(out, y) is classify_point(sys, y)


def test_normalize_zero_normal_raises():
    f = AffineField(np.eye(2), [0.0, 0.0])
    with pytest.raises(ZeroNormal):
        RawSystem(plus=f, minus=f, c=np.array([0.0, 0.0]), d=1.0)


def test_partition_invariant_grid():
    sys = _helper_scenario_system(0.5, -1.0)
    ys = np.linspace(-50.0, 50.0, 10_000)
    for y in ys:
        lab = classify_point(sys, float(y))
        vp = sys.vx_right(float(y))
        vm = sys.vx_left(float(y))
        if lab is RegionLabel.CROSSING:
            assert vp * vm > 0.0
        elif lab is RegionLabel.ATTRACTIVE_SLIDING:
            assert vp < 0.0 < vm
        elif lab is RegionLabel.REPULSIVE_SLIDING:
            assert vm < 0.0 < vp


def test_filippov_identity_on_sliding_points():
    rng = np.random.default_rng(11)
    count = 0
    while count < 200:
        A_r = rng.uniform(-3, 3, size=(2, 2))
        A_l = rng.uniform(-3, 3, size=(2, 2))
        b_r = rng.uniform(-3, 3, size=2)
        b_l = rng.uniform(-3, 3, size=2)
        sys = FilippovSystem(left=AffineField(A_l, b_l), right=AffineField(A_r, b_r))
        y = float(rng.uniform(-5, 5))
        if classify_point(sys, y) not in SLIDING_LABELS:
            continue
        count += 1
        vp = sys.vx_right(y)
        vm = sys.vx_left(y)
        lam = vm / (vm - vp)
        assert 0.0 <= lam <= 1.0
        combo = lam * sys.right.velocity((0.0, y)) + (1 - lam) * sys.left.velocity((0.0, y))
        assert abs(combo[0]) < 1e-12
        assert sliding_field(sys, y) == pytest.approx(combo[1], rel=1e-10, abs=1e-12)


@settings(max_examples=60, derandomize=True)
@given(
    entries=st.lists(
        st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=12, max_size=12
    ),
    y=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_classify_point_total(entries, y):
    e = entries
    sys = FilippovSystem(
        left=AffineField([[e[0], e[1]], [e[2], e[3]]], [e[4], e[5]]),
        right=AffineField([[e[6], e[7]], [e[8], e[9]]], [e[10], e[11]]),
    )
    assert classify_point(sys, y) in RegionLabel


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_point_names_a_velocity_overflow():
    # the left x-velocity at (0, 1e300) is 1e310: it used to warn "overflow
    # encountered in matmul" and classify from an infinite velocity
    sys = FilippovSystem(
        left=AffineField([[0.0, 1e10], [-1.0, 0.0]], [1.0, 0.0]),
        right=AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]),
    )
    assert classify_point(sys, 1e280) is RegionLabel.CROSSING
    with pytest.raises(VelocityOverflow) as info:
        classify_point(sys, 1e300)
    assert isinstance(info.value, FilippovError) and isinstance(info.value, OverflowError)


def test_crossing_sets_match_the_pointwise_labels():
    rng = np.random.default_rng(17)
    both = 0
    for _ in range(300):
        M = rng.uniform(-3.0, 3.0, size=(2, 2, 3))
        sys = FilippovSystem(
            left=AffineField(M[0][:, :2], M[0][:, 2]),
            right=AffineField(M[1][:, :2], M[1][:, 2]),
        )
        launch, landing = crossing_sets(sys)
        same_sign = sys.right.A[0, 1] * sys.left.A[0, 1] > 0.0
        assert (launch is not None) == same_sign and (landing is not None) == same_sign
        if launch is None:
            continue
        both += 1
        # opposite half-lines, each bounded by one of the two tangencies
        assert math.inf in (launch[1], landing[1]) and -math.inf in (launch[0], landing[0])
        assert launch[1] != landing[1]
        for y in np.linspace(-8.0, 8.0, 81):
            y = float(y)
            crossing = classify_point(sys, y) is RegionLabel.CROSSING
            vp = sys.vx_right(y)
            assert (launch[0] < y < launch[1]) == (crossing and vp > 0.0)
            assert (landing[0] < y < landing[1]) == (crossing and vp < 0.0)
    assert both > 100


def test_axis_primitives_agree_on_a_root_beyond_the_float_range():
    # the right x-velocity 1e-320 * y + 1 vanishes at -1e320, which no float
    # holds: every primitive leaves that root out, and the axis is labeled
    sys = FilippovSystem(
        left=AffineField([[-1.0, 1.0], [-2.0, -0.5]], [1.0, 0.3]),
        right=AffineField([[0.2, 1e-320], [-1.0, 0.1]], [1.0, 0.5]),
    )
    assert sys.right.axis_root is None and sys.left.axis_root == -1.0
    assert axis_breakpoints(sys) == [-1.0]
    assert [(t.side, t.y) for t in tangency_points(sys)] == [("left", -1.0)]
    assert crossing_sets(sys) == (None, None)
    decomp = sigma_decomposition(sys)
    assert [(iv.lo, iv.hi, iv.label) for iv in decomp.intervals] == [
        (-math.inf, -1.0, RegionLabel.REPULSIVE_SLIDING),
        (-1.0, math.inf, RegionLabel.CROSSING),
    ]


def test_axis_primitives_agree_on_a_root_whose_speed_overflows():
    # the right x-velocity 1e-300 * y + 1e-10 vanishes at -1e290, where the
    # y-velocity 1e30 * y + 0.5 overflows to -inf: an infinite speed is no
    # vanishing field, so the tangency stays, invisible by kappa's sign
    sys = FilippovSystem(
        left=AffineField([[-1.0, 1.0], [-2.0, -0.5]], [1.0, 0.3]),
        right=AffineField([[0.2, 1e-300], [-1.0, 1e30]], [1e-10, 0.5]),
    )
    tps = tangency_points(sys)
    assert [(t.side, t.y) for t in tps] == [("right", -1e290), ("left", -1.0)]
    assert tps[0].visibility == "invisible"
    assert axis_breakpoints(sys) == [t.y for t in tps]
    launch, landing = crossing_sets(sys)
    assert launch == (-1.0, math.inf) and landing == (-math.inf, -1e290)
    assert sorted({launch[0], landing[1]}) == [t.y for t in tps]


def test_tangency_points_returns_a_fresh_list_each_call():
    sys = FilippovSystem(
        left=AffineField([[-1.0, 1.0], [-2.0, -0.5]], [1.0, 0.3]),
        right=AffineField([[0.2, 1.0], [-1.0, 0.1]], [1.0, 0.5]),
    )
    first = tangency_points(sys)
    first.clear()
    assert tangency_points(sys) == tangency_points(sys) != []
    assert tangency_points(sys) is not tangency_points(sys)


def test_sliding_singular_point_limit():
    # vm - vp vanishes at y=0 while N also vanishes there: extension by limit.
    right = AffineField([[0.0, 1.0], [0.0, 1.0]], [0.0, 0.0])
    left = AffineField([[0.0, 2.0], [0.0, 2.0]], [0.0, 0.0])
    sys = FilippovSystem(left=left, right=right)
    # N(y) = 2y*y - y*2y = 0 identically; Dn = y. Limit of N'/Dn' = 0.
    val = sliding_field(sys, 0.0)
    assert np.isfinite(val)


def test_axis_velocity_is_the_field_velocity_on_the_axis():
    rng = np.random.default_rng(20260823)
    for _ in range(200):
        sys = _random_system(rng)
        heights = [0.0] + [tp.y for tp in tangency_points(sys)]
        heights += [s * h for h in (1.0, 1e3, 1e150, 1e300) for s in (1.0, -1.0)]
        for f in (sys.left, sys.right, sys.left.negated(), sys.right.negated()):
            assert f.entries == tuple(float(v) for v in (*f.A.ravel(), *f.b))
            assert f.det == float(f.A[0, 0] * f.A[1, 1] - f.A[0, 1] * f.A[1, 0])
            assert f.trace == float(f.A[0, 0] + f.A[1, 1])
            for y in heights:
                with np.errstate(over="ignore"):
                    want = tuple(float(v) for v in f.velocity((0.0, y)))
                assert f.axis_velocity(y) == want
