from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from filippov import flow
from filippov.acceptance import _random_addcond_params, _random_system
from filippov.core import (
    AffineField,
    FilippovSystem,
    RegionLabel,
    classify_point,
    crossing_sets,
    tangency_points,
    tangency_visibility,
)
from filippov.errors import (
    DegenerateTangency,
    DomainError,
    FilippovError,
    NoReturn,
    ReturnOverflow,
    VelocityOverflow,
)
from filippov.flow import (
    FlowSegment,
    SlideSegment,
    filippov_orbit,
    first_return_to_axis,
    linear_flow,
)


def _helper_canonical_system(alpha, beta, gamma1, delta, gamma2, gamma3, eta, rho):
    right = AffineField([[2 * alpha, 1.0], [-1 - alpha * alpha, 0.0]], [0.0, beta])
    left = AffineField([[gamma1, delta], [gamma2, gamma3]], [eta, rho])
    return FilippovSystem(left=left, right=right)


def _helper_scenario_system(alpha, rho):
    return _helper_canonical_system(alpha, 1.0, 2.0, 1.0, -2.0, 0.0, 1.0, rho)


def _helper_expm_flow(field, z0, t):
    # affine flow via the augmented 3x3 exponential
    M = np.zeros((3, 3))
    M[:2, :2] = field.A
    M[:2, 2] = field.b
    out = expm(M * t) @ np.array([z0[0], z0[1], 1.0])
    return out[:2]


# ---------------------------------------------------------------------------
# linear_flow


def test_linear_flow_time_zero_is_identity():
    f = AffineField([[0.3, -1.2], [0.7, 0.1]], [0.5, -0.4])
    z = linear_flow(f, (1.1, -2.2), 0.0)
    np.testing.assert_allclose(z, [1.1, -2.2], atol=1e-15)


def test_linear_flow_center_closes_after_full_turn():
    f = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1.0])
    z = linear_flow(f, (0.0, 0.0), 2.0 * math.pi)
    np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-12)
    # halfway around the circle of radius 1 about (1, 0)
    np.testing.assert_allclose(linear_flow(f, (0.0, 0.0), math.pi), [2.0, 0.0], atol=1e-12)


def test_linear_flow_matches_closed_form_left_solution():
    """Left-zone flow from (0, y0) against the explicit spiral solution."""
    gamma3, gamma2, eta, rho = 0.4, -1.5, 0.8, -0.2
    left = AffineField([[gamma3, 1.0], [gamma2, gamma3]], [eta, rho])
    Delta = gamma3 * gamma3 - gamma2
    nu = math.sqrt(-gamma2)
    xbar = (rho - gamma3 * eta) / Delta
    ybar = (eta * gamma2 - rho * gamma3) / Delta
    for y0 in (-0.7, 0.0, 1.3):
        for t in (0.0, 0.37, 1.9, 4.2):
            c, s = math.cos(nu * t), math.sin(nu * t)
            ex = math.exp(gamma3 * t)
            x_ref = ex * (-xbar * c + (y0 - ybar) * s / nu) + xbar
            y_ref = ex * (-(gamma2 * xbar / nu) * s + (y0 - ybar) * c) + ybar
            z = linear_flow(left, (0.0, y0), t)
            assert z[0] == pytest.approx(x_ref, abs=1e-12)
            assert z[1] == pytest.approx(y_ref, abs=1e-12)


def test_linear_flow_agrees_with_matrix_exponential():
    rng = np.random.default_rng(7)
    mats = [rng.uniform(-2.0, 2.0, size=(2, 2)) for _ in range(25)]
    mats.append(np.zeros((2, 2)))
    mats.append(np.array([[0.0, 1.0], [0.0, 0.0]]))  # nilpotent
    mats.append(np.array([[1.0, 1.0], [0.0, 1.0]]))  # defective
    mats.append(np.array([[2.0, 0.0], [0.0, -1.0]]))
    for A in mats:
        b = rng.uniform(-2.0, 2.0, size=2)
        f = AffineField(A, b)
        z0 = rng.uniform(-3.0, 3.0, size=2)
        for t in (-1.3, 0.7, 2.1):
            want = _helper_expm_flow(f, z0, t)
            got = linear_flow(f, z0, t)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_linear_flow_against_adaptive_integrator():
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 10.0, 11)
    worst = 0.0
    for _ in range(100):
        A = rng.uniform(-1.0, 1.0, size=(2, 2))
        b = rng.uniform(-1.0, 1.0, size=2)
        z0 = rng.uniform(-2.0, 2.0, size=2)
        f = AffineField(A, b)
        sol = solve_ivp(
            lambda t, z: A @ z + b,
            (0.0, 10.0),
            z0,
            method="DOP853",
            t_eval=ts,
            rtol=1e-12,
            atol=1e-13,
        )
        assert sol.success
        for t, z_num in zip(sol.t, sol.y.T):
            z_cf = linear_flow(f, z0, t)
            err = np.linalg.norm(z_cf - z_num) / (1.0 + np.linalg.norm(z_num))
            worst = max(worst, err)
    assert worst < 1e-9


def test_linear_flow_semigroup_property():
    rng = np.random.default_rng(13)
    for _ in range(50):
        f = AffineField(rng.uniform(-1.5, 1.5, size=(2, 2)), rng.uniform(-1.5, 1.5, size=2))
        z0 = rng.uniform(-2.0, 2.0, size=2)
        t1, t2 = rng.uniform(-2.0, 2.0, size=2)
        direct = linear_flow(f, z0, t1 + t2)
        chained = linear_flow(f, linear_flow(f, z0, t1), t2)
        np.testing.assert_allclose(
            chained, direct, rtol=1e-10, atol=1e-10 * (1.0 + np.linalg.norm(direct))
        )


# ---------------------------------------------------------------------------
# first_return_to_axis


def test_first_return_center_full_turn():
    f = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1.0])
    t_hit, z_hit = first_return_to_axis(f, (0.0, 0.0), "right")
    assert t_hit == pytest.approx(2.0 * math.pi, abs=1e-10)
    np.testing.assert_allclose(z_hit, [0.0, 0.0], atol=1e-9)


def test_first_return_canonical_right_unstable_focus():
    # alpha = beta = 1, launch from the tangency at the origin
    f = AffineField([[2.0, 1.0], [-2.0, 0.0]], [0.0, 1.0])
    t_hit, z_hit = first_return_to_axis(f, (0.0, 0.0), "right")
    assert t_hit == pytest.approx(3.940733135692915, abs=1e-9)
    assert z_hit[1] == pytest.approx(-36.88167146980386, rel=1e-9)


def test_first_return_no_return_for_monotone_escape():
    f = AffineField(np.eye(2), [1.0, 0.0])
    with pytest.raises(NoReturn):
        first_return_to_axis(f, (0.0, 0.0), "right")


def test_first_return_rejects_wrong_side_or_interior_start():
    f = AffineField([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0])  # vx = y + 1
    with pytest.raises(DomainError):
        first_return_to_axis(f, (0.0, 1.0), "left")  # vx(1) = 2 points right
    with pytest.raises(DomainError):
        first_return_to_axis(f, (0.5, 1.0), "right")
    with pytest.raises(ValueError):
        first_return_to_axis(f, (0.0, 1.0), "up")


def test_first_return_invisible_tangency_rejected():
    # vx = y, vy(0) = -1, so kappa < 0: contact bends into x < 0
    f = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, -1.0])
    with pytest.raises(DomainError):
        first_return_to_axis(f, (0.0, 0.0), "right")
    # vy(0) = 1e-13: kappa > 0 but inside VANISH_TOL, so the contact is
    # degenerate under the one visibility rule and no arc leaves it
    f = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1e-13])
    assert tangency_visibility(f, "right", 0.0) == "degenerate"
    with pytest.raises(DomainError):
        first_return_to_axis(f, (0.0, 0.0), "right")


@pytest.mark.parametrize("y0", [-math.inf, math.inf, math.nan])
def test_first_return_from_a_non_finite_start_raises_domain_error(y0):
    # y0 = -inf used to raise a bare "math domain error" from math.log
    f = AffineField([[-0.731, -0.481], [2.066, 0.254]], [-2.800, -0.675])
    with pytest.raises(DomainError):
        first_return_to_axis(f, (0.0, y0), "right")


@pytest.mark.parametrize(
    "z0", [(math.nan, 0.0), (math.inf, 1.0), (0.0, math.inf), (1.0, -math.inf)]
)
def test_orbit_from_a_non_finite_start_raises_domain_error(z0):
    with pytest.raises(DomainError):
        filippov_orbit(_helper_scenario_system(0.1, 1.0), z0)


def test_first_return_from_near_double_root_keeps_positive_time():
    # the orbit leaves the axis almost tangentially and is back after ~4e-7;
    # x' nearly vanishes there, and an unguarded Newton polish jumped to
    # t = -287 (landing at y ~ 1e153)
    f = AffineField(
        [[2.2294895807206316, 1.4366490509455963], [-2.610252057712321, -2.311352129546352]],
        [-1.838982549158233, 1.9642967008573535],
    )
    y0 = 1.2800503740128486
    t_hit, z_hit = first_return_to_axis(f, (0.0, y0), "right")
    assert 0.0 < t_hit < 1e-6
    assert z_hit[1] == pytest.approx(y0, abs=1e-6)
    want = _helper_expm_flow(f, (0.0, y0), t_hit)
    assert abs(want[0]) < 1e-12
    assert want[1] == pytest.approx(z_hit[1], abs=1e-12)


def test_first_return_near_nilpotent_field_never_returns():
    # lam = 1.9e-168 is nonzero but lam * lam underflows to 0; x(t) = t e^(lam t) > 0
    f = AffineField([[1.9e-168, 1.0], [0.0, 1.9e-168]], [0.0, 0.0])
    with pytest.raises(NoReturn):
        first_return_to_axis(f, (0.0, 1.0), "right")


@pytest.mark.parametrize("lam", [0.0, 1e-170, 1e-160, 1e-17, 1e-12])
def test_first_return_near_nilpotent_field_matches_the_nilpotent_limit(lam):
    # x' = lam x + y + 1, y' = lam y - 1 from (0, 1): at lam = 0 the orbit is
    # x = 2t - t^2/2, y = 1 - t, back on the axis at t = 4, y = -3.  Larger
    # lam moves the return by ~lam; 1e-17 and 1e-160 used to raise NoReturn,
    # and 1e-12 returned t = 4.0003 through cancellation in the flow kernel
    f = AffineField([[lam, 1.0], [0.0, lam]], [1.0, -1.0])
    t_hit, z_hit = first_return_to_axis(f, (0.0, 1.0), "right")
    assert t_hit == pytest.approx(4.0, abs=1e-10)
    assert z_hit[1] == pytest.approx(-3.0, abs=1e-10)


def test_first_return_out_of_float_range_raises_overflow():
    # check 6's canonical draw 18 at seed 20260823: the right arc from this
    # height lands past -1.8e308, which used to come back as y = -inf
    rng = np.random.default_rng(20260823)
    for _ in range(18):
        _random_addcond_params(rng)
    sys = _random_addcond_params(rng).realize()
    with pytest.raises(ReturnOverflow) as info:
        first_return_to_axis(sys.right, (0.0, 6.490810291266325e306), "right")
    assert isinstance(info.value, FilippovError) and isinstance(info.value, OverflowError)


def _helper_check1_draw(draw):
    """Check 1's system number `draw` (0-based) at seed 20260823."""
    rng = np.random.default_rng(20260823)
    for _ in range(draw):
        _random_system(rng)
    return _random_system(rng)


def test_first_return_that_overflows_on_its_walk_raises_return_overflow():
    # check 1's draw 5851 conjugated by y -> 3y: the left arc from one of its
    # invariant lines' axis heights runs out of float range at t ~ 491 while
    # the walk brackets its return, and math.exp raised a bare OverflowError
    sys = _helper_check1_draw(5851)
    S = np.diag([1.0, 3.0])
    left = AffineField(S @ sys.left.A @ np.linalg.inv(S), S @ sys.left.b)
    with pytest.raises(ReturnOverflow):
        first_return_to_axis(left, (0.0, 6.085049162133376), "left")


def test_first_return_just_past_an_invisible_tangency_raises_domain_error():
    # check 1's draw 2565: 1.2e-10 above the left field's invisible tangency
    # x leaves the axis into the right zone however small t gets; the first
    # piece used to call brentq on ends of one sign (RootNotBracketed)
    sys = _helper_check1_draw(2565)
    with pytest.raises(DomainError, match="does not depart"):
        first_return_to_axis(sys.left, (0.0, -0.06785373802921237), "left")


def test_first_return_of_a_spiral_too_fast_for_the_time_floor_raises_domain_error():
    # a half turn of pi / w = 3e-19 lies below the walk's 1e-12 time floor;
    # climbing the pi / w ladder to that floor took 3e6 rungs here and 1e88
    # for a spiral of w = 1e100, where the census of a time-scaled system
    # never returned
    w = 1e19
    field = AffineField([[0.0, w], [-w, 0.0]], [0.0, w])
    with pytest.raises(DomainError, match="time floor"):
        first_return_to_axis(field, (0.0, 1.0), "right")


def _helper_rotation_invariant(field, u):
    # quadratic form conserved by the rotational part of the flow
    a = field.trace / 2.0
    omega = math.sqrt(-field.discriminant) / 2.0
    M = (field.A - a * np.eye(2)) / omega
    S = np.eye(2) + M.T @ M
    return float(u @ S @ u)


@pytest.mark.parametrize("a, t, y", [(0.005, 602.99036, -0.395916), (0.002, 1501.5599, -0.244006)])
def test_orbit_inside_a_slowly_growing_spiral_reaches_the_axis(a, t, y):
    # the spiral about the equilibrium (2, 0) keeps x > 0 until its amplitude
    # passes 2, after about 192 (a = 0.005) or 478 (a = 0.002) half-turns; a
    # walk of a fixed 130 half-turns took it for a spiral toward the
    # equilibrium, and the orbit ended Escape with no segment.  solve_ivp at
    # rtol 1e-12 gives the same return
    A = np.array([[a, 1.0], [-1.0, a]])
    f = AffineField(A, -A @ np.array([2.0, 0.0]))
    seg = filippov_orbit(FilippovSystem(left=f, right=f), (1.9, 0.0)).segments[0]
    assert seg.side == "right"
    assert seg.duration == pytest.approx(t, rel=1e-7)
    assert seg.end[1] == pytest.approx(y, rel=1e-5)


def test_first_return_focus_dichotomy_both_time_directions():
    """From a tangency, the loop map expands by exactly exp(2 a t_hit) in the
    invariant quadratic form: neutral for centers, expanding for unstable foci
    forward, expanding for stable foci backward."""
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(350):
        a11, a12, a21, a22 = rng.uniform(-2.0, 2.0, size=4)
        if abs(a12) < 0.2:
            continue
        A = np.array([[a11, a12], [a21, a22]])
        f = AffineField(A, rng.uniform(-2.0, 2.0, size=2))
        if f.discriminant > -0.05 or f.is_degenerate:
            continue
        y_t = -f.b[0] / a12
        z_t = np.array([0.0, y_t])
        kappa = a12 * f.velocity(z_t)[1]
        if abs(kappa) < 1e-6:
            continue
        side = "right" if kappa > 0 else "left"
        a = f.trace / 2.0
        z_eq = f.equilibrium()
        for g, direction in ((f, 1.0), (f.negated(), -1.0)):
            try:
                t_hit, z_hit = first_return_to_axis(g, z_t, side)
            except NoReturn:
                # spiraling inward: only possible when this run is contracting
                assert a * direction < 0.0
                continue
            v0 = _helper_rotation_invariant(f, z_t - z_eq)
            v1 = _helper_rotation_invariant(f, np.array([0.0, z_hit[1]]) - z_eq)
            assert v1 == pytest.approx(v0 * math.exp(2.0 * a * direction * t_hit), rel=1e-7)
            if abs(a) < 1e-12:
                assert z_hit[1] == pytest.approx(y_t, abs=1e-8 * (1.0 + abs(y_t)))
            checked += 1
    assert checked > 60


def _helper_jordan_field(kind, lam, mu, basis, eq):
    """Field with spectrum {lam +- i|mu|}, {lam, lam + mu} or a repeated lam
    (Jordan block), in the basis (rotation, scales, shear) and with
    equilibrium eq."""
    if kind == "complex":
        J = np.array([[lam, -abs(mu)], [abs(mu), lam]])
    elif kind == "distinct":
        J = np.diag([lam, lam + mu])
    else:
        J = np.array([[lam, 1.0], [0.0, lam]])
    theta, s1, s2, shear = basis
    c, s = math.cos(theta), math.sin(theta)
    P = np.array([[c, -s], [s, c]]) @ np.array([[s1, shear], [0.0, s2]])
    A = P @ J @ np.linalg.inv(P)
    return AffineField(A, -A @ np.array(eq))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["complex", "distinct", "repeated"]),
    lam=st.floats(0.05, 1.0) | st.floats(-1.0, -0.05),
    mu=st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),
    basis=st.tuples(
        st.floats(0.0, 2.0 * math.pi), st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0)
    ),
    eq=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    y0=st.floats(-3.0, 3.0),
)
def test_first_return_matches_matrix_exponential(kind, lam, mu, basis, eq, y0):
    """Every spectrum branch of the scalar kernel lands on x = 0 where the
    augmented matrix exponential puts the orbit."""
    assume(kind != "distinct" or abs(lam + mu) >= 0.05)
    f = _helper_jordan_field(kind, lam, mu, basis, eq)
    # expm evaluates triangular input by divided differences of the diagonal,
    # which cancel when its entries nearly coincide: not an oracle there
    assume(f.A[1, 0] != 0.0)
    vx0 = f.axis_velocity(y0)[0]
    assume(abs(vx0) > 1e-3)
    side = "right" if vx0 > 0.0 else "left"
    try:
        t_hit, z_hit = first_return_to_axis(f, (0.0, y0), side)
    except (NoReturn, OverflowError):  # no return, or none within float range
        assume(False)
    # the oracle's own rounding grows with the flow map's norm, so keep to
    # arcs where that norm leaves it good to well below 1e-10
    assume(np.abs(expm(f.A * t_hit)).max() <= 1e4)
    want = _helper_expm_flow(f, (0.0, y0), t_hit)
    scale = 1.0 + abs(y0) + abs(want[1])
    assert z_hit[0] == 0.0
    assert abs(want[0]) <= 1e-10 * scale
    assert abs(want[1] - z_hit[1]) <= 1e-10 * scale


def _helper_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["complex", "distinct", "repeated"]),
    lam=st.floats(-1.0, 1.0),
    mu=st.floats(0.2, 2.0) | st.floats(-2.0, -0.2),
    basis=st.tuples(
        st.floats(0.0, 2.0 * math.pi), st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0)
    ),
    eq=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    z0=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    t_near=st.floats(0.0, 1e-6),
    t_far=st.floats(1.0, 2000.0),
)
def test_x_kernel_is_the_flows_x_bit_for_bit(kind, lam, mu, basis, eq, z0, t_near, t_far):
    """The root solves' x-only kernel computes `at`'s x with the same float
    operations: equal bits, or the same OverflowError, near t = 0 and far."""
    ev = flow._eigen(_helper_jordan_field(kind, lam, mu, basis, eq))
    assert ev.kind == kind
    x_of = ev.x_of(*z0)
    for t in (t_near, t_far):
        try:
            want = ev.at(z0[0], z0[1], t)[0]
        except OverflowError:
            with pytest.raises(OverflowError):
                x_of(t)
            continue
        assert _helper_bits(x_of(t)) == _helper_bits(want)


def test_axis_return_memo_cannot_be_seen_from_outside():
    f = AffineField([[2.0, 1.0], [-2.0, 0.0]], [0.0, 1.0])
    t1, z1 = first_return_to_axis(f, (0.0, 0.0), "right")
    landing = z1.tolist()
    z1[1] = 7.0  # filippov_orbit snaps landings in place
    t2, z2 = first_return_to_axis(f, (0.0, 0.0), "right")
    assert (t2, z2.tolist()) == (t1, landing)
    assert z2 is not z1

    escape = AffineField(np.eye(2), [1.0, 0.0])
    messages = []
    for _ in range(2):
        with pytest.raises(NoReturn) as err:
            first_return_to_axis(escape, (0.0, 0.0), "right")
        messages.append((type(err.value), str(err.value)))
    assert messages[0] == messages[1]

    # +0.0 and -0.0 are walked apart, each landing as on a field never asked
    signed = AffineField([[0.3, 1.0], [-1.2, 0.1]], [0.0, 0.4])
    for y0 in (0.0, -0.0, 0.0):
        fresh = AffineField(signed.A, signed.b)
        (t_a, z_a), (t_b, z_b) = (first_return_to_axis(g, (0.0, y0), "right") for g in (signed, fresh))
        assert _helper_bits(t_a) == _helper_bits(t_b)
        assert [_helper_bits(v) for v in z_a] == [_helper_bits(v) for v in z_b]
    assert len(flow._eigen(signed).returns) == 2


# ---------------------------------------------------------------------------
# filippov_orbit


def test_orbit_starting_at_pseudo_equilibrium_terminates_immediately():
    sys = _helper_scenario_system(0.5, -1.0)
    orbit = filippov_orbit(sys, (0.0, -0.5))
    assert orbit.segments == ()
    assert orbit.terminal_event.kind == "PseudoEquilibrium"
    np.testing.assert_allclose(orbit.terminal_event.point, [0.0, -0.5], atol=1e-12)


def test_orbit_slides_up_then_flows_right():
    sys = _helper_scenario_system(0.5, -1.0)
    orbit = filippov_orbit(sys, (0.0, -0.2), budget=3)
    first, second = orbit.segments[0], orbit.segments[1]
    assert isinstance(first, SlideSegment)
    assert first.y_start == pytest.approx(-0.2)
    assert first.y_end == pytest.approx(0.0, abs=1e-14)
    assert math.isfinite(first.duration) and first.duration > 0.0
    assert isinstance(second, FlowSegment)
    assert second.side == "right"
    assert second.start == (0.0, 0.0)


def test_orbit_slide_duration_closed_form():
    # dy/dt = 2y + 1 on the sliding band, so the time from -0.2 to 0 is
    # (1/2) log(1 / 0.6)
    sys = _helper_scenario_system(0.5, -1.0)
    orbit = filippov_orbit(sys, (0.0, -0.2), budget=1)
    assert orbit.segments[0].duration == pytest.approx(0.5 * math.log(1.0 / 0.6), rel=1e-12)


def test_orbit_budget_exhaustion_from_interior_point():
    sys = _helper_scenario_system(0.5, -1.0)
    orbit = filippov_orbit(sys, (2.0, 1.0), budget=1)
    assert len(orbit.segments) == 1
    assert isinstance(orbit.segments[0], FlowSegment)
    assert orbit.segments[0].side == "right"
    assert orbit.terminal_event.kind == "BudgetExhausted"


def test_orbit_consecutive_segments_share_endpoints():
    sys = _helper_scenario_system(0.5, -1.0)
    orbit = filippov_orbit(sys, (2.0, 1.0), budget=12)
    prev_end = None
    for seg in orbit.segments:
        start = seg.start if isinstance(seg, FlowSegment) else (0.0, seg.y_start)
        end = seg.end if isinstance(seg, FlowSegment) else (0.0, seg.y_end)
        if prev_end is not None:
            assert start == prev_end
        prev_end = end


def test_orbit_closed_sliding_cycle():
    # stable cycle: right arc from the fold, then an attractive slide back up
    sys = _helper_canonical_system(0.1, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    orbit = filippov_orbit(sys, (0.0, 0.0), budget=20)
    assert orbit.terminal_event.kind == "Closed"
    assert orbit.lap_start is not None
    lap = orbit.segments[orbit.lap_start :]
    kinds = [seg.kind for seg in lap]
    assert "flow" in kinds and "slide" in kinds
    total = sum(seg.duration for seg in lap)
    assert orbit.terminal_event.period == pytest.approx(total, rel=1e-9)
    flows = [seg for seg in lap if isinstance(seg, FlowSegment)]
    assert flows[0].end[1] == pytest.approx(-1.457274317748, abs=1e-6)


def test_orbit_infinite_slide_into_pseudo_equilibrium():
    right = AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, -1.0])
    left = AffineField([[0.0, 1.0], [0.0, -2.0]], [1.0, -1.0])
    sys = FilippovSystem(left=left, right=right)
    assert classify_point(sys, -0.3) is RegionLabel.ATTRACTIVE_SLIDING
    orbit = filippov_orbit(sys, (0.0, -0.3))
    assert orbit.terminal_event.kind == "PseudoEquilibrium"
    assert orbit.terminal_event.point[1] == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
    seg = orbit.segments[-1]
    assert isinstance(seg, SlideSegment)
    assert math.isinf(seg.duration)


def test_orbit_unbounded_slide_escapes():
    right = AffineField([[0.0, 1.0], [1.0, 0.0]], [0.0, -1.0])
    left = AffineField([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    sys = FilippovSystem(left=left, right=right)
    orbit = filippov_orbit(sys, (0.0, -0.5))
    assert orbit.terminal_event.kind == "Escape"


def test_orbit_into_stable_admissible_focus_reports_equilibrium():
    # right zone owns a stable focus at (1, 0); orbits entering x > 0 sink into it
    A = np.array([[-0.2, 1.0], [-1.0, -0.2]])
    right = AffineField(A, -A @ np.array([1.0, 0.0]))
    left = AffineField([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])  # pushes rightward
    sys = FilippovSystem(left=left, right=right)
    orbit = filippov_orbit(sys, (3.0, 0.0), budget=50)
    assert orbit.terminal_event.kind == "Equilibrium"
    np.testing.assert_allclose(orbit.terminal_event.point, [1.0, 0.0], atol=1e-9)


def test_orbit_never_slides_on_repulsive_points_from_interior_start():
    rng = np.random.default_rng(41)
    launched = 0
    for _ in range(40):
        sys = FilippovSystem(
            left=AffineField(rng.uniform(-2, 2, (2, 2)), rng.uniform(-2, 2, 2)),
            right=AffineField(rng.uniform(-2, 2, (2, 2)), rng.uniform(-2, 2, 2)),
        )
        z0 = rng.uniform(-2, 2, 2)
        if abs(z0[0]) < 1e-3:
            continue
        try:
            orbit = filippov_orbit(sys, z0, budget=25)
        except DegenerateTangency:
            continue  # degenerate tangency configurations are out of scope here
        launched += 1
        for seg in orbit.segments:
            if isinstance(seg, SlideSegment) and math.isfinite(seg.y_end):
                mid = 0.5 * (seg.y_start + seg.y_end)
                assert classify_point(sys, mid) is not RegionLabel.REPULSIVE_SLIDING
    assert launched > 25


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_orbit_into_an_overflowing_axis_velocity_raises_named_error():
    # the right center carries (1e299, 1e299) to the axis near |y| = 1.4e299,
    # where the left x-velocity is ~1e309
    sys = FilippovSystem(
        left=AffineField([[0.0, 1e10], [-1.0, 0.0]], [1.0, 0.0]),
        right=AffineField([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]),
    )
    with pytest.raises(VelocityOverflow):
        filippov_orbit(sys, (1e299, 1e299))


def test_tangency_orbit_that_spirals_out_ends_at_its_first_outward_lap():
    # canonical draw 0 at seed 20260823: from the visible left tangency the
    # orbit crosses outward forever, and used to run its 200-segment budget
    rng = np.random.default_rng(20260823)
    sys = _random_addcond_params(rng).realize()
    (tp,) = [t for t in tangency_points(sys) if t.side == "left"]
    assert tp.visibility == "visible"
    orbit = filippov_orbit(sys, tp.location)
    assert orbit.terminal_event.kind == "OutwardSpiral"
    assert [(s.kind, s.side) for s in orbit.segments] == [
        ("flow", "left"),
        ("flow", "right"),
        ("flow", "left"),
    ]
    launch, _ = crossing_sets(sys)
    y_prev, y = orbit.segments[1].start[1], orbit.terminal_event.point[1]
    assert launch[0] < y_prev < y < launch[1] == math.inf
    assert y == orbit.segments[-1].end[1]


def test_orbit_from_an_interior_point_is_not_judged_from_that_point():
    # time-reversed canonical draw 0 spirals inward into the right zone's
    # equilibrium.  Started mid-way along a right arc, at a height inside the
    # launch set, the orbit's next left arc lands further out than that
    # height; only a right arc launched from the axis bounds the next lap
    rng = np.random.default_rng(20260823)
    sys = _random_addcond_params(rng).realize().time_reversed()
    launch, _ = crossing_sets(sys)
    t, _ = first_return_to_axis(sys.right, (0.0, -20.0), "right")
    z_mid = linear_flow(sys.right, (0.0, -20.0), 0.5 * t)
    assert z_mid[0] > 0.0 and launch[0] < z_mid[1] < launch[1]
    orbit = filippov_orbit(sys, tuple(z_mid))
    assert orbit.terminal_event.kind == "Equilibrium"


def _helper_outward_spirals(systems):
    """(system, height) at which each visible-tangency orbit of the systems,
    forward and time-reversed, ends as OutwardSpiral."""
    for sys in systems:
        for work in (sys, sys.time_reversed()):
            for tp in tangency_points(work):
                if tp.visibility != "visible":
                    continue
                try:
                    orbit = filippov_orbit(work, tp.location)
                except OverflowError:
                    continue
                if orbit.terminal_event.kind == "OutwardSpiral":
                    yield work, orbit.terminal_event.point[1]


def test_outward_spiral_laps_keep_moving_out():
    # the argument behind OutwardSpiral, checked lap by lap: from the height
    # where the orbit stopped, each right arc lands in the landing set and
    # each left arc comes back to the launch set further out, until a return
    # no longer exists or leaves float range.  Laps that converge onto an
    # outer crossing cycle (random draw 40, time-reversed, at y = -2046.14)
    # stall there in floats, so a lap may stay put but never move in
    rng_c = np.random.default_rng(20260823)
    rng_r = np.random.default_rng(20260823)
    canonical = [_random_addcond_params(rng_c).realize() for _ in range(120)]
    random = [_random_system(rng_r) for _ in range(120)]
    checked = 0
    for work, y in _helper_outward_spirals(canonical + random):
        launch, landing = crossing_sets(work)
        outward = 1.0 if launch[1] == math.inf else -1.0
        for _ in range(100):
            try:
                _, z = first_return_to_axis(work.right, (0.0, y), "right")
                u = float(z[1])
                assert landing[0] < u < landing[1]
                _, z = first_return_to_axis(work.left, (0.0, u), "left")
            except (NoReturn, ReturnOverflow):
                break
            y_next = float(z[1])
            assert launch[0] < y_next < launch[1]
            assert (y_next - y) * outward >= 0.0
            y = y_next
        checked += 1
    assert checked >= 150
