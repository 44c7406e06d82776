from __future__ import annotations

import math

import numpy as np
import pytest

from filippov.acceptance import _random_system
from filippov.canonical import CanonicalParams, to_canonical
from filippov.errors import ConditionViolated, DomainError, FilippovError, OutOfRange, PoleUnresolved
from filippov.flow import first_return_to_axis, linear_flow
from filippov.halfmaps import (
    P_L_inv,
    P_R,
    derivatives,
    displacement,
    left_map_param,
    make_context,
    phi,
    psi,
    right_map_param,
    solve_t_hats,
    zeros_of_D,
)
from filippov.periodic import coexistence

T_STAR = 3.940733135692915
E_STAR = -36.88167146980386  # e^{t*} sin t*
RHO_C_005 = -0.03579668380274186
Y2_005 = 0.3202415317211747


def _helper_params(alpha, beta, gamma3, gamma2, eta, rho, gamma1=None):
    return CanonicalParams(
        alpha=alpha,
        beta=beta,
        delta=1,
        eta=eta,
        rho=rho,
        gamma1=gamma3 if gamma1 is None else gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        m=-1,
    )


def _helper_context(alpha=1.0, beta=1.0, gamma3=0.4, gamma2=-1.5, eta=0.8, rho=-0.2):
    return make_context(_helper_params(alpha, beta, gamma3, gamma2, eta, rho))


def _helper_scenario_context(alpha, rho):
    # gamma1 != gamma3 on purpose: exercises the automatic shear
    return make_context(_helper_params(alpha, 1.0, 0.0, -2.0, 1.0, rho, gamma1=2.0))


def _helper_random_params(rng):
    # log-uniform alpha and beta so the weak-rotation corner (which is what
    # makes the displacement start out negative) shows up often enough
    alpha = math.exp(rng.uniform(math.log(0.02), math.log(1.5)))
    beta = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
    gamma3 = rng.uniform(0.05, 1.5)
    gamma2 = -rng.uniform(0.3, 3.0)
    eta = rng.uniform(0.1, 3.0)
    rho = gamma3 * eta - rng.uniform(0.05, 3.0)
    return _helper_params(alpha, beta, gamma3, gamma2, eta, rho)


# ---------------------------------------------------------------------------
# half-turn times


def test_psi_plus_at_pi_is_one_plus_exp():
    ctx = _helper_context(alpha=0.7)
    assert psi(+1, math.pi, ctx.params.alpha) == pytest.approx(1.0 + math.exp(0.7 * math.pi), rel=1e-14)


def test_solve_t_hats_alpha_one_reproduces_t_star():
    t_minus, t_plus = solve_t_hats(_helper_params(1.0, 1.0, 0.4, -1.5, 0.8, -0.2))
    assert t_plus == pytest.approx(T_STAR, abs=1e-12)
    # residuals below the context invariant threshold
    ctx = _helper_context()
    assert abs(psi(+1, t_plus, ctx.params.alpha)) < 1e-12
    assert abs(phi(+1, t_minus, ctx.params.gamma3, ctx.nu)) < 1e-12
    assert math.pi / ctx.nu < t_minus <= 2.0 * math.pi / ctx.nu


def test_solve_t_hats_small_alpha_approaches_two_pi():
    # t_hat_plus = 2 pi - 2 sqrt(pi alpha) + O(alpha), so the approach is
    # square-root slow: 5.93 at alpha = 0.01, 6.17 at alpha = 0.001
    two_pi = 2.0 * math.pi
    _, t_001 = solve_t_hats(_helper_params(0.01, 1.0, 0.4, -1.5, 0.8, -0.2))
    assert t_001 == pytest.approx(two_pi - 2.0 * math.sqrt(math.pi * 0.01), abs=2e-2)
    _, t_0001 = solve_t_hats(_helper_params(0.001, 1.0, 0.4, -1.5, 0.8, -0.2))
    assert two_pi - t_0001 < two_pi - t_001
    _, t_plus_005 = solve_t_hats(_helper_params(0.05, 1.0, 0.4, -1.5, 0.8, -0.2))
    assert t_plus_005 == pytest.approx(5.522331403879394, abs=1e-10)


def test_t_hat_minus_continuity_toward_small_gamma3():
    gaps = []
    for g3 in (1e-2, 1e-4, 1e-6):
        t_minus, _ = solve_t_hats(_helper_params(1.0, 1.0, g3, -1.0, 1.0, -0.5))
        assert math.pi < t_minus <= 2.0 * math.pi  # nu = 1 here
        gaps.append(2.0 * math.pi - t_minus)
    assert gaps[0] > gaps[1] > gaps[2] >= 0.0


def test_solve_t_hats_refuses_bad_parameters():
    with pytest.raises(ConditionViolated):
        solve_t_hats(_helper_params(-1.0, 1.0, 0.4, -1.5, 0.8, -0.2))
    with pytest.raises(ConditionViolated):
        solve_t_hats(_helper_params(1.0, 1.0, 0.4, -1.5, 0.8, 0.9))  # rho - g3 eta > 0


def test_make_context_applies_shear_when_needed():
    ctx = _helper_scenario_context(0.05, -1.0)
    assert ctx.shear is not None
    assert ctx.params.gamma1 == ctx.params.gamma3 == 1.0
    assert ctx.params.gamma2 == pytest.approx(-1.0)
    plain = _helper_context()
    assert plain.shear is None


# ---------------------------------------------------------------------------
# parametric maps


def test_right_map_param_endpoint_and_scaling():
    ctx = _helper_context(alpha=1.0, beta=1.0)
    y, p = right_map_param(ctx.t_hat_plus, ctx)
    assert y == 0.0
    assert p == pytest.approx(E_STAR, rel=1e-12)
    # near the lower end both outputs blow up with opposite signs
    y_big, p_big = right_map_param(math.pi + 1e-4, ctx)
    assert y_big > 1e3 and p_big < -1e3
    ctx2 = _helper_context(alpha=1.0, beta=2.0)
    t = 3.6
    y1, p1 = right_map_param(t, ctx)
    y2, p2 = right_map_param(t, ctx2)
    assert y2 == pytest.approx(2.0 * y1, rel=1e-14)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-14)


def test_right_map_param_monotone_in_t():
    ctx = _helper_context()
    ts = np.linspace(math.pi + 1e-3, ctx.t_hat_plus, 200)
    ys = [right_map_param(t, ctx)[0] for t in ts]
    assert all(a > b for a, b in zip(ys, ys[1:]))


def test_left_map_param_endpoint():
    ctx = _helper_context()
    y, p = left_map_param(ctx.t_hat_minus, ctx)
    assert y == ctx.y_eta
    assert p == -ctx.params.eta
    y_big, p_big = left_map_param(math.pi / ctx.nu + 1e-5, ctx)
    assert y_big > 1e3 and p_big < -1e3


def test_left_map_param_flow_consistency():
    ctx = _helper_context()
    sys = ctx.params.realize()
    for t_minus in (2.7, 3.0, ctx.t_hat_minus):
        y, p = left_map_param(t_minus, ctx)
        z = linear_flow(sys.left, (0.0, p), t_minus)
        assert abs(z[0]) < 1e-9
        assert z[1] == pytest.approx(y, abs=1e-9)


def test_map_params_out_of_range():
    ctx = _helper_context()
    with pytest.raises(OutOfRange):
        right_map_param(3.0, ctx)  # below pi
    with pytest.raises(OutOfRange):
        right_map_param(ctx.t_hat_plus + 0.1, ctx)
    with pytest.raises(OutOfRange):
        left_map_param(ctx.t_hat_minus + 0.1, ctx)


# ---------------------------------------------------------------------------
# inverted maps


def test_P_R_at_zero_matches_tangent_arc_landing():
    ctx = _helper_context(alpha=1.0, beta=1.0)
    assert P_R(0.0, ctx) == pytest.approx(E_STAR, rel=1e-12)
    sys = ctx.params.realize()
    _, z_hit = first_return_to_axis(sys.right, (0.0, 0.0), "right")
    assert P_R(0.0, ctx) == pytest.approx(z_hit[1], abs=1e-8)


def test_P_L_inv_endpoint_exact():
    ctx = _helper_context()
    assert P_L_inv(ctx.y_eta, ctx) == -ctx.params.eta


def test_half_maps_agree_with_flow_returns():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ctx = make_context(_helper_random_params(rng))
        sys = ctx.params.realize()
        for y in np.linspace(ctx.y_star, ctx.y_star + 8.0, 20):
            t_r, z_r = first_return_to_axis(sys.right, (0.0, y), "right")
            assert P_R(y, ctx) == pytest.approx(z_r[1], abs=1e-8 * (1.0 + abs(z_r[1])))
            p = P_L_inv(y, ctx)
            if y > ctx.y_eta + 1e-9:
                t_l, z_l = first_return_to_axis(sys.left, (0.0, p), "left")
                assert z_l[1] == pytest.approx(y, abs=1e-8 * (1.0 + abs(y)))


def test_half_maps_strictly_decreasing_and_signed():
    ctx = _helper_context()
    ys = np.linspace(ctx.y_star, ctx.y_star + 50.0, 300)
    prs = [P_R(y, ctx) for y in ys]
    pls = [P_L_inv(y, ctx) for y in ys]
    assert all(a > b for a, b in zip(prs, prs[1:]))
    assert all(a > b for a, b in zip(pls, pls[1:]))
    eta = ctx.params.eta
    for y, pr, pl in zip(ys, prs, pls):
        if y > 0:
            assert pr < 0.0
        if y > ctx.y_eta:
            assert pl < -eta


def test_half_map_domains_enforced():
    ctx = _helper_context()
    with pytest.raises(DomainError):
        P_R(-0.5, ctx)
    with pytest.raises(DomainError):
        P_L_inv(ctx.y_eta - 1.0, ctx)
    with pytest.raises(DomainError):
        displacement(ctx.y_star - 0.5, ctx)
    with pytest.raises(DomainError):
        derivatives(ctx.y_star - 0.5, ctx)


# ---------------------------------------------------------------------------
# derivatives


def test_derivatives_match_finite_differences():
    # keep clear of y_eta: P_L_inv has a square-root fold there, which wrecks
    # the finite-difference truncation error long before it wrecks the formula.
    # The clearance must scale like the step h = 1e-4(1+|y|) does, or contexts
    # with a large y_eta still sit too close to the fold in units of h.
    for ctx in (_helper_context(), _helper_context(alpha=0.3, gamma3=0.9, rho=-0.6)):
        off = 0.25 * (1.0 + abs(ctx.y_star))
        ys = np.linspace(ctx.y_star + off, ctx.y_star + off + 12.0, 25)
        for y in ys:
            h = 1e-4 * (1.0 + abs(y))
            rec = derivatives(y, ctx)
            d_pr = (P_R(y + h, ctx) - P_R(y - h, ctx)) / (2.0 * h)
            d_pl = (P_L_inv(y + h, ctx) - P_L_inv(y - h, ctx)) / (2.0 * h)
            assert rec.dPR == pytest.approx(d_pr, rel=1e-6)
            assert rec.dPLinv == pytest.approx(d_pl, rel=1e-6)
            d2_pr = (derivatives(y + h, ctx).dPR - derivatives(y - h, ctx).dPR) / (2.0 * h)
            d2_pl = (derivatives(y + h, ctx).dPLinv - derivatives(y - h, ctx).dPLinv) / (
                2.0 * h
            )
            assert rec.d2PR == pytest.approx(d2_pr, rel=1e-5, abs=1e-10)
            assert rec.d2PLinv == pytest.approx(d2_pl, rel=1e-5, abs=1e-10)


def test_derivative_signs_and_curvature():
    ctx = _helper_context()
    for y in np.linspace(ctx.y_star + 0.01, ctx.y_star + 30.0, 120):
        rec = derivatives(y, ctx)
        assert rec.dPR < 0.0
        assert rec.dPLinv < 0.0
        assert rec.d2PR < 0.0
        assert rec.d2PLinv > 0.0


def test_slope_asymptotes():
    for alpha, gamma3 in ((0.25, 0.5), (1.0, 0.25), (0.5, 1.0)):
        ctx = _helper_context(alpha=alpha, gamma3=gamma3, gamma2=-1.2, rho=-0.4)
        rec = derivatives(1e5, ctx)
        assert rec.dPR == pytest.approx(-math.exp(alpha * math.pi), rel=0.01)
        assert rec.dPLinv == pytest.approx(
            -math.exp(-gamma3 * math.pi / ctx.nu), rel=0.01
        )
        # secant version of the right slope at scale 1e5
        assert P_R(1e5, ctx) / 1e5 == pytest.approx(-math.exp(alpha * math.pi), rel=0.02)


def test_displacement_convex_and_limit_slope():
    ctx = _helper_context()
    ys = np.linspace(ctx.y_star, ctx.y_star + 40.0, 200)
    ds = [displacement(y, ctx) for y in ys]
    second = np.diff(ds, 2)
    assert (second > 0.0).all()
    rec = derivatives(2e5, ctx)
    want = math.exp(ctx.params.alpha * math.pi) - math.exp(
        -ctx.params.gamma3 * math.pi / ctx.nu
    )
    assert rec.dPLinv - rec.dPR == pytest.approx(want, rel=0.01)


# ---------------------------------------------------------------------------
# zeros of D


def test_zeros_unique_unstable_crossing_cycle():
    # two-orbit configuration with one crossing cycle strictly inside it
    ctx = make_context(
        _helper_params(0.01, 1.0, 0.0, -1.0001, 1.0, -1.0, gamma1=0.02)
    )
    zeros = zeros_of_D(ctx)
    assert len(zeros) == 1
    z = zeros[0]
    assert z.y_zero == pytest.approx(30.0271712607, abs=1e-6)
    assert z.D_prime_sign == 1
    assert abs(displacement(z.y_zero, ctx)) < 1e-10


def test_zeros_at_critical_rho_endpoint_plus_interior():
    ctx = _helper_scenario_context(0.05, RHO_C_005)
    zeros = zeros_of_D(ctx)
    assert len(zeros) == 2
    assert zeros[0].y_zero == pytest.approx(Y2_005, abs=1e-8)
    assert zeros[0].D_prime_sign == -1
    assert zeros[1].y_zero == pytest.approx(0.323926858695, abs=1e-7)
    assert zeros[1].D_prime_sign == 1
    assert abs(displacement(ctx.y_star, ctx)) <= 1e-9


def test_zeros_two_interior_below_critical_rho():
    ctx = _helper_scenario_context(0.05, RHO_C_005 - 1e-5)
    zeros = zeros_of_D(ctx)
    assert [z.D_prime_sign for z in zeros] == [-1, 1]
    assert zeros[0].y_zero == pytest.approx(0.320660760122, abs=1e-7)
    assert zeros[1].y_zero == pytest.approx(0.323484425009, abs=1e-7)
    for z in zeros:
        assert abs(displacement(z.y_zero, ctx)) < 1e-10


def test_zeros_single_above_critical_rho():
    ctx = _helper_scenario_context(0.05, RHO_C_005 + 1e-3)
    assert displacement(ctx.y_star, ctx) < -1e-9
    zeros = zeros_of_D(ctx)
    assert len(zeros) == 1
    assert zeros[0].y_zero == pytest.approx(0.33516058, abs=1e-6)
    assert zeros[0].D_prime_sign == 1


def test_zeros_empty_when_D_positive_everywhere():
    # large eta pushes the left branch far down: D(y*) > 0 with no dip below 0
    ctx = _helper_context(alpha=1.0, beta=0.05, gamma3=1.0, gamma2=-1.0, eta=3.0, rho=0.5)
    assert displacement(ctx.y_star, ctx) > 0.0
    zeros = zeros_of_D(ctx)
    for z in zeros:
        assert abs(displacement(z.y_zero, ctx)) < 1e-8


def test_zero_count_bound_over_random_contexts():
    rng = np.random.default_rng(97)
    negative_start = 0
    for _ in range(1000):
        ctx = make_context(_helper_random_params(rng))
        zeros = zeros_of_D(ctx)
        assert len(zeros) <= 2
        if displacement(ctx.y_star, ctx) < -1e-9:
            negative_start += 1
            assert len(zeros) == 1
            assert zeros[0].D_prime_sign == 1
    assert negative_start > 100


def test_unreachable_height_raises_pole_unresolved():
    # y(t) ~ 1/sin(t) near t = pi: above y(nextafter(pi)) no float arc time
    # reaches the height, and the inversion must say so instead of stepping
    # onto the pole
    ctx = _helper_context()
    with pytest.raises(PoleUnresolved):
        P_R(1e300, ctx)
    with pytest.raises(PoleUnresolved):
        P_L_inv(1e300, ctx)
    assert issubclass(PoleUnresolved, OverflowError)
    assert issubclass(PoleUnresolved, FilippovError)


@pytest.mark.parametrize(
    "seed, draw", [(205, 461), (2005, 98), (2007, 1102), (200, 1520), (201, 2430)]
)
def test_census_falls_back_when_displacement_search_leaves_float_range(seed, draw):
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        _random_system(rng)
    sys = _random_system(rng)
    with pytest.raises(PoleUnresolved):
        zeros_of_D(make_context(to_canonical(sys)[0]))
    rep = coexistence(sys, budget=60)
    for r in rep.records:
        if r.kind == "crossing":
            y0 = r.orbit.segments[0].start[1]
            z = (0.0, y0)
            for seg in r.orbit.segments:
                _, z = first_return_to_axis(sys.field(seg.side), z, seg.side)
            assert abs(z[1] - y0) <= 1e-8 * max(1.0, abs(y0))
