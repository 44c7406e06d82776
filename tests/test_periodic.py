"""Periodic-orbit enumeration, configuration labels and the tuned scenarios.

Numeric expectations are frozen from independent closed-form work: the
half-turn root t* = 3.940733135692915 of e^t(cos t - sin t) = 1, the graze
offset 1/(e^t* |sin t*|) = 0.02711373861726224, and hand-propagated arc
landings for the curated systems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from filippov.acceptance import _random_addcond_params, _random_system
from filippov.canonical import check_premises, to_canonical
from filippov import flow
from filippov.core import AffineField, FilippovSystem, equilibrium_info
from filippov.errors import DegenerateField, DegenerateTangency, TheoremViolation
from filippov.flow import filippov_orbit, first_return_to_axis
from filippov.halfmaps import make_context, zeros_of_D
from filippov.periodic import (
    ConfigurationLabel,
    _check_exclusions,
    classify_configuration,
    coexistence,
    find_crossing_orbits,
    find_sliding_orbits,
    scenario_example1,
    scenario_example2,
    solve_eta_c,
    solve_rho_c,
)
from filippov.specfile import resolve_spec

BETA_GRAZE = 0.02711373861726224
RHO_C_005 = -0.03579668380274186
ETA_C_205 = 18.01713657630865


def _helper_system(alpha, beta, g1, d, g2, g3, eta, rho):
    right = AffineField(
        np.array([[2.0 * alpha, 1.0], [-1.0 - alpha * alpha, 0.0]]),
        np.array([0.0, beta]),
    )
    left = AffineField(np.array([[g1, d], [g2, g3]]), np.array([eta, rho]))
    return FilippovSystem(left=left, right=right)


def _helper_example(n):
    table = {
        1: (0.1, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
        2: (1.0, 0.04067060792589336, 0.0, 1.0, -1.0, 0.0, 1.0, 0.0),
        3: (1.0, BETA_GRAZE, 2.0, 1.0, -2.0, 0.0, 1.0, -0.02211373861726224),
        4: (1.0, BETA_GRAZE - 0.002, 2.0, 1.0, -2.0, 0.0, 1.0, -0.02211373861726224),
        5: (1.0, 1.0, -2.0, -1.0, 2.0, 0.0, 1.0, 1.0),
        6: (0.01, 1.0, 0.02, 1.0, -1.0001, 0.0, 1.0, -1.0),
        7: (0.05, 1.0, 2.0, 1.0, -2.0, 0.0, 1.0, -0.03479668380274186),
    }
    return _helper_system(*table[n])


def _helper_tags(report):
    return {r.configuration.tag for r in report.records if r.configuration}


def _helper_crossing_ys(report):
    return sorted(
        r.orbit.segments[0].start[1] for r in report.records if r.kind == "crossing"
    )


def _helper_crossing_mults(report):
    recs = sorted(
        (r for r in report.records if r.kind == "crossing"),
        key=lambda r: r.orbit.segments[0].start[1],
    )
    return [r.multiplier for r in recs]


def test_single_slide_single_loop_census():
    rep = coexistence(_helper_example(1))
    assert (rep.n_crossing, rep.n_sliding) == (0, 1)
    rec = [r for r in rep.records if r.kind == "sliding"][0]
    assert rec.configuration == ConfigurationLabel("F1A_a", (1, 1, 1))
    assert rec.multiplier is None
    kinds = [s[0] for s in rec.axis_signature]
    assert sorted(kinds) == ["R", "S"]
    arc = dict(zip(kinds, rec.axis_signature))["R"]
    # right-loop landing e^(0.1 t+) sin(t+) at the alpha=0.1 half-turn root
    assert arc[2] == pytest.approx(-1.457274317748356, abs=1e-9)


def test_transversal_single_orbit_census():
    rep = coexistence(_helper_example(2))
    assert rep.n_sliding == 1
    assert _helper_tags(rep) == {"F1A_b"}
    sl = [r for r in rep.records if r.kind == "sliding"][0]
    kinds = [s[0] for s in sl.axis_signature]
    assert sorted(kinds) == ["L", "R", "S"]
    # the left arc rides the boundary center at (0,-1); no grammar contact
    # with either tangency, so the loop crosses transversally below T_L
    assert rep.n_crossing == 1
    (mult,) = _helper_crossing_mults(rep)
    assert mult > 1.0


def test_graze_single_orbit_census():
    rep = coexistence(_helper_example(3))
    assert rep.n_sliding == 1
    assert _helper_tags(rep) == {"F1A_c"}
    sl = [r for r in rep.records if r.kind == "sliding"][0]
    ys = sorted(abs(v) for s in sl.axis_signature for v in s[1:])
    # the right loop lands exactly on the left tangency (0,-1)
    assert any(abs(v - 1.0) < 1e-9 for v in ys)
    assert rep.n_crossing == 1
    (mult,) = _helper_crossing_mults(rep)
    assert mult > 1.0


def test_double_slide_orbit_census():
    rep = coexistence(_helper_example(4))
    assert rep.n_sliding == 1
    assert _helper_tags(rep) == {"F1A_d"}
    sl = [r for r in rep.records if r.kind == "sliding"][0]
    assert sl.configuration.frame == (1, 1, 1)
    kinds = [s[0] for s in sl.axis_signature]
    assert sorted(kinds) == ["L", "R", "S", "S"]
    assert rep.n_crossing == 1
    (mult,) = _helper_crossing_mults(rep)
    assert mult > 1.0


def test_attractive_repulsive_pair_census():
    rep = coexistence(_helper_example(5))
    assert (rep.n_crossing, rep.n_sliding) == (0, 2)
    assert _helper_tags(rep) == {"F2A_a"}
    slides = []
    for r in rep.records:
        if r.kind == "sliding":
            for s in r.axis_signature:
                if s[0] == "S":
                    slides.append(sorted((s[1], s[2])))
    slides.sort()
    # one member slides below the right tangency, the other beyond the left
    assert slides[0][1] <= 0.0 and slides[0][0] < 0.0
    assert slides[1][0] >= 1.0


def test_twin_pair_census_and_crossing_root():
    rep = coexistence(_helper_example(6))
    assert (rep.n_crossing, rep.n_sliding) == (1, 2)
    assert _helper_tags(rep) == {"F2A_b"}
    labels = {r.configuration.frame for r in rep.records if r.configuration}
    assert labels == {(1, 1, 1)}
    (y,) = _helper_crossing_ys(rep)
    assert y == pytest.approx(30.0271712607, abs=1e-6)
    (mult,) = _helper_crossing_mults(rep)
    assert mult == pytest.approx(1.064774, abs=1e-4)
    assert mult > 1.0 + 1e-3


def test_nested_pair_census():
    rep = coexistence(_helper_example(7))
    assert (rep.n_crossing, rep.n_sliding) == (1, 2)
    assert _helper_tags(rep) == {"F2A_c"}
    (y,) = _helper_crossing_ys(rep)
    assert y == pytest.approx(0.33516057635, abs=1e-8)
    (mult,) = _helper_crossing_mults(rep)
    assert mult > 1.0
    shapes = set()
    for r in rep.records:
        if r.kind == "sliding":
            kinds = [s[0] for s in r.axis_signature]
            shapes.add((kinds.count("S"), len(kinds) - kinds.count("S")))
    assert shapes == {(1, 1), (1, 2)}


def test_point_reflected_example_keeps_tag_flips_frame():
    # (x,y) -> (-x,-y) of example (1): sides swap, offsets negate
    right = AffineField(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([-1.0, -1.0]))
    left = AffineField(np.array([[0.2, 1.0], [-1.01, 0.0]]), np.array([0.0, -1.0]))
    rep = coexistence(FilippovSystem(left=left, right=right))
    assert (rep.n_crossing, rep.n_sliding) == (0, 1)
    rec = [r for r in rep.records if r.kind == "sliding"][0]
    assert rec.configuration == ConfigurationLabel("F1A_a", (-1, -1, 1))


def test_time_reversal_swaps_stability_and_inverts_multiplier():
    for n in (5, 6):
        sys = _helper_example(n)
        fwd = coexistence(sys)
        bwd = coexistence(sys.time_reversed())
        assert (fwd.n_crossing, fwd.n_sliding) == (bwd.n_crossing, bwd.n_sliding)
        assert _helper_tags(fwd) == _helper_tags(bwd)
        for mf, mb in zip(_helper_crossing_mults(fwd), _helper_crossing_mults(bwd)):
            assert mb == pytest.approx(1.0 / mf, rel=1e-6)
    st_fwd = {r.configuration.frame[2] for r in coexistence(_helper_example(6)).records if r.configuration}
    st_bwd = {
        r.configuration.frame[2]
        for r in coexistence(_helper_example(6).time_reversed()).records
        if r.configuration
    }
    assert st_fwd == {1} and st_bwd == {-1}


def test_standard_center_record_excluded_from_counts():
    left = AffineField(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    right = AffineField(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0]))
    rep = coexistence(FilippovSystem(left=left, right=right))
    assert (rep.n_crossing, rep.n_sliding) == (0, 0)
    kinds = [r.kind for r in rep.records]
    assert kinds == ["standard"]
    rec = rep.records[0]
    assert rec.multiplier == 1.0
    assert rec.orbit.terminal_event.period == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_saddle_saddle_pair_has_no_periodic_orbits():
    # both zones host saddles, so the necessary focus condition fails even
    # though both tangencies are visible
    left = AffineField(np.array([[0.0, 1.0], [4.0, 0.0]]), np.array([1.0, -1.0]))
    right = AffineField(np.array([[0.0, 1.0], [4.0, 0.0]]), np.array([0.0, 1.0]))
    sys = FilippovSystem(left=left, right=right)
    assert find_sliding_orbits(sys) == []
    assert find_crossing_orbits(sys) == []
    assert check_premises(sys).admissible_focus_side == "none"


def test_transversal_flow_has_empty_census():
    # a12 = 0 on both sides: no tangencies, the line is crossed everywhere
    f = AffineField(np.eye(2), np.array([1.0, 0.0]))
    rep = coexistence(FilippovSystem(left=f, right=f))
    assert (rep.n_crossing, rep.n_sliding) == (0, 0)
    assert rep.records == ()


def test_classify_rejects_wrong_record_counts():
    sys = _helper_example(1)
    rep = coexistence(sys)
    rec = [r for r in rep.records if r.kind == "sliding"][0]
    with pytest.raises(ValueError):
        classify_configuration([], sys)
    with pytest.raises(ValueError):
        classify_configuration([rec, rec, rec], sys)


def test_exclusion_checker_is_a_hard_failure():
    rep = coexistence(_helper_example(6))
    cross = [r for r in rep.records if r.kind == "crossing"]
    _check_exclusions(ConfigurationLabel("F2A_b", (1, 1, 1)), cross)
    with pytest.raises(TheoremViolation):
        _check_exclusions(ConfigurationLabel("F2A_a", (1, 1, 1)), cross)
    with pytest.raises(TheoremViolation):
        _check_exclusions(ConfigurationLabel("F2A_c", (1, 1, 1)), [])
    weak = [replace(cross[0], multiplier=0.5)]
    with pytest.raises(TheoremViolation):
        _check_exclusions(ConfigurationLabel("F1A_c", (1, 1, 1)), weak)
    _check_exclusions(ConfigurationLabel("F1A_c", (1, 1, -1)), weak)


def test_multiplier_sign_matches_displacement_slope():
    for n in (6, 7):
        sys = _helper_example(n)
        params, record = to_canonical(sys)
        assert not record.time_reversed
        zeros = zeros_of_D(make_context(params))
        mults = _helper_crossing_mults(coexistence(sys))
        assert len(zeros) == len(mults)
        for z, m in zip(zeros, mults):
            assert math.copysign(1.0, m - 1.0) == z.D_prime_sign


def test_scenario_rho_critical_census():
    rho_c = solve_rho_c(0.05)
    assert rho_c == pytest.approx(RHO_C_005, abs=1e-12)
    rep = scenario_example1(0.05, rho_c)
    assert (rep.n_crossing, rep.n_sliding) == (2, 1)
    assert _helper_tags(rep) == {"F1A_a"}
    ys = _helper_crossing_ys(rep)
    assert ys[0] == pytest.approx(0.3202415317211747, abs=1e-8)
    assert ys[1] == pytest.approx(0.3239268587, abs=1e-8)
    inner, outer = _helper_crossing_mults(rep)
    # the grazing cycle is superstable from the sliding side
    assert inner == 0.0
    assert outer > 1.0


def test_scenario_rho_windows():
    rho_c = solve_rho_c(0.05)
    above = scenario_example1(0.05, rho_c + 1e-3)
    assert (above.n_crossing, above.n_sliding) == (1, 2)
    assert _helper_tags(above) == {"F2A_c"}
    below = scenario_example1(0.05, rho_c - 1e-5)
    assert (below.n_crossing, below.n_sliding) == (2, 1)
    assert _helper_tags(below) == {"F1A_a"}
    ys = _helper_crossing_ys(below)
    assert ys[0] == pytest.approx(0.3206607601, abs=1e-7)
    assert ys[1] == pytest.approx(0.3234844250, abs=1e-7)
    m_in, m_out = _helper_crossing_mults(below)
    assert m_in < 1.0 < m_out


def test_scenario_eta_critical_value():
    assert solve_eta_c(-2.05) == pytest.approx(ETA_C_205, abs=1e-9)


def test_scenario_eta_windows():
    eta_c = solve_eta_c(-2.05)
    above = scenario_example2(-2.05, eta_c + 0.1)
    assert (above.n_crossing, above.n_sliding) == (2, 1)
    assert _helper_tags(above) == {"F1A_b"}
    ys = _helper_crossing_ys(above)
    assert ys[0] == pytest.approx(0.100688117, rel=1e-6)
    assert ys[1] == pytest.approx(7167.9595302, rel=1e-6)
    below = scenario_example2(-2.05, eta_c - 1e-3)
    assert (below.n_crossing, below.n_sliding) == (3, 0)
    ys = _helper_crossing_ys(below)
    assert ys[0] == pytest.approx(0.002049337, rel=1e-5)
    assert ys[1] == pytest.approx(0.029716419, rel=1e-5)
    assert ys[2] == pytest.approx(7169.3759989, rel=1e-6)


def test_scenario_eta_critical_orbit_grazes_tangency():
    eta_c = solve_eta_c(-2.05)
    g1 = -2.05
    rho = (4.0 + g1 * g1) * math.expm1(2.0 * math.pi) / 8.0
    right = AffineField(np.array([[2.0, 1.0], [-2.0, 0.0]]), np.array([0.0, 1.0]))
    left = AffineField(
        np.array([[g1, 1.0], [-1.0 - g1 * g1 / 4.0, 0.0]]), np.array([eta_c, rho])
    )
    orb = filippov_orbit(FilippovSystem(left=left, right=right), (0.0, 0.0))
    assert orb.terminal_event.kind == "Closed"
    # the returning arc lands on the launch tangency itself: the flag for the
    # crossing-sliding transition
    assert any(abs(g) < 1e-9 for g in orb.grazed_tangencies)
    lap = orb.segments[orb.lap_start or 0 :]
    assert [s.kind for s in lap] == ["flow", "flow"]


def test_random_sweep_stays_inside_taxonomy():
    rng = np.random.default_rng(2026)
    allowed = {"F1A_a", "F1A_b", "F1A_c", "F1A_d", "F2A_a", "F2A_b", "F2A_c"}
    seen = set()
    for _ in range(300):
        M = rng.uniform(-3.0, 3.0, size=(2, 2, 3))
        sys = FilippovSystem(
            left=AffineField(M[0][:, :2], M[0][:, 2]),
            right=AffineField(M[1][:, :2], M[1][:, 2]),
        )
        rep = coexistence(sys, budget=60)
        assert rep.n_sliding <= 2
        for r in rep.records:
            if r.configuration is not None:
                assert r.configuration.tag in allowed
                seen.add((rep.n_crossing, rep.n_sliding))
        if rep.n_sliding >= 1:
            premises = check_premises(sys)
            assert premises.cross_products_distinct
            assert premises.admissible_focus_side != "none"
    assert seen  # the draw is fixed; some censuses do carry sliding orbits


def test_sliding_records_imply_focus_stability_side():
    # no repulsive segment: the admissible focus must be unstable (spiralling
    # out into the attracting slide); fully repulsive orbits need the mirror
    for n, stab in ((1, "unstable"), (6, "unstable")):
        sys = _helper_example(n)
        rep = coexistence(sys)
        assert rep.n_sliding >= 1
        side = check_premises(sys).admissible_focus_side
        assert side != "none"
        pick = "right" if side in ("right", "both") else "left"
        assert equilibrium_info(sys.field(pick), pick).stability == stab


def _helper_random_draw(seed, draw):
    """System number `draw` (0-based) of the random sweep seeded with `seed`."""
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        _random_system(rng)
    return _random_system(rng)


def _helper_assert_crossings_close(sys, rep):
    for r in rep.records:
        if r.kind != "crossing":
            continue
        y0 = r.orbit.segments[0].start[1]
        z = (0.0, y0)
        for seg in r.orbit.segments:
            _, z = first_return_to_axis(sys.field(seg.side), z, seg.side)
        assert abs(z[1] - y0) <= 1e-8 * max(1.0, abs(y0))


@pytest.mark.parametrize(
    "seed, draw",
    [(20260823, 5023), (2001, 1159), (4006, 858), (2008, 308), (2009, 1284), (2010, 4114)],
)
def test_scan_reports_only_closing_crossing_cycles(seed, draw):
    # the shooting scan's root solver can converge onto a jump of the return
    # displacement at the edge of its launch domain; such a "root" is no cycle
    sys = _helper_random_draw(seed, draw)
    rep = coexistence(sys, budget=60)
    _helper_assert_crossings_close(sys, rep)


@pytest.mark.parametrize("draw, counts", [(18, (0, 1)), (40, (0, 0))])
def test_canonical_draws_whose_orbits_leave_float_range(draw, counts):
    # check 6's canonical draws at seed 20260823: a tangency orbit spirals out
    # past 1e307, where a first return used to land at y = -inf or at a height
    # whose velocity overflows, and end in a spurious equilibrium
    rng = np.random.default_rng(20260823)
    for _ in range(draw):
        _random_addcond_params(rng)
    sys = _random_addcond_params(rng).realize()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = coexistence(sys)
    assert (rep.n_crossing, rep.n_sliding) == counts


@pytest.mark.parametrize("name", ["example6", "crossing_sliding_rho"])
def test_orbit_started_on_a_crossing_cycle_still_closes(name):
    # the closure check runs before the outward-spiral test, so a start on
    # the cycle that drifts by rounding closes instead of ending OutwardSpiral
    sys = resolve_spec(name).normalized()
    ys = _helper_crossing_ys(coexistence(sys))
    assert ys
    for y in ys:
        orbit = filippov_orbit(sys, (0.0, y))
        assert orbit.terminal_event.kind == "Closed"
        lap = orbit.segments[orbit.lap_start :]
        assert [s.kind for s in lap] == ["flow", "flow"]


def test_sliding_search_first_returns_stay_bounded(monkeypatch):
    # deterministic work guard: axis returns spent by find_sliding_orbits on
    # the first 60 canonical draws at seed 20260823.  Following outward
    # spirals to the segment budget took 18,037; stopping them at the first
    # outward lap takes about 500
    calls = 0
    inner = flow.first_return_to_axis

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(flow, "first_return_to_axis", counted)
    rng = np.random.default_rng(20260823)
    for _ in range(60):
        sys = _random_addcond_params(rng).realize()
        try:
            find_sliding_orbits(sys)
        except (DegenerateField, DegenerateTangency):
            continue
    assert 0 < calls <= 600
