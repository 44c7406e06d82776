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

from filippov.acceptance import (
    _random_addcond_params,
    _random_system,
    scenario_example1,
    scenario_example2,
    solve_eta_c,
    solve_rho_c,
)
from filippov.canonical import check_premises, to_canonical
from filippov import cli, flow, periodic
from filippov.core import (
    AffineField,
    FilippovSystem,
    RawSystem,
    crossing_sets,
    equilibrium_info,
    normalize_to_y_axis,
    tangency_points,
)
from filippov.errors import (
    ConditionViolated,
    DegenerateField,
    DegenerateTangency,
    DeltaNotOne,
    EtaZero,
    NoAdmissibleFocus,
    TheoremViolation,
)
from filippov.flow import _CLOSURE_TOL, filippov_orbit, first_return_to_axis, linear_flow
from filippov.halfmaps import derivatives, make_context, zeros_of_D
from filippov.periodic import (
    ConfigurationLabel,
    _check_exclusions,
    _standard_records,
    classify_configuration,
    coexistence,
    find_crossing_orbits,
    find_sliding_orbits,
)
from filippov.roots import brentq
from filippov.specfile import BUNDLED_NAMES, resolve_spec

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
    # crossing_sliding_eta takes the scan route; shooting the lap map from
    # the launch set once lost the reversed image of one of its two cycles
    systems = [_helper_example(5), _helper_example(6)]
    systems.append(resolve_spec("crossing_sliding_eta").normalized())
    for sys in systems:
        fwd = coexistence(sys)
        bwd = coexistence(sys.time_reversed())
        assert (fwd.n_crossing, fwd.n_sliding) == (bwd.n_crossing, bwd.n_sliding)
        assert _helper_tags(fwd) == _helper_tags(bwd)
        want = sorted(1.0 / m for m in _helper_crossing_mults(fwd))
        assert sorted(_helper_crossing_mults(bwd)) == pytest.approx(want, rel=1e-6)
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


@pytest.mark.parametrize(
    "side, A, center",
    [
        ("right", [[0.0, 1.0], [-1.0, 0.0]], (0.1, 0.0)),
        ("right", [[1.0, 2.0], [-1.0, -1.0]], (0.5, 0.3)),
        ("left", [[0.0, -1.0], [1.0, 0.0]], (-1.0, 0.0)),
    ],
)
def test_standard_center_record_stays_in_its_zone(side, A, center):
    # the representative started 0.25 (1 + |cx|) from the center, so the
    # orbit of a center at x = 0.1 dipped to x = -0.175, across the line
    field = AffineField(A, -np.asarray(A) @ np.asarray(center))
    other = AffineField(-np.eye(2), [1.0 if side == "left" else -1.0, 0.0])
    sys = FilippovSystem(**{side: field, ("left" if side == "right" else "right"): other})
    (rec,) = _standard_records(sys)
    (seg,) = rec.orbit.segments
    sign = 1.0 if side == "right" else -1.0
    for k in range(257):
        z = linear_flow(field, seg.start, seg.duration * k / 256.0)
        assert sign * z[0] > 0.0
    np.testing.assert_allclose(z, seg.start, atol=1e-12)


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


@pytest.mark.parametrize(
    "census, critical",
    [
        (lambda v: scenario_example2(-2.05, v), lambda: solve_eta_c(-2.05)),
        (lambda v: scenario_example1(0.05, v), lambda: solve_rho_c(0.05)),
    ],
    ids=["eta", "rho"],
)
def test_census_switches_once_at_the_critical_offset(census, critical):
    # across the critical value the tangent cycle turns from a crossing cycle
    # into a sliding one: one census on each side, never both at once, with
    # the switch within 1e-8 of the closed form
    c = critical()
    offsets = [10.0 ** (k / 2.0) for k in range(-26, -11)]
    offsets = sorted([-o for o in offsets] + offsets)
    counts = []
    for off in offsets:
        rep = census(c + off)
        counts.append((rep.n_crossing, rep.n_sliding))
    below, above = counts[0], counts[-1]
    assert below != above
    assert set(counts) == {below, above}, list(zip(offsets, counts))
    switch = counts.index(above)
    assert counts[switch:] == [above] * (len(counts) - switch), list(zip(offsets, counts))
    assert offsets[switch - 1] < 1e-8 and offsets[switch] > -1e-8


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
        rep = coexistence(sys)
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
    rep = coexistence(sys)
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


@pytest.mark.parametrize("reversed_time", [False, True])
def test_census_of_a_field_too_fast_to_resolve_skips_the_tangency(reversed_time):
    # check 1's draw 37 with both fields scaled by 1e20 turns a half-turn in
    # 3.7e-20, inside the time floor: the tangency's lap has no resolvable
    # arc and is skipped, as a crossing lap is, instead of failing the census
    sys = _helper_random_draw(20260823, 37)
    rep = coexistence(sys)
    assert (rep.n_crossing, rep.n_sliding) == (0, 0)
    big = FilippovSystem(
        left=AffineField(np.asarray(sys.left.A) * 1e20, np.asarray(sys.left.b) * 1e20),
        right=AffineField(np.asarray(sys.right.A) * 1e20, np.asarray(sys.right.b) * 1e20),
    )
    if reversed_time:
        big = big.time_reversed()
    rep = coexistence(big)
    assert (rep.n_crossing, rep.n_sliding) == (0, 0)


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
    # outward lap took 496, and one lap of at most six segments takes 495
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


def test_census_walks_each_axis_return_once_per_field_and_start(monkeypatch):
    # deterministic work guard: axis-return walks computed by coexistence on
    # the first 200 canonical draws at seed 20260823.  Without the per-field
    # memo of returns all 6,914 were walked (7,077 calls); with it 5,464
    walks = 0
    inner = flow._walk_to_axis

    def counted(*args):
        nonlocal walks
        walks += 1
        return inner(*args)

    monkeypatch.setattr(flow, "_walk_to_axis", counted)
    rng = np.random.default_rng(20260823)
    for _ in range(200):
        sys = _random_addcond_params(rng).realize()
        try:
            coexistence(sys)
        except (DegenerateField, DegenerateTangency):
            continue
    assert 0 < walks <= 5_800


def _helper_budget_search(sys):
    """Sliding laps as the search found them while it had a segment budget:
    each visible tangency's orbit run to 200 segments and kept when it ends
    Closed, its lap read from `lap_start`, a cycle named by its time
    direction and exit heights."""
    laps, seen = [], set()
    for work, reversed_time in ((sys, False), (sys.time_reversed(), True)):
        for tp in tangency_points(work):
            if tp.visibility != "visible":
                continue
            try:
                orbit = filippov_orbit(work, tp.location, budget=200)
            except OverflowError:
                continue
            if orbit.terminal_event.kind != "Closed":
                continue
            lap = orbit.segments[orbit.lap_start :]
            key = (reversed_time, frozenset(s.y_end for s in lap if s.kind == "slide"))
            if not key[1] or key in seen or not all(math.isfinite(s.duration) for s in lap):
                continue
            seen.add(key)
            lap = periodic._reversed(lap) if reversed_time else lap
            laps.append(periodic._closed_lap(lap, orbit.grazed_tangencies))
    if len(laps) > 2:
        raise TheoremViolation(f"{len(laps)} sliding orbits")
    return laps


def _helper_sliding_outcome(search, sys):
    try:
        return search(sys)
    except (DegenerateField, DegenerateTangency, TheoremViolation) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "draw_system, n",
    [(_random_system, 2000), (lambda rng: _random_addcond_params(rng).realize(), 200)],
    ids=["check-1", "canonical"],
)
def test_sliding_search_matches_the_budgeted_search(draw_system, n):
    # reference oracle: one lap from each exit tangency, closed on the
    # tangency's own float, finds the same laps as following each tangency
    # orbit for 200 segments to a confirmed closure, forward and reversed
    def laps(sys):
        return [r.orbit for r in find_sliding_orbits(sys)]

    rng = np.random.default_rng(20260823)
    found = 0
    for draw in range(n):
        sys = draw_system(rng)
        for work in (sys, sys.time_reversed()):
            want = _helper_sliding_outcome(_helper_budget_search, work)
            assert _helper_sliding_outcome(laps, work) == want, draw
            found += isinstance(want, list) and len(want)
    assert found


def test_census_ignores_a_budget():
    # callers written for the budgeted search still pass one
    rng = np.random.default_rng(20260823)
    for _ in range(40):
        sys = _random_system(rng)
        try:
            want = coexistence(sys)
        except (DegenerateField, DegenerateTangency):
            continue
        assert coexistence(sys, budget=60) == want


@pytest.mark.parametrize("draw", [1097, 4253, 5618, 5808, 6190, 6830, 8316])
def test_scan_multipliers_of_nearly_superstable_cycles_are_positive(draw):
    # check 1's draws at seed 20260823 whose cycles contract by 1e-9 or
    # more per lap: a finite-difference slope of the lap displacement read
    # their multipliers as negative or exactly 0.0, but a crossing lap's
    # multiplier is a product of two negative half-map slopes
    rep = coexistence(_helper_random_draw(20260823, draw))
    mults = _helper_crossing_mults(rep)
    assert all(m > 0.0 for m in mults)
    # draw 8316 also carries an unstable cycle, multiplier 3.74
    assert 0.0 < min(mults) < 1e-6


def _helper_closed_form_cases():
    """(label, system) for the bundled specs, forward and time-reversed, and
    the first 200 canonical draws at seed 20260823."""
    cases = []
    for name in BUNDLED_NAMES:
        sys = resolve_spec(name).normalized()
        cases += [(name, sys), (f"{name} reversed", sys.time_reversed())]
    rng = np.random.default_rng(20260823)
    cases += [(f"canonical draw {i}", _random_addcond_params(rng).realize()) for i in range(200)]
    return cases


@pytest.fixture(scope="module")
def closed_form_censuses():
    return [(label, sys, coexistence(sys)) for label, sys in _helper_closed_form_cases()]


def test_crossing_multipliers_match_the_closed_form_derivative(closed_form_censuses):
    # differential oracle: the census scans D from the exact flows; each
    # zero of the closed-form D, pulled back, names the nearest reported lap,
    # whose Liouville product must equal dPR / dPLinv there
    refused = set()
    checked = 0
    for label, sys, rep in closed_form_censuses:
        crossing = [r for r in rep.records if r.kind == "crossing"]
        try:
            params, record = to_canonical(sys)
            ctx = make_context(params)
        except (ConditionViolated, DeltaNotOne, EtaZero, NoAdmissibleFocus):
            if crossing:
                refused.add(label)
            continue
        zeros = zeros_of_D(ctx)
        assert len(zeros) == len(crossing), label
        for z in zeros:
            y = record.pullback_axis(z.y_zero)
            rec = min(crossing, key=lambda r: abs(r.orbit.segments[0].start[1] - y))
            assert abs(rec.orbit.segments[0].start[1] - y) <= 1e-9 * max(1.0, abs(y)), label
            der = derivatives(z.y_zero, ctx)
            # dPLinv = -inf at the parametric endpoint: a clean 0.0
            want = der.dPR / der.dPLinv
            if record.time_reversed:
                want = math.inf if want == 0.0 else 1.0 / want
            assert rec.multiplier == pytest.approx(want, rel=1e-8, abs=0.0), label
            checked += 1
    # the two bundled specs that fail the closed form's sign conditions have
    # no closed-form oracle
    assert refused == {
        "example2", "example2 reversed", "crossing_sliding_eta", "crossing_sliding_eta reversed"
    }
    assert checked >= 40


def test_crossing_laps_close_on_the_closed_form_route(closed_form_censuses):
    for _, sys, rep in closed_form_censuses:
        _helper_assert_crossings_close(sys, rep)


@pytest.mark.parametrize(
    "draw, multiplier",
    [
        (3006, 940.37),
        (3358, 5.4722),
        (3487, 11.729),
        (3626, 91.294),
        (9034, 48.645),
        (6739, 9.5781e-7),
    ],
)
def test_scan_finds_the_cycle_next_to_the_lap_map_edge(draw, multiplier):
    # check 1's draws at seed 20260823 whose one crossing cycle sits next to
    # the edge of the lap map's domain, where shooting the map found no
    # bracket while it learnt that domain probe by probe.  Draw 6739's cycle
    # repels by 1e6 in reversed time: a lap multiplies the error of its start
    # height by that much, so only a root polished to 1e-15 closes it to 1e-8
    sys = _helper_random_draw(20260823, draw)
    fwd = coexistence(sys)
    bwd = coexistence(sys.time_reversed())
    _helper_assert_crossings_close(sys, fwd)
    assert _helper_crossing_mults(fwd) == [pytest.approx(multiplier, rel=1e-4)]
    assert _helper_crossing_mults(bwd) == [pytest.approx(1.0 / multiplier, rel=1e-4)]


@pytest.mark.parametrize(
    "draw_system, n, bound",
    [
        (_random_system, 300, 2_400),
        (lambda rng: _random_addcond_params(rng).realize(), 200, 8_200),
    ],
    ids=["check-1", "canonical"],
)
def test_crossing_search_first_returns_stay_bounded(monkeypatch, draw_system, n, bound):
    # deterministic work guard: axis returns spent by find_crossing_orbits on
    # the first 300 check-1 draws and the first 200 canonical draws at seed
    # 20260823.  On check 1, shooting the lap map from its lower domain edge
    # took 20,409, and evaluating D at every point of the scan's lattice took
    # 2,820; the canonical draws took 15,072.  Evaluating only the lattice
    # points where D or D' changes sign takes 1,562 and 5,462
    calls = _helper_count_first_returns(monkeypatch)
    rng = np.random.default_rng(20260823)
    for _ in range(n):
        find_crossing_orbits(draw_system(rng))
    assert 0 < calls() <= bound


def test_sweep_crossing_search_first_returns_stay_bounded(monkeypatch):
    # the 60 points of `flp sweep example7 --param b_minus.1
    # --range=-0.037:-0.034:60`: 5,064 axis returns while the scan evaluated
    # its whole lattice, 2,186 now
    calls = _helper_count_first_returns(monkeypatch)
    spec = resolve_spec("example7")
    for value in cli._parse_range("-0.037:-0.034:60"):
        find_crossing_orbits(cli._set_param(spec, "b_minus.1", float(value)).normalized())
    assert 0 < calls() <= 3_300


def _helper_count_first_returns(monkeypatch):
    """Count the axis returns `periodic` asks for from here on."""
    calls = 0
    inner = periodic.first_return_to_axis

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(periodic, "first_return_to_axis", counted)
    return lambda: calls


def _helper_landing(sys, side, y):
    return periodic._arc(sys, side, y)[0]


def _helper_dense_scan_heights(sys):
    """`_scan_heights` as it was when it evaluated D at every lattice point
    of every kept piece; `_arc` then returned the landing alone."""
    launch, landing = crossing_sets(sys)
    if launch is None:
        return []
    edge, lo = (launch[0], landing[1]) if launch[1] == math.inf else (landing[0], launch[1])
    cuts = {edge}
    for side in ("right", "left"):
        try:
            cuts.add(_helper_landing(sys, side, lo))
        except periodic._NO_ARC:
            pass
        f = sys.field(side)
        if f.discriminant >= 0.0:
            _, a12, _, a22, b1, b2 = f.entries
            root = math.sqrt(f.discriminant)
            # the invariant line along one eigenvector is w.z + w.b / lam = 0
            # for the left eigenvector w = (lam - a22, a12) of the other root
            for lam in {(f.trace + root) / 2.0, (f.trace - root) / 2.0} - {0.0}:
                cuts.add(-((lam - a22) * b1 + a12 * b2) / (lam * a12))
    cuts = sorted(c for c in cuts if edge <= c < math.inf)

    def D(y: float) -> float:
        return _helper_landing(sys, "left", y) - _helper_landing(sys, "right", y)

    heights = list(cuts)
    for a, b in zip(cuts, cuts[1:] + [math.inf]):
        if b == math.inf:
            end = a + max(1.0, abs(a))
            grid = [a + (end - a) * 10.0 ** (k / 2.0) for k in range(-16, 15)]
        else:
            offsets = [(b - a) * 10.0 ** (-k / 2.0) for k in range(16, 0, -1)]
            grid = [a + o for o in offsets] + [0.5 * (a + b)] + [b - o for o in reversed(offsets)]
        mid = grid[16]
        try:
            # an arc's landing crosses the lower set's end only at a cut, so
            # the middle point tells whether both land in that set on the piece
            u_r, u_l = _helper_landing(sys, "right", mid), _helper_landing(sys, "left", mid)
        except periodic._NO_ARC:
            continue
        if max(u_r, u_l) > lo:
            continue
        vals = []
        for y in grid:
            try:
                vals.append((y, u_l - u_r if y == mid else D(y)))
            except periodic._NO_ARC:
                pass
        for (y0, d0), (y1, d1) in zip(vals, vals[1:]):
            if min(d0, d1) <= 0.0 <= max(d0, d1):
                try:
                    heights.append(brentq(D, y0, y1, xtol=1e-15))
                except periodic._NO_ARC:
                    pass
    out: list[float] = []  # heights closer than the closure tolerance name one lap
    for y in sorted(heights):
        if not out or y - out[-1] > _CLOSURE_TOL * max(1.0, abs(y)):
            out.append(y)
    return out


@pytest.mark.parametrize(
    "draw_system, n",
    [(_random_system, 300), (lambda rng: _random_addcond_params(rng).realize(), 100)],
    ids=["check-1", "canonical"],
)
def test_scan_matches_the_dense_scan(draw_system, n):
    # reference oracle: skipping the lattice gaps across which neither D nor
    # D' changes sign leaves Brent the same brackets, so the same floats
    rng = np.random.default_rng(20260823)
    found = 0
    for draw in range(n):
        sys = draw_system(rng)
        for work in (sys, sys.time_reversed()):
            want = _helper_dense_scan_heights(work)
            assert periodic._scan_heights(work) == want, draw
            found += len(want)
    assert found


@pytest.mark.parametrize("case", ["example7", 40, 226, 307])
def test_arc_slope_matches_a_central_difference(case):
    # at each crossing cycle's start height one arc runs forward in time and
    # the other backward; both slopes are Liouville factors of the field run
    if case == "example7":
        sys = resolve_spec(case).normalized()
    else:
        sys = _helper_random_draw(20260823, case)
    heights = [r.orbit.segments[0].start[1] for r in find_crossing_orbits(sys)]
    assert heights
    for y in heights:
        directions = set()
        for side in ("right", "left"):
            h = 1e-6 * max(1.0, abs(y))
            want = (_helper_landing(sys, side, y + h) - _helper_landing(sys, side, y - h)) / (2 * h)
            assert periodic._arc(sys, side, y)[1] == pytest.approx(want, rel=1e-5), (side, y)
            directions.add((sys.vx_right(y) + sys.vx_left(y) > 0.0) == (side == "right"))
        assert directions == {True, False}


def test_arc_slope_beyond_float_range_is_not_finite():
    # an unstable node, eigenvalue 300 twice, equilibrium (-1, 0): from
    # (0, -600 / 710.3) it returns at t ~ 710.3 / 600, so e^(tr t) ~ e^710.3
    # leaves float range, but the landing, ~ -1.47e154, does not
    f = AffineField(np.array([[300.0, 1.0], [0.0, 300.0]]), np.array([300.0, 0.0]))
    sys = FilippovSystem(left=f, right=f)
    y = -600.0 / 710.3
    t, z = first_return_to_axis(f, (0.0, y), "right")
    assert f.trace * t > math.log(np.finfo(float).max)
    u, slope = periodic._arc(sys, "right", y)
    assert u == float(z[1]) and math.isfinite(u)
    assert not math.isfinite(slope)


def test_scan_refines_a_gap_with_a_non_finite_slope(monkeypatch):
    # two foci about the origin, D(y) = y (e^(pi/10) - e^pi) up to rounding:
    # D and D' keep their signs, so the scan evaluates the first, middle and
    # last of the 31 lattice points 10^(k/2), k = -16..14, of its one piece.
    # A non-finite slope at the last point sends the halving down to it
    right = AffineField(np.array([[1.0, 1.0], [-1.0, 1.0]]), np.zeros(2))
    left = AffineField(np.array([[-0.1, 1.0], [-1.0, -0.1]]), np.zeros(2))
    sys = FilippovSystem(left=left, right=right)
    lattice = [10.0 ** (k / 2.0) for k in range(-16, 15)]
    inner = periodic._arc

    def evaluated(flagged):
        ys = []

        def arc(sys, side, y):
            u, slope = inner(sys, side, y)
            if side == "right" and y in lattice:
                ys.append(y)
            return u, math.inf if y == flagged else slope

        monkeypatch.setattr(periodic, "_arc", arc)
        assert periodic._scan_heights(sys) == [0.0]
        assert len(ys) == len(set(ys))
        return sorted(lattice.index(y) for y in ys)

    assert evaluated(None) == [0, 16, 30]
    assert evaluated(lattice[30]) == [0, 16, 23, 26, 28, 29, 30]


@pytest.mark.parametrize("draw", [0, 58, 190, 251, 391, 423, 496, 593])
def test_crossing_count_survives_time_reversal(draw):
    # draws of _random_system at seed 7 whose crossing count changed when
    # time was reversed: shooting the lap map found their cycles from one
    # half-line only, where the map's domain was wide enough for its probes
    sys = _helper_random_draw(7, draw)
    fwd = coexistence(sys)
    bwd = coexistence(sys.time_reversed())
    assert fwd.n_crossing == bwd.n_crossing == 1


def _helper_window(mults):
    return sorted(m for m in mults if 1e-6 <= m <= 1e6)


def _helper_frames(sys):
    """(name, system, multiplier map) of four frames of one system."""
    S = np.diag([1.0, 3.0])
    conj = FilippovSystem(
        left=AffineField(S @ sys.left.A @ np.linalg.inv(S), S @ sys.left.b),
        right=AffineField(S @ sys.right.A @ np.linalg.inv(S), S @ sys.right.b),
    )
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    raw = RawSystem(
        plus=AffineField(R @ sys.right.A @ R.T, R @ sys.right.b),
        minus=AffineField(R @ sys.left.A @ R.T, R @ sys.left.b),
        c=R @ np.array([1.0, 0.0]),
        d=0.0,
    )
    return [
        ("time reversal", sys.time_reversed(), lambda m: 1.0 / m),
        ("mirror", sys.mirrored(), lambda m: m),
        ("conjugacy y -> 3y", conj, lambda m: m),
        ("rotated line", normalize_to_y_axis(raw)[0], lambda m: m),
    ]


def test_crossing_multipliers_survive_change_of_frame():
    # metamorphic oracle over the first 1,000 check-1 draws at seed 20260823:
    # a crossing cycle's multiplier is a property of the system, so each
    # frame reports the same ones (1/m in reversed time).  Outside [1e-6, 1e6]
    # only the time direction in which the cycle attracts can retrace it
    # forward to 1e-8, so the window leaves those out
    rng = np.random.default_rng(20260823)
    for draw in range(1000):
        sys = _random_system(rng)
        try:
            want = [r.multiplier for r in find_crossing_orbits(sys)]
        except (DegenerateField, DegenerateTangency):
            continue
        for name, other, image in _helper_frames(sys):
            got = [image(r.multiplier) for r in find_crossing_orbits(other)]
            assert _helper_window(got) == pytest.approx(_helper_window(want), rel=1e-6), (
                draw,
                name,
            )


_PINNED_MULTIPLIERS = {
    # crossing multipliers that the lap-map shooter reported on the first
    # 1,000 check-1 draws at seed 20260823, forward and in reversed time
    False: {
        40: [11.23627306], 215: [0.09339856605], 226: [0.4214752392, 6.756522294],
        307: [5.408363033], 325: [0.001398935134], 398: [0.7746061602],
        460: [15.63903283], 632: [0.2065961962], 676: [7.185791301],
        844: [0.01747974846], 889: [0.007948583295], 918: [0.007008735503],
        956: [0.04523519995],
    },
    True: {
        40: [0.0889974812], 88: [0.08296786948], 155: [0.3309657692],
        226: [0.1480051358, 2.372618619], 279: [4.749562206e-13], 307: [0.1848988306],
        398: [1.290978631], 442: [0.001220694191], 460: [0.06394257311],
        676: [0.1391635184], 844: [57.20906122], 932: [0.0008976349326],
        956: [22.10667801], 996: [0.05981984199],
    },
}


@pytest.mark.parametrize("reversed_time", [False, True])
def test_crossing_search_loses_no_pinned_cycle(reversed_time):
    rng = np.random.default_rng(20260823)
    pinned = _PINNED_MULTIPLIERS[reversed_time]
    for draw in range(max(pinned) + 1):
        sys = _random_system(rng)
        if draw not in pinned:
            continue
        if reversed_time:
            sys = sys.time_reversed()
        got = [r.multiplier for r in find_crossing_orbits(sys)]
        for m in pinned[draw]:
            assert any(abs(g - m) <= 1e-6 * m for g in got), (draw, m, got)
