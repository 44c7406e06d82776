"""Tests for the canonical reduction, the left-half shear, and pattern keys."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from filippov.canonical import (
    CanonicalParams,
    check_premises,
    classify_csl,
    shear_to_equal_gammas,
    to_canonical,
)
from filippov.core import (
    AffineField,
    FilippovSystem,
    RegionLabel,
    classify_point,
    sigma_decomposition,
)
from filippov.errors import DegenerateField, DeltaNotOne, EtaZero, NoAdmissibleFocus


def _helper_flow(field, z0, t):
    G = np.zeros((3, 3))
    G[:2, :2] = field.A
    G[:2, 2] = field.b
    return (expm(G * t) @ np.array([z0[0], z0[1], 1.0]))[:2]


def _helper_focus_field(A, z_eq):
    A = np.array(A, dtype=float)
    z_eq = np.array(z_eq, dtype=float)
    return AffineField(A, -A @ z_eq)


_SADDLE = AffineField([[1.0, 0.5], [0.3, -1.0]], [1.0, 1.0])


def test_params_accessors():
    p = CanonicalParams(alpha=1, beta=2, delta=1, eta=1, rho=0, gamma1=1, gamma2=-2, gamma3=3)
    assert p.tau == 4.0
    assert p.Delta == 1 * 3 - (-2)
    assert p.nu == pytest.approx(np.sqrt(2))


def test_realize_right_block_shape():
    p = CanonicalParams(alpha=0.3, beta=1.5, delta=0, eta=1, rho=2, gamma1=1, gamma2=1, gamma3=1)
    sys = p.realize()
    np.testing.assert_allclose(sys.right.A, [[0.6, 1.0], [-1.09, 0.0]])
    np.testing.assert_allclose(sys.right.b, [0.0, 1.5])
    assert sys.right.discriminant == pytest.approx(-4.0)


def test_satisfies_addcond():
    good = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=0, gamma1=1, gamma2=-1, gamma3=1)
    assert good.satisfies_addcond()
    # rho - gamma3*eta must be negative
    bad = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=2, gamma1=1, gamma2=-1, gamma3=1)
    assert not bad.satisfies_addcond()
    assert not CanonicalParams(
        alpha=1, beta=1, delta=0, eta=1, rho=0, gamma1=1, gamma2=-1, gamma3=1
    ).satisfies_addcond()


def test_check_premises_scenario():
    sys = CanonicalParams(
        alpha=0.5, beta=1, delta=1, eta=1, rho=-1, gamma1=2, gamma2=-2, gamma3=0
    ).realize()
    rep = check_premises(sys)
    assert rep.cross_products_distinct
    assert rep.admissible_focus_side == "both"
    assert rep.focus_stability == {"left": "unstable", "right": "unstable"}


def test_check_premises_symmetric_and_saddles():
    f = AffineField([[0.2, 1.0], [-1.0, 0.2]], [0.5, 0.5])
    rep = check_premises(FilippovSystem(left=f, right=f))
    assert not rep.cross_products_distinct

    rep2 = check_premises(FilippovSystem(left=_SADDLE, right=_SADDLE))
    assert rep2.admissible_focus_side == "none"
    assert rep2.focus_stability == {}


def test_check_premises_degenerate_raises():
    deg = AffineField([[1.0, 2.0], [0.5, 1.0]], [1.0, 0.0])
    with pytest.raises(DegenerateField):
        check_premises(FilippovSystem(left=deg, right=_SADDLE))


def test_to_canonical_idempotent_on_canonical_input():
    p0 = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=0, gamma1=0, gamma2=-1, gamma3=0)
    p, rec = to_canonical(p0.realize())
    for name in ("alpha", "beta", "eta", "rho", "gamma1", "gamma2", "gamma3"):
        assert getattr(p, name) == pytest.approx(getattr(p0, name), abs=1e-12)
    assert p.delta == 1 and p.m == -1
    np.testing.assert_allclose(rec.map_right.P, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rec.map_right.q, 0, atol=1e-12)
    assert rec.time_left == pytest.approx(1.0)
    assert rec.time_right == pytest.approx(1.0)
    assert not rec.mirror and not rec.time_reversed


def test_to_canonical_alpha_sign_tracks_stability():
    # Unstable admissible right focus (trace > 0).
    fr = _helper_focus_field([[1.0, 2.0], [-3.0, 0.5]], (1.2, -0.4))
    sys = FilippovSystem(left=AffineField([[0.5, 1.5], [-1.0, -0.2]], [2.0, 1.0]), right=fr)
    p, rec = to_canonical(sys)
    assert p.alpha > 0 and p.m == -1 and p.beta > 0
    assert not rec.time_reversed

    # Stable admissible right focus (trace < 0).
    fr_s = _helper_focus_field([[-1.0, 2.0], [-3.0, -0.5]], (1.2, -0.4))
    sys_s = FilippovSystem(left=AffineField([[0.5, 1.5], [-1.0, -0.2]], [2.0, 1.0]), right=fr_s)
    p_s, _ = to_canonical(sys_s)
    assert p_s.alpha < 0 and p_s.m == -1


def test_to_canonical_errors():
    with pytest.raises(NoAdmissibleFocus):
        to_canonical(FilippovSystem(left=_SADDLE, right=_SADDLE))
    # Both first offset components zero: cross products coincide.
    fr = _helper_focus_field([[1.0, 2.0], [-3.0, 0.5]], (1.2, -0.4))
    fr = AffineField(fr.A, [0.0, fr.b[1]])
    fl = AffineField([[0.5, 1.5], [-1.0, -0.2]], [0.0, 1.0])
    with pytest.raises(EtaZero):
        to_canonical(FilippovSystem(left=fl, right=fr))


# the steps every reduction ends with, after its frame's own
_CHAIN_TAIL = ("right-similarity", "zone-time-rescale", "x-rescale")


def _helper_orbit_correspondence(sys, z0_right, z0_left, n_samples=100):
    """Push orbit samples through the record; compare with the canonical flow."""
    p, rec = to_canonical(sys)
    # every step of the chain maps both halves alike
    assert np.array_equal(rec.map_left.P, rec.map_right.P)
    assert np.array_equal(rec.map_left.q, rec.map_right.q)
    can = p.realize()
    worst = 0.0
    for side, z0 in (("right", z0_right), ("left", z0_left)):
        f = sys.field(side)
        sigma = rec.time_right if side == "right" else rec.time_left
        sgn = -1.0 if rec.time_reversed else 1.0
        w0 = rec.push(np.array(z0, dtype=float))
        new_side = side
        if rec.mirror:
            new_side = "left" if side == "right" else "right"
        assert (w0[0] > 0) == (new_side == "right")
        g = can.field(new_side)
        for t in np.linspace(0.0, 0.4, n_samples):
            z = _helper_flow(f, z0, t)
            if (z[0] > 0) != (side == "right"):
                break
            w_direct = rec.push(z)
            w_flow = _helper_flow(g, w0, sgn * sigma * t)
            worst = max(worst, float(np.max(np.abs(w_direct - w_flow))))
    return p, rec, worst


def test_orbit_correspondence_direct():
    fr = _helper_focus_field([[1.0, 2.0], [-3.0, 0.5]], (1.2, -0.4))
    sys = FilippovSystem(left=AffineField([[0.5, 1.5], [-1.0, -0.2]], [2.0, 1.0]), right=fr)
    _, rec, worst = _helper_orbit_correspondence(sys, (1.5, 0.3), (-1.0, 0.5))
    assert worst < 1e-8
    assert not rec.mirror and not rec.time_reversed
    assert rec.steps == ("identity", *_CHAIN_TAIL)


def test_orbit_correspondence_mirror():
    fl = _helper_focus_field([[0.3, 1.0], [-2.0, 0.1]], (-0.9, 0.6))
    sys = FilippovSystem(left=fl, right=_SADDLE)
    _, rec, worst = _helper_orbit_correspondence(sys, (0.8, -0.2), (-0.6, 0.4))
    assert worst < 1e-8
    assert rec.mirror and not rec.time_reversed
    assert rec.steps == ("identity", "mirror", "y-flip", *_CHAIN_TAIL)


def test_orbit_correspondence_reversed():
    # Clockwise-incompatible rotation sense on the right: time reversal kicks in.
    fr = _helper_focus_field([[0.4, -2.0], [3.0, 0.2]], (0.7, 0.5))
    sys = FilippovSystem(left=AffineField([[0.5, 1.5], [-1.0, -0.2]], [2.0, 1.0]), right=fr)
    _, rec, worst = _helper_orbit_correspondence(sys, (1.0, 0.5), (-0.8, -0.3))
    assert worst < 1e-8
    assert rec.time_reversed and not rec.mirror
    assert rec.steps == ("identity", "time-reversal", *_CHAIN_TAIL)


def test_orbit_correspondence_reversed_mirror():
    fl = _helper_focus_field([[0.2, -1.5], [2.5, -0.1]], (-1.1, 0.3))
    sys = FilippovSystem(left=fl, right=_SADDLE)
    _, rec, worst = _helper_orbit_correspondence(sys, (0.5, 0.1), (-0.7, 0.6))
    assert worst < 1e-8
    assert rec.time_reversed and rec.mirror
    assert rec.steps == ("identity", "time-reversal", "mirror", "y-flip", *_CHAIN_TAIL)


def test_record_round_trip_and_orientation():
    fr = _helper_focus_field([[1.0, 2.0], [-3.0, 0.5]], (1.2, -0.4))
    sys = FilippovSystem(left=AffineField([[0.5, 1.5], [-1.0, -0.2]], [2.0, 1.0]), right=fr)
    _, rec = to_canonical(sys)
    assert np.linalg.det(rec.map_left.P) > 0
    assert np.linalg.det(rec.map_right.P) > 0
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(1000, 2))
    for z in pts:
        back = rec.pullback(rec.push(z))
        np.testing.assert_allclose(back, z, atol=1e-12)
    for y in np.linspace(-3, 3, 7):
        assert abs(rec.push([0.0, y])[0]) < 1e-12


def test_shear_identity_when_equal():
    p = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=0, gamma1=1, gamma2=-1, gamma3=1)
    out, rec = shear_to_equal_gammas(p)
    assert out == p
    np.testing.assert_allclose(rec.map_left.P, np.eye(2), atol=1e-15)


def test_shear_example_values():
    p = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=-1, gamma1=2, gamma2=-2, gamma3=0)
    out, rec = shear_to_equal_gammas(p)
    assert (out.gamma1, out.gamma2, out.gamma3) == (1.0, -1.0, 1.0)
    assert (out.eta, out.rho) == (1.0, 0.0)
    # Trace and determinant of the left block are preserved.
    assert out.gamma1 + out.gamma3 == pytest.approx(p.gamma1 + p.gamma3)
    assert out.gamma1 * out.gamma3 - out.gamma2 == pytest.approx(
        p.gamma1 * p.gamma3 - p.gamma2
    )
    # Shear acts only on the left half and fixes the axis.
    np.testing.assert_allclose(rec.map_right.P, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(rec.map_left.apply([0.0, 2.0]), [0.0, 2.0], atol=1e-15)
    assert np.linalg.det(rec.map_left.P) == pytest.approx(1.0)


def test_shear_focus_family_gammas():
    alpha = 0.01
    p = CanonicalParams(
        alpha=alpha, beta=1, delta=1, eta=1, rho=-1,
        gamma1=2 * alpha, gamma2=-1 - alpha**2, gamma3=0,
    )
    out, _ = shear_to_equal_gammas(p)
    assert out.gamma1 == pytest.approx(alpha)
    assert out.gamma3 == pytest.approx(alpha)
    assert out.gamma2 == pytest.approx(-1.0)


def test_shear_preserves_axis_labels():
    p = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=-1, gamma1=2, gamma2=-2, gamma3=0)
    out, _ = shear_to_equal_gammas(p)
    a, b = p.realize(), out.realize()
    for y in np.linspace(-3, 3, 61):
        assert classify_point(a, float(y)) is classify_point(b, float(y))


def test_shear_left_orbits_correspond():
    p = CanonicalParams(alpha=1, beta=1, delta=1, eta=1, rho=-1, gamma1=2, gamma2=-2, gamma3=0)
    out, rec = shear_to_equal_gammas(p)
    f_old = p.realize().left
    f_new = out.realize().left
    z0 = np.array([-1.0, 0.5])
    w0 = rec.push(z0)
    for t in np.linspace(0, 0.5, 11):
        z = _helper_flow(f_old, z0, t)
        if z[0] >= 0:
            break
        np.testing.assert_allclose(rec.push(z), _helper_flow(f_new, w0, t), atol=1e-10)


def test_shear_requires_delta_one():
    p = CanonicalParams(alpha=1, beta=1, delta=0, eta=1, rho=0, gamma1=1, gamma2=-1, gamma3=0)
    with pytest.raises(DeltaNotOne):
        shear_to_equal_gammas(p)


def test_classify_csl_table():
    base = dict(alpha=1, beta=1, rho=0.3, gamma1=0, gamma2=-1, gamma3=0)
    cases = {
        (0, -1.0): "a",
        (0, 1.0): "b",
        (-1, -1.0): "c",
        (-1, 1.0): "d",
        (1, -1.0): "e",
        (1, 1.0): "f",
    }
    for (d, e), want in cases.items():
        assert classify_csl(CanonicalParams(delta=d, eta=e, **base)) == want
    with pytest.raises(EtaZero):
        classify_csl(CanonicalParams(delta=1, eta=0.0, **base))


def _helper_pattern_signature(sys):
    dec = sigma_decomposition(sys)
    seq = tuple(iv.label for iv in dec.intervals)
    pts = tuple(lab for _, lab in dec.points)
    return seq, pts


def test_classify_csl_matches_decomposition():
    C = RegionLabel.CROSSING
    A = RegionLabel.ATTRACTIVE_SLIDING
    R = RegionLabel.REPULSIVE_SLIDING
    TL = RegionLabel.TANGENCY_LEFT
    TR = RegionLabel.TANGENCY_RIGHT
    expected = {
        "a": ((C, R), (TR,)),
        "b": ((A, C), (TR,)),
        "c": ((A, C, R), (TL, TR)),
        "d": ((A, C, R), (TR, TL)),
        "e": ((C, R, C), (TR, TL)),
        "f": ((C, A, C), (TL, TR)),
    }
    base = dict(alpha=1, beta=1, rho=0.3, gamma1=0, gamma2=-1, gamma3=0)
    for d in (-1, 0, 1):
        for e in (-1.0, 1.0):
            p = CanonicalParams(delta=d, eta=e, **base)
            key = classify_csl(p)
            assert _helper_pattern_signature(p.realize()) == expected[key]
