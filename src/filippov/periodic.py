"""Enumeration and classification of periodic orbits.

Three kinds of closed trajectory can coexist in these systems: crossing
cycles that pierce the switching line transversally at two points, sliding
cycles that carry at least one segment of the line itself, and standard
cycles confined to one zone (only around a center, for affine pieces).
This module finds all of them, labels the sliding configuration against a
fixed taxonomy, and checks the hard coexistence exclusions that the
taxonomy implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .canonical import CanonicalParams, to_canonical
from .core import (
    AffineField,
    FilippovSystem,
    RegionLabel,
    crossing_sets,
    equilibrium_info,
    sigma_decomposition,
    tangency_points,
)
from .errors import (
    ConditionViolated,
    DegenerateField,
    DeltaNotOne,
    DomainError,
    EtaZero,
    NoAdmissibleFocus,
    NoReturn,
    TheoremViolation,
    WindowNotFound,
)
from .flow import (
    _CLOSURE_TOL,
    FlowSegment,
    Orbit,
    SlideSegment,
    TerminalEvent,
    filippov_orbit,
    first_return_to_axis,
)
from .halfmaps import derivatives, make_context, solve_t_hats, zeros_of_D
from .roots import brentq

__all__ = [
    "ConfigurationLabel",
    "PeriodicOrbitRecord",
    "CoexistenceReport",
    "find_sliding_orbits",
    "find_crossing_orbits",
    "classify_configuration",
    "coexistence",
    "scenario_example1",
    "solve_rho_c",
    "scenario_example2",
    "solve_eta_c",
]

_SIG_TOL = 1e-7
_GRAZE_TOL = 1e-9


@dataclass(frozen=True)
class ConfigurationLabel:
    """Taxonomy tag plus the frame that maps the system onto the model pose.

    frame = (sx, sy, st): signs applied to x, y and t.  A -1 in st means the
    tagged picture appears after time reversal (the sliding set is repulsive
    in forward time).
    """

    tag: str
    frame: tuple[int, int, int]


@dataclass(frozen=True)
class PeriodicOrbitRecord:
    kind: str  # "standard" | "crossing" | "sliding"
    orbit: Orbit
    axis_signature: tuple
    multiplier: Optional[float]
    configuration: Optional[ConfigurationLabel] = None


@dataclass(frozen=True)
class CoexistenceReport:
    n_crossing: int
    n_sliding: int
    records: tuple[PeriodicOrbitRecord, ...]


# ---------------------------------------------------------------------------
# Orbit post-processing helpers


def _lap_segments(orbit: Orbit) -> tuple:
    start = orbit.lap_start if orbit.lap_start is not None else 0
    return orbit.segments[start:]


def _reverse_segment(seg):
    if seg.kind == "slide":
        return SlideSegment(
            y_start=seg.y_end, y_end=seg.y_start, duration=seg.duration
        )
    return FlowSegment(
        side=seg.side, start=seg.end, end=seg.start, duration=seg.duration
    )


def _lap_orbit(orbit: Orbit, reverse: bool = False) -> Orbit:
    """Strip transient segments, keeping one closed lap (forward in time)."""
    segs = _lap_segments(orbit)
    if reverse:
        segs = tuple(_reverse_segment(s) for s in reversed(segs))
    period = sum(s.duration for s in segs)
    if orbit.terminal_event.kind == "Closed":
        point = orbit.terminal_event.point
    else:
        first = segs[0]
        point = (0.0, first.y_start) if first.kind == "slide" else first.start
    return Orbit(
        segments=tuple(segs),
        terminal_event=TerminalEvent("Closed", point=point, period=period),
        axis_states=(),
        grazed_tangencies=orbit.grazed_tangencies,
        lap_start=0,
    )


def _axis_signature(orbit: Orbit) -> tuple:
    sig = []
    for seg in _lap_segments(orbit):
        if seg.kind == "slide":
            sig.append(("S", float(seg.y_start), float(seg.y_end)))
        else:
            tag = "R" if seg.side == "right" else "L"
            sig.append((tag, float(seg.start[1]), float(seg.end[1])))
    return tuple(sig)


def _signatures_match(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    n = len(a)
    scale = 1.0 + max(
        (abs(v) for item in a + b for v in item[1:]), default=0.0
    )
    for shift in range(n):
        ok = True
        for i in range(n):
            p, q = a[i], b[(i + shift) % n]
            if p[0] != q[0]:
                ok = False
                break
            if abs(p[1] - q[1]) > _SIG_TOL * scale or abs(p[2] - q[2]) > _SIG_TOL * scale:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Sliding orbits


def find_sliding_orbits(sys: FilippovSystem, budget: int = 200) -> list[PeriodicOrbitRecord]:
    """All periodic orbits with at least one sliding segment.

    Every such orbit must leave the line through a visible tangency, so
    seeding the flow at each visible tangency of the forward and of the
    time-reversed system reaches them all.  The time-reversed runs recover
    orbits whose sliding piece is repulsive; their laps are flipped back so
    the stored orbit always runs forward in the original time.
    """
    found: list[PeriodicOrbitRecord] = []
    seen: list[tuple] = []
    runs = ((sys, False), (sys.time_reversed(), True))
    for work, reversed_time in runs:
        for tp in tangency_points(work):
            if tp.visibility != "visible":
                continue
            try:
                orbit = filippov_orbit(work, tp.location, budget=budget)
            except OverflowError:
                # the seeded arc leaves float range before returning; no
                # periodic orbit passes through representable territory here
                continue
            if orbit.terminal_event.kind != "Closed":
                continue
            lap = _lap_segments(orbit)
            if not any(s.kind == "slide" for s in lap):
                continue
            if not all(math.isfinite(s.duration) for s in lap):
                continue
            clean = _lap_orbit(orbit, reverse=reversed_time)
            sig = _axis_signature(clean)
            if any(_signatures_match(sig, s) for s in seen):
                continue
            seen.append(sig)
            found.append(
                PeriodicOrbitRecord(
                    kind="sliding",
                    orbit=clean,
                    axis_signature=sig,
                    multiplier=None,
                )
            )
    if len(found) > 2:
        raise TheoremViolation(
            f"{len(found)} distinct sliding periodic orbits; at most two can exist"
        )
    return found


# ---------------------------------------------------------------------------
# Crossing orbits


def _manual_crossing_orbit(sys: FilippovSystem, y: float) -> Orbit:
    """Assemble the two-arc cycle through (0, y) directly from half returns.

    Fallback for zeros where the event-driven builder terminates early, e.g.
    when the cycle grazes a tangency and the flow classifies the touch as a
    sliding entry.
    """
    z0 = np.array([0.0, float(y)])
    t_r, z1 = first_return_to_axis(sys.right, z0, "right")
    t_l, z2 = first_return_to_axis(sys.left, z1, "left")
    segs = (
        FlowSegment(side="right", start=(0.0, float(z0[1])), end=(0.0, float(z1[1])), duration=t_r),
        FlowSegment(side="left", start=(0.0, float(z1[1])), end=(0.0, float(z2[1])), duration=t_l),
    )
    return Orbit(
        segments=segs,
        terminal_event=TerminalEvent(
            "Closed", point=(0.0, float(y)), period=t_r + t_l
        ),
        axis_states=(),
        grazed_tangencies=(),
        lap_start=0,
    )


def _crossing_orbit_record(
    sys: FilippovSystem, y: float, multiplier: float, budget: int
) -> PeriodicOrbitRecord:
    try:
        orbit = filippov_orbit(sys, (0.0, float(y)), budget=budget)
    except OverflowError:
        orbit = None
    if (
        orbit is not None
        and orbit.terminal_event.kind == "Closed"
        and not any(s.kind == "slide" for s in _lap_segments(orbit))
    ):
        clean = _lap_orbit(orbit)
    else:
        clean = _manual_crossing_orbit(sys, y)
    return PeriodicOrbitRecord(
        kind="crossing",
        orbit=clean,
        axis_signature=_axis_signature(clean),
        multiplier=multiplier,
    )


def _route_a_crossings(sys: FilippovSystem, budget: int) -> list[PeriodicOrbitRecord]:
    params, record = to_canonical(sys)
    ctx = make_context(params)
    out: list[PeriodicOrbitRecord] = []
    for z in zeros_of_D(ctx):
        der = derivatives(z.y_zero, ctx)
        # dPLinv can be -inf at the parametric endpoint; IEEE division then
        # gives a clean 0.0, the superstable one-sided multiplier
        mult = der.dPR / der.dPLinv
        if record.time_reversed:
            mult = math.inf if mult == 0.0 else 1.0 / mult
        y_sys = record.pullback_axis(z.y_zero)
        out.append(_crossing_orbit_record(sys, y_sys, mult, budget))
    out.sort(key=lambda r: r.orbit.segments[0].start[1])
    return out


def _scan_grid(lo: float, hi: float) -> list[float]:
    """Scan heights on a launch half-line: its finite edge, then offsets
    from it growing geometrically from 1e-8 to 1e7."""
    if hi == math.inf:
        return [lo] + [lo + 10.0 ** (j / 8.0) for j in range(-64, 57)]
    return [hi - 10.0 ** (j / 8.0) for j in range(56, -65, -1)] + [hi]


def _crossings_by_scan(sys: FilippovSystem, budget: int) -> list[PeriodicOrbitRecord]:
    """Shoot right half-returns and left half-returns over the crossing set.

    Used whenever the closed-form route is unavailable (no admissible focus,
    delta != 1, sign conditions fail after the shear).  The launch set is
    where both fields point rightward; the landing of the right arc must sit
    where both point leftward or the composite return is undefined.
    """
    launch, landing = crossing_sets(sys)
    if launch is None:
        return []

    lo, hi = landing

    def G(y: float) -> float:
        _, z1 = first_return_to_axis(sys.right, (0.0, y), "right")
        u = float(z1[1])
        tol = 1e-11 * (1.0 + abs(u))
        if not (lo - tol <= u <= hi + tol):
            raise DomainError("right arc does not land in the leftward set")
        _, z2 = first_return_to_axis(sys.left, (0.0, u), "left")
        return float(z2[1]) - y

    skip = (DomainError, NoReturn, OverflowError)
    ys = _scan_grid(*launch)
    vals: list[tuple[float, Optional[float]]] = []
    for y in ys:
        try:
            vals.append((y, G(y)))
        except skip:
            vals.append((y, None))

    roots: list[float] = []

    def push(r: float) -> None:
        if all(abs(r - s) > 1e-9 * (1.0 + abs(s)) for s in roots):
            roots.append(r)

    for (y0, g0), (y1, g1) in zip(vals, vals[1:]):
        if g0 is None or g1 is None:
            continue
        if g0 == 0.0:
            push(y0)
        elif g0 * g1 < 0.0:
            # brentq also converges onto a jump of G (at the edge of the
            # launch domain), so keep only roots where the cycle closes
            try:
                r = brentq(G, y0, y1, xtol=1e-12, rtol=8.9e-16)
                if abs(G(r)) <= _CLOSURE_TOL * max(1.0, abs(r)):
                    push(r)
            except skip:
                pass
    for y, g in vals:
        if g is not None and abs(g) < 1e-11 * (1.0 + abs(y)):
            push(y)

    out = []
    for r in sorted(roots):
        h = 1e-6 * (1.0 + abs(r))
        slope = None
        for a, b in ((r + h, r - h), (r + h, r), (r, r - h)):
            try:
                slope = (G(a) - G(b)) / (a - b)
            except skip:
                continue
            break
        if slope is None:
            # the root sits on the edge of the launch domain where G itself
            # stops being evaluable; not a robust cycle, drop it
            continue
        out.append(_crossing_orbit_record(sys, r, slope + 1.0, budget))
    return out


def find_crossing_orbits(sys: FilippovSystem, budget: int = 200) -> list[PeriodicOrbitRecord]:
    """All crossing periodic orbits, with multipliers.

    Prefers the closed-form displacement route through the canonical
    reduction; systems outside its hypotheses fall back to a shooting scan
    of the composite half-return map.
    """
    try:
        return _route_a_crossings(sys, budget)
    except (
        NoAdmissibleFocus,
        DegenerateField,
        EtaZero,
        ConditionViolated,
        DeltaNotOne,
        OverflowError,
    ):
        # OverflowError: the closed forms carry e^(gamma3 t) factors that can
        # exceed float range for extreme spiral ratios, and PoleUnresolved
        # marks heights no float arc time reaches; the shooting scan handles
        # those systems with per-probe guards instead
        return _crossings_by_scan(sys, budget)


# ---------------------------------------------------------------------------
# Configuration taxonomy


def _arc_junction_ys(lap: Sequence) -> list[float]:
    """Axis heights where one flow arc hands directly to the next."""
    n = len(lap)
    out = []
    for i in range(n):
        s, t = lap[i], lap[(i + 1) % n]
        if s.kind == "flow" and t.kind == "flow":
            out.append(float(s.end[1]))
    return out


def _shape_of(lap: Sequence, tangency_ys: Sequence[float]) -> tuple[int, int, bool]:
    slides = sum(1 for s in lap if s.kind == "slide")
    arcs = sum(1 for s in lap if s.kind == "flow")
    graze = any(
        abs(yj - yt) <= _GRAZE_TOL * (1.0 + abs(yt))
        for yj in _arc_junction_ys(lap)
        for yt in tangency_ys
    )
    return slides, arcs, graze


def _is_repulsive(lap: Sequence, sigma) -> bool:
    for s in lap:
        if s.kind != "slide":
            continue
        mid = 0.5 * (s.y_start + s.y_end)
        if sigma.label_at(mid) is RegionLabel.REPULSIVE_SLIDING:
            return True
    return False


def _frame_with_exit(lap: Sequence, repulsive: bool) -> tuple[float, tuple[int, int, int]]:
    """Best (slide exit height, frame) over the lap's slide-to-arc junctions.

    A double-slide lap has two such junctions, and a configuration pair has
    one per member; anchoring at the highest exit tangency makes the model
    pose itself read as the identity frame.
    """
    st = -1 if repulsive else 1
    if repulsive:
        lap = [_reverse_segment(s) for s in reversed(lap)]
    n = len(lap)
    best = (-math.inf, (1, 1, st))
    for i in range(n):
        s, t = lap[i], lap[(i + 1) % n]
        if s.kind == "slide" and t.kind == "flow":
            sx = 1 if t.side == "right" else -1
            sy = 1 if s.y_end > s.y_start else -1
            if s.y_end > best[0]:
                best = (s.y_end, (sx, sy, st))
    return best


def _single_frame(lap: Sequence, repulsive: bool) -> tuple[int, int, int]:
    return _frame_with_exit(lap, repulsive)[1]


def classify_configuration(
    records: Sequence[PeriodicOrbitRecord], sys: FilippovSystem
) -> ConfigurationLabel:
    """Match 1 or 2 sliding orbits against the sliding-cycle taxonomy.

    Singles: one slide and one arc (F1A_a); one slide and two arcs,
    crossing the line transversally (F1A_b) or grazing the opposite
    tangency (F1A_c); two slides and two arcs (F1A_d).  Pairs: one
    attractive plus one repulsive cycle (F2A_a); two cycles of equal
    one-slide one-arc shape at opposite tangencies (F2A_b); shapes
    (1 slide, 1 arc) and (1 slide, 2 arcs) nested (F2A_c).  Anything
    else gets the honest tag "Other".
    """
    sliding = [r for r in records if r.kind == "sliding"]
    if len(sliding) not in (1, 2):
        raise ValueError(
            f"configuration labels need 1 or 2 sliding orbits, got {len(sliding)}"
        )
    sigma = sigma_decomposition(sys)
    tys = [tp.y for tp in tangency_points(sys)]
    laps = [list(_lap_segments(r.orbit)) for r in sliding]
    shapes = [_shape_of(lap, tys) for lap in laps]
    reps = [_is_repulsive(lap, sigma) for lap in laps]

    if len(sliding) == 1:
        (slides, arcs, graze), rep = shapes[0], reps[0]
        frame = _single_frame(laps[0], rep)
        if (slides, arcs) == (1, 1):
            return ConfigurationLabel("F1A_a", frame)
        if (slides, arcs) == (1, 2):
            return ConfigurationLabel("F1A_c" if graze else "F1A_b", frame)
        if (slides, arcs) == (2, 2):
            return ConfigurationLabel("F1A_d", frame)
        return ConfigurationLabel("Other", frame)

    if reps[0] != reps[1]:
        k = reps.index(False)
        frame = _single_frame(laps[k], False)
        if all(sh[:2] == (1, 1) for sh in shapes):
            return ConfigurationLabel("F2A_a", frame)
        return ConfigurationLabel("Other", frame)
    order = sorted(range(2), key=lambda i: (shapes[i][0], shapes[i][1]))
    key = [shapes[i][:2] for i in order]
    if key == [(1, 1), (1, 1)]:
        frame = max(_frame_with_exit(laps[i], reps[i]) for i in order)[1]
        return ConfigurationLabel("F2A_b", frame)
    if key == [(1, 1), (1, 2)]:
        return ConfigurationLabel("F2A_c", _single_frame(laps[order[0]], reps[order[0]]))
    return ConfigurationLabel("Other", _single_frame(laps[order[0]], reps[order[0]]))


# ---------------------------------------------------------------------------
# Coexistence


def _standard_records(sys: FilippovSystem) -> list[PeriodicOrbitRecord]:
    """One representative per admissible linear center (a continuum exists)."""
    out = []
    for side in ("left", "right"):
        info = equilibrium_info(sys.field(side), side)
        if info.kind == "center" and info.placement == "admissible":
            A = np.asarray(sys.field(side).A, dtype=float)
            period = 2.0 * math.pi / math.sqrt(float(np.linalg.det(A)))
            sgn = 1.0 if side == "right" else -1.0
            cx, cy = info.location
            z0 = (cx + sgn * 0.25 * (1.0 + abs(cx)), cy)
            seg = FlowSegment(side=side, start=z0, end=z0, duration=period)
            orbit = Orbit(
                segments=(seg,),
                terminal_event=TerminalEvent("Closed", point=z0, period=period),
                axis_states=(),
                grazed_tangencies=(),
                lap_start=0,
            )
            out.append(
                PeriodicOrbitRecord(
                    kind="standard",
                    orbit=orbit,
                    axis_signature=(),
                    multiplier=1.0,
                )
            )
    return out


def _check_exclusions(
    label: ConfigurationLabel, crossing: Sequence[PeriodicOrbitRecord]
) -> None:
    if label.tag == "F2A_a":
        if crossing:
            raise TheoremViolation(
                "an attractive-repulsive sliding pair forbids crossing cycles, "
                f"found {len(crossing)}"
            )
        return
    if label.tag in ("F2A_b", "F2A_c", "F1A_c", "F1A_d"):
        if len(crossing) != 1:
            raise TheoremViolation(
                f"configuration {label.tag} forces exactly one crossing cycle, "
                f"found {len(crossing)}"
            )
        mult = crossing[0].multiplier
        st = label.frame[2]
        ok = (mult is not None) and (mult > 1.0 if st > 0 else mult < 1.0)
        if not ok:
            raise TheoremViolation(
                f"configuration {label.tag} forces an "
                f"{'unstable' if st > 0 else 'stable'} crossing cycle, "
                f"multiplier {mult}"
            )


def coexistence(sys: FilippovSystem, budget: int = 200) -> CoexistenceReport:
    """Full periodic-orbit census with the coexistence exclusions enforced.

    Counts cover crossing and sliding cycles only; standard cycles around a
    linear center come in continua, so a single representative record is
    appended without entering the counts.
    """
    sliding = find_sliding_orbits(sys, budget=budget)
    crossing = find_crossing_orbits(sys, budget=budget)
    if sliding:
        label = classify_configuration(sliding, sys)
        _check_exclusions(label, crossing)
        sliding = [replace(r, configuration=label) for r in sliding]
    records = tuple(crossing) + tuple(sliding) + tuple(_standard_records(sys))
    return CoexistenceReport(
        n_crossing=len(crossing), n_sliding=len(sliding), records=records
    )


# ---------------------------------------------------------------------------
# The two tuned scenarios


def _example1_system(alpha: float, rho: float) -> FilippovSystem:
    right = AffineField(
        np.array([[2.0 * alpha, 1.0], [-1.0 - alpha * alpha, 0.0]]),
        np.array([0.0, 1.0]),
    )
    left = AffineField(
        np.array([[2.0, 1.0], [-2.0, 0.0]]), np.array([1.0, rho])
    )
    return FilippovSystem(left=left, right=right)


def scenario_example1(alpha: float, rho: float) -> CoexistenceReport:
    """Census of the tuned family with a steep left focus and offset rho."""
    return coexistence(_example1_system(alpha, rho))


def solve_rho_c(alpha: float) -> float:
    """Left offset at which the crossing cycle grazes the left tangency.

    The graze happens when the backward right arc from the left tangency
    (0, -1) and the left half-turn landing from it meet the same height,
    which is linear in rho and solved in closed form.
    """
    right = _example1_system(alpha, 0.0).right
    _, z = first_return_to_axis(right.negated(), (0.0, -1.0), "right")
    y2 = float(z[1])
    probe = CanonicalParams(
        alpha=alpha, beta=1.0, delta=1, eta=1.0, rho=0.0,
        gamma1=1.0, gamma2=-1.0, gamma3=1.0,
    )
    t_minus, _ = solve_t_hats(probe)
    return (y2 + 1.0) / (math.sin(t_minus) * math.exp(t_minus))


def _example2_system(gamma1: float, eta: float) -> FilippovSystem:
    rho = (4.0 + gamma1 * gamma1) * math.expm1(2.0 * math.pi) / 8.0
    right = AffineField(
        np.array([[2.0, 1.0], [-2.0, 0.0]]), np.array([0.0, 1.0])
    )
    left = AffineField(
        np.array([[gamma1, 1.0], [-1.0 - gamma1 * gamma1 / 4.0, 0.0]]),
        np.array([eta, rho]),
    )
    return FilippovSystem(left=left, right=right)


def scenario_example2(gamma1: float, eta: float) -> CoexistenceReport:
    """Census of the tuned family with an invisible left tangency."""
    return coexistence(_example2_system(gamma1, eta))


def solve_eta_c(gamma1: float) -> float:
    """Left offset scale at which the tangent cycle through (0, 0) closes.

    g(eta) is the height reached after one right arc from the visible
    tangency and one left return; its sign change is bracketed on a
    geometric ladder and polished by brentq.
    """

    def g(eta: float) -> float:
        sys = _example2_system(gamma1, eta)
        _, z1 = first_return_to_axis(sys.right, (0.0, 0.0), "right")
        _, z2 = first_return_to_axis(sys.left, z1, "left")
        return float(z2[1])

    etas = [0.5 * 1.1 ** k for k in range(0, 64)]
    prev: Optional[tuple[float, float]] = None
    for eta in etas:
        if eta > 200.0:
            break
        try:
            val = g(eta)
        except (DomainError, NoReturn, OverflowError):
            prev = None
            continue
        if prev is not None and prev[1] * val < 0.0:
            return brentq(g, prev[0], eta, xtol=1e-12, rtol=8.9e-16)
        if val == 0.0:
            return eta
        prev = (eta, val)
    raise WindowNotFound(
        f"no sign change of the tangent-cycle closure for gamma1={gamma1}"
    )
