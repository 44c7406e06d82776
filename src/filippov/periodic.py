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

from .core import (
    FilippovSystem,
    RegionLabel,
    SLIDING_LABELS,
    classify_point,
    crossing_sets,
    equilibrium_info,
    tangency_points,
)
from .errors import DomainError, NoReturn, TheoremViolation
from .flow import (
    _CLOSURE_TOL,
    FlowSegment,
    Orbit,
    SlideSegment,
    TerminalEvent,
    filippov_orbit,
    first_return_to_axis,
    snap_to_tangency,
)
from .roots import brentq

__all__ = [
    "ConfigurationLabel",
    "PeriodicOrbitRecord",
    "CoexistenceReport",
    "find_sliding_orbits",
    "find_crossing_orbits",
    "classify_configuration",
    "coexistence",
]

# an arc that does not return, or leaves float range before it does, is no
# arc of a crossing cycle
_NO_ARC = (DomainError, NoReturn, OverflowError)


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


def _reversed(segments) -> tuple:
    """The same lap run backwards in time."""
    return tuple(
        SlideSegment(y_start=s.y_end, y_end=s.y_start, duration=s.duration)
        if s.kind == "slide"
        else FlowSegment(side=s.side, start=s.end, end=s.start, duration=s.duration)
        for s in reversed(segments)
    )


def _closed_lap(segments, grazes) -> Orbit:
    """One closed lap, forward in time, as a periodic orbit's record."""
    segments = tuple(segments)
    return Orbit(
        segments=segments,
        terminal_event=TerminalEvent("Closed", period=sum(s.duration for s in segments)),
        grazed_tangencies=tuple(grazes),
        lap_start=0,
    )


def _axis_signature(segments) -> tuple:
    sig = []
    for seg in segments:
        if seg.kind == "slide":
            sig.append(("S", float(seg.y_start), float(seg.y_end)))
        else:
            tag = "R" if seg.side == "right" else "L"
            sig.append((tag, float(seg.start[1]), float(seg.end[1])))
    return tuple(sig)


# ---------------------------------------------------------------------------
# Sliding orbits


# A crossing lap, an arc from a crossing point p to the other half-line and
# one back to p' != p on p's half-line, never returns to p: its arcs and the
# axis from p to p' bound a region, the flow crosses that stretch of axis one
# way only, and p is reached only from the other side.  So a sliding cycle
# holds no crossing lap, and as half-return maps nest outward, at most two
# arcs follow each slide exit.  Slides end at the at most two tangency
# heights, each once per period.
_LAP_SEGMENTS = 6  # 2 * (1 slide + 2 arcs)


def find_sliding_orbits(sys: FilippovSystem) -> list[PeriodicOrbitRecord]:
    """All periodic orbits with at least one sliding segment.

    Each is one lap from a visible tangency of the forward or time-reversed
    system back onto that tangency's own float, where slides end and grazing
    landings snap.  Reversed laps are flipped back to run forward in time.
    """
    found: list[PeriodicOrbitRecord] = []
    # the flow from a tangency is unique, so the exit heights and the time
    # direction name the cycle; one met after a transient is found again
    # from its own exit tangency
    seen: set[tuple] = set()
    runs = ((sys, False), (sys.time_reversed(), True))
    for work, reversed_time in runs:
        for tp in tangency_points(work):
            if tp.visibility != "visible":
                continue
            try:
                orbit = filippov_orbit(work, tp.location, budget=_LAP_SEGMENTS)
            except _NO_ARC:
                # the seeded arc does not return, or leaves float range or
                # time resolution first: no lap through this tangency
                continue
            ends = [s.y_end if s.kind == "slide" else s.end[1] for s in orbit.segments]
            lap = orbit.segments[: ends.index(tp.y) + 1] if tp.y in ends else ()
            key = (reversed_time, frozenset(s.y_end for s in lap if s.kind == "slide"))
            if not key[1] or key in seen or not all(math.isfinite(s.duration) for s in lap):
                continue
            seen.add(key)
            clean = _closed_lap(_reversed(lap) if reversed_time else lap, orbit.grazed_tangencies)
            found.append(
                PeriodicOrbitRecord(
                    kind="sliding",
                    orbit=clean,
                    axis_signature=_axis_signature(clean.segments),
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


def _crossing_record(sys: FilippovSystem, y: float) -> Optional[PeriodicOrbitRecord]:
    """The two-arc crossing lap from (0, y), or None when it does not
    return or does not close.

    The lap leaves into the side both fields point to at y: right on the
    launch set, left on the landing set, where the scan's upper half-line
    can put y.  Each landing snaps onto a tangency it grazes.  The lap
    closes only on the crossing half-line it left from or on the tangency
    that ends it: a last landing that `classify_point` puts in a sliding
    set is left to the sliding search, which slides from it, however close
    to y it lands.  The multiplier is the Liouville product over the two
    arcs, P' = prod |f_x(z0) / f_x(z1)| e^(tr(A) t): an arc leaving its own
    zone's tangency contributes 0, one landing on it makes the slope
    infinite.
    """
    tangencies = tangency_points(sys)
    first = "right" if sys.vx_right(y) + sys.vx_left(y) > 0.0 else "left"
    segs: list[FlowSegment] = []
    grazes: list[float] = []
    ratio, exponent = 1.0, 0.0
    y0 = float(y)
    for side in (first, "left" if first == "right" else "right"):
        f = sys.field(side)
        try:
            t, (_, y1) = first_return_to_axis(f, (0.0, y0), side)
        except _NO_ARC:
            return None
        y1 = snap_to_tangency(y1, [tp.y for tp in tangencies], grazes)
        own = [tp.y for tp in tangencies if tp.side == side]
        v0 = 0.0 if y0 in own else abs(f.axis_velocity(y0)[0])
        v1 = 0.0 if y1 in own else abs(f.axis_velocity(y1)[0])
        if v0 == 0.0 or ratio == 0.0:
            ratio = 0.0
        elif v1 == 0.0:
            ratio = math.inf
        else:
            ratio *= v0 / v1
        exponent += f.trace * t
        segs.append(FlowSegment(side=side, start=(0.0, y0), end=(0.0, y1), duration=t))
        y0 = y1
    closed = abs(y0 - y) <= _CLOSURE_TOL * max(1.0, abs(y))
    if not closed or classify_point(sys, y0) in SLIDING_LABELS:
        return None
    return PeriodicOrbitRecord(
        kind="crossing",
        orbit=_closed_lap(segs, grazes),
        axis_signature=_axis_signature(segs),
        multiplier=ratio * math.exp(exponent) if 0.0 < ratio < math.inf else ratio,
    )


def _arc(sys: FilippovSystem, side: str, y: float) -> tuple[float, float]:
    """Landing height u of the arc from (0, y) into `side`, forward in time
    where both fields point into that side and backward where both point
    out, and its slope du/dy = f_x(0, y) / f_x(0, u) e^(tr(f) t) for the
    field f actually run.  A landing on f's own tangency or an exponential
    beyond float range makes the slope non-finite, never an error."""
    f = sys.field(side)
    if (sys.vx_right(y) + sys.vx_left(y) > 0.0) != (side == "right"):
        f = f.negated()
    t, (_, u) = first_return_to_axis(f, (0.0, y), side)
    try:
        slope = f.axis_velocity(y)[0] / f.axis_velocity(u)[0] * math.exp(f.trace * t)
    except (ZeroDivisionError, OverflowError):
        slope = math.inf
    return u, slope


def _changes_sign(a: float, b: float) -> bool:
    return min(a, b) <= 0.0 <= max(a, b)


def _lattice_values(D, grid: list[float], mid: int, probe) -> list[tuple[float, float]]:
    """(y, D(y)) at the points of `grid` that can end a bracket of a zero.

    D(y) gives (D, D') or raises one of `_NO_ARC`; `probe` is its value at
    grid[mid].  From the first, middle and last points, a gap between
    evaluated points is halved at its middle lattice point while D or D'
    changes sign across it, or D' is not finite at an end, down to adjacent
    points.  A gap across which D and D' keep their signs is not entered: a
    pair of zeros inside it would need D' to change sign twice.  A point
    whose arc does not return has every lattice point of its gaps
    evaluated, as the full lattice would.  No point is evaluated twice.
    """
    vals = {mid: probe}

    def at(k: int) -> Optional[tuple[float, float]]:
        if k not in vals:
            try:
                vals[k] = D(grid[k])
            except _NO_ARC:
                vals[k] = None
        return vals[k]

    gaps = [(0, mid), (mid, len(grid) - 1)]
    while gaps:
        i, j = gaps.pop()
        p, q = at(i), at(j)
        if j - i < 2:
            continue
        if p is None or q is None:
            for k in range(i + 1, j):
                at(k)
        elif (
            _changes_sign(p[0], q[0])
            or not (math.isfinite(p[1]) and math.isfinite(q[1]))
            or _changes_sign(p[1], q[1])
        ):
            m = (i + j) // 2
            gaps += [(i, m), (m, j)]
    return [(grid[k], v[0]) for k, v in sorted(vals.items()) if v is not None]


def _half_line_ends(sys: FilippovSystem) -> Optional[tuple[float, float]]:
    """(edge, lo): the upper crossing half-line [edge, inf) and the lower one's end."""
    launch, landing = crossing_sets(sys)
    if launch is None:
        return None
    return (launch[0], landing[1]) if launch[1] == math.inf else (landing[0], launch[1])


def _scan_heights(sys: FilippovSystem) -> list[float]:
    """Heights of the zeros of D(y) = u_L(y) - u_R(y) on the upper crossing
    half-line, where u_s is the landing of `_arc` into side s.

    Mirroring or reversing time leaves the half-line and both arcs as they
    are.  D's domain is cut at the half-line's end, at each arc's preimage
    of the lower crossing set's end and at the axis heights of real
    eigenvector lines through an equilibrium; a midpoint probe decides each
    piece.  A fixed geometric lattice, dense toward the piece's finite ends,
    holds the possible bracket ends, and `_lattice_values` evaluates D only
    at those the sign changes of D and of its slope D' call for.  Brent's
    method polishes each sign change of D between consecutive evaluated
    points to 1e-15: a lap multiplies the error of its start height by the
    multiplier.  The cuts are proposed too: a cycle can graze a tangency or
    sit closer to an invariant line than floats resolve.
    """
    ends = _half_line_ends(sys)
    if ends is None:
        return []
    edge, lo = ends
    cuts = {edge}
    for side in ("right", "left"):
        try:
            cuts.add(_arc(sys, side, lo)[0])
        except _NO_ARC:
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

    def D(y: float) -> tuple[float, float]:
        (u_l, s_l), (u_r, s_r) = _arc(sys, "left", y), _arc(sys, "right", y)
        return u_l - u_r, s_l - s_r

    heights = list(cuts)
    for a, b in zip(cuts, cuts[1:] + [math.inf]):
        if b == math.inf:
            end = a + max(1.0, abs(a))
            grid = [a + (end - a) * 10.0 ** (k / 2.0) for k in range(-16, 15)]
        else:
            offsets = [(b - a) * 10.0 ** (-k / 2.0) for k in range(16, 0, -1)]
            grid = [a + o for o in offsets] + [0.5 * (a + b)] + [b - o for o in reversed(offsets)]
        mid = 16
        try:
            # an arc's landing crosses the lower set's end only at a cut, so
            # the middle point tells whether both land in that set on the piece
            (u_r, s_r), (u_l, s_l) = _arc(sys, "right", grid[mid]), _arc(sys, "left", grid[mid])
        except _NO_ARC:
            continue
        if max(u_r, u_l) > lo:
            continue
        vals = _lattice_values(D, grid, mid, (u_l - u_r, s_l - s_r))
        for (y0, d0), (y1, d1) in zip(vals, vals[1:]):
            if _changes_sign(d0, d1):
                try:
                    heights.append(brentq(lambda y: D(y)[0], y0, y1, xtol=1e-15))
                except _NO_ARC:
                    pass
    out: list[float] = []  # heights closer than the closure tolerance name one lap
    for y in sorted(heights):
        if not out or y - out[-1] > _CLOSURE_TOL * max(1.0, abs(y)):
            out.append(y)
    return out


def find_crossing_orbits(sys: FilippovSystem) -> list[PeriodicOrbitRecord]:
    """All crossing periodic orbits, with multipliers.

    Candidate heights are the zeros of the displacement D scanned from the
    two fields' exact arcs; one lap builder turns each height into a record.
    """
    heights = _scan_heights(sys)
    records = [r for r in (_crossing_record(sys, y) for y in heights) if r is not None]
    return sorted(records, key=lambda r: r.orbit.segments[0].start[1])


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
    # a grazing landing was snapped onto the tangency's own float
    graze = any(yj in tangency_ys for yj in _arc_junction_ys(lap))
    return slides, arcs, graze


def _is_repulsive(lap: Sequence, sys: FilippovSystem) -> bool:
    return any(
        classify_point(sys, 0.5 * (s.y_start + s.y_end)) is RegionLabel.REPULSIVE_SLIDING
        for s in lap
        if s.kind == "slide"
    )


def _frame_with_exit(lap: Sequence, repulsive: bool) -> tuple[float, tuple[int, int, int]]:
    """Best (slide exit height, frame) over the lap's slide-to-arc junctions.

    A double-slide lap has two such junctions, and a configuration pair has
    one per member; anchoring at the highest exit tangency makes the model
    pose itself read as the identity frame.
    """
    st = -1 if repulsive else 1
    if repulsive:
        lap = _reversed(lap)
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
    tys = [tp.y for tp in tangency_points(sys)]
    laps = [r.orbit.segments for r in sliding]
    shapes = [_shape_of(lap, tys) for lap in laps]
    reps = [_is_repulsive(lap, sys) for lap in laps]

    if len(sliding) == 1:
        (slides, arcs, graze), rep = shapes[0], reps[0]
        frame = _frame_with_exit(laps[0], rep)[1]
        if (slides, arcs) == (1, 1):
            return ConfigurationLabel("F1A_a", frame)
        if (slides, arcs) == (1, 2):
            return ConfigurationLabel("F1A_c" if graze else "F1A_b", frame)
        if (slides, arcs) == (2, 2):
            return ConfigurationLabel("F1A_d", frame)
        return ConfigurationLabel("Other", frame)

    if reps[0] != reps[1]:
        k = reps.index(False)
        frame = _frame_with_exit(laps[k], False)[1]
        if all(sh[:2] == (1, 1) for sh in shapes):
            return ConfigurationLabel("F2A_a", frame)
        return ConfigurationLabel("Other", frame)
    order = sorted(range(2), key=lambda i: (shapes[i][0], shapes[i][1]))
    key = [shapes[i][:2] for i in order]
    if key == [(1, 1), (1, 1)]:
        frame = max(_frame_with_exit(laps[i], reps[i]) for i in order)[1]
        return ConfigurationLabel("F2A_b", frame)
    if key == [(1, 1), (1, 2)]:
        return ConfigurationLabel("F2A_c", _frame_with_exit(laps[order[0]], reps[order[0]])[1])
    return ConfigurationLabel("Other", _frame_with_exit(laps[order[0]], reps[order[0]])[1])


# ---------------------------------------------------------------------------
# Coexistence


def _standard_records(sys: FilippovSystem) -> list[PeriodicOrbitRecord]:
    """One representative per admissible linear center (a continuum exists)."""
    out = []
    for side in ("left", "right"):
        f = sys.field(side)
        info = equilibrium_info(f, side)
        if info.kind == "center" and info.placement == "admissible":
            omega = math.sqrt(f.det)
            period = 2.0 * math.pi / omega
            cx, cy = info.location
            # from (cx + d, cy) the orbit swings d * hypot(1, a11 / omega) in
            # x about cx: half the center's distance keeps it off the line
            z0 = (cx + 0.5 * cx / math.hypot(1.0, f.entries[0] / omega), cy)
            seg = FlowSegment(side=side, start=z0, end=z0, duration=period)
            orbit = Orbit(
                segments=(seg,),
                terminal_event=TerminalEvent("Closed", point=z0, period=period),
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


def coexistence(sys: FilippovSystem, budget: Optional[int] = None) -> CoexistenceReport:
    """Full periodic-orbit census with the coexistence exclusions enforced.

    Counts cover crossing and sliding cycles only; standard cycles around a
    linear center come in continua, so a single representative record is
    appended without entering the counts.  `budget` has no effect: it is
    accepted for callers written when the sliding search had one.
    """
    sliding = find_sliding_orbits(sys)
    crossing = find_crossing_orbits(sys)
    if sliding:
        label = classify_configuration(sliding, sys)
        _check_exclusions(label, crossing)
        sliding = [replace(r, configuration=label) for r in sliding]
    records = tuple(crossing) + tuple(sliding) + tuple(_standard_records(sys))
    return CoexistenceReport(
        n_crossing=len(crossing), n_sliding=len(sliding), records=records
    )
