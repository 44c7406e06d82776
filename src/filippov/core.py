"""Domain types and pointwise analysis for planar two-zone piecewise-affine systems.

The state space is split by the switching line {x = 0} into a left zone
(x < 0, governed by one affine field) and a right zone (x > 0, governed by
another).  This module holds the value types, the normalization that moves an
arbitrary switching line c.z + d = 0 onto the y-axis, the pointwise region
classification of the axis, the sliding vector field in the Filippov
convention, and equilibrium/tangency analysis of the individual fields.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateField, NotSlidingRegion, SpecFileError, VelocityOverflow, ZeroNormal

# Absolute scale for "this quantity vanishes" decisions, multiplied by
# 1 + local field magnitude so labeling is stable under system rescaling.
VANISH_TOL = 1e-10


def _as_matrix(A) -> np.ndarray:
    M = np.array(A, dtype=float)
    if M.shape != (2, 2) or not np.all(np.isfinite(M)):
        raise ValueError("expected a finite 2x2 matrix")
    M.setflags(write=False)
    return M


def _as_vector(b) -> np.ndarray:
    v = np.array(b, dtype=float)
    if v.shape != (2,) or not np.all(np.isfinite(v)):
        raise ValueError("expected a finite 2-vector")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class AffineField:
    """One zone's dynamics z' = A z + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A))
        object.__setattr__(self, "b", _as_vector(self.b))

    @cached_property
    def entries(self) -> tuple[float, float, float, float, float, float]:
        """(a11, a12, a21, a22, b1, b2) as plain floats."""
        (a11, a12), (a21, a22) = self.A.tolist()
        return a11, a12, a21, a22, *self.b.tolist()

    @cached_property
    def det(self) -> float:
        a11, a12, a21, a22, _, _ = self.entries
        return a11 * a22 - a12 * a21

    @cached_property
    def trace(self) -> float:
        return self.entries[0] + self.entries[3]

    @cached_property
    def discriminant(self) -> float:
        return self.trace * self.trace - 4.0 * self.det

    @cached_property
    def is_degenerate(self) -> bool:
        scale = max(abs(a) for a in self.entries[:4]) + 1.0
        return abs(self.det) <= 1e-14 * scale * scale

    def velocity(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self.A @ z + self.b

    @cached_property
    def axis_root(self) -> Optional[float]:
        """y = -b1/a12 where the axis x-velocity vanishes; None when a12 = 0
        or the root is not a finite float."""
        _, a12, _, _, b1, _ = self.entries
        if a12 == 0.0:
            return None
        y = -b1 / a12
        return y if math.isfinite(y) else None

    def axis_velocity(self, y: float) -> tuple[float, float]:
        """(vx, vy) at the axis point (0, y): affine in y, and all that the
        region bookkeeping of the switching line reads."""
        _, a12, _, a22, b1, b2 = self.entries
        return a12 * y + b1, a22 * y + b2

    def negated(self) -> "AffineField":
        return self._negated

    @cached_property
    def _negated(self) -> "AffineField":
        # one object per field, so the flow's cached eigenstructure is reused
        return AffineField(-self.A, -self.b)

    def equilibrium(self) -> np.ndarray:
        if self.is_degenerate:
            raise DegenerateField("field has det(A) ~ 0, no isolated equilibrium")
        return np.linalg.solve(self.A, -self.b)


@dataclass(frozen=True, eq=False)
class RawSystem:
    """Two affine fields separated by the line c.z + d = 0.

    The "plus" field governs H(z) > 0 and the "minus" field H(z) < 0.
    """

    plus: AffineField
    minus: AffineField
    c: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "c", _as_vector(self.c))
        object.__setattr__(self, "d", float(self.d))
        if float(np.hypot(self.c[0], self.c[1])) == 0.0:
            raise ZeroNormal("switching-line normal c must be nonzero")

    def H(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(self.c @ z + self.d)


@dataclass(frozen=True, eq=False)
class FilippovSystem:
    """A system already normalized so the switching line is exactly {x = 0}."""

    left: AffineField
    right: AffineField

    def field(self, side: str) -> AffineField:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def vx_right(self, y: float) -> float:
        return self.right.axis_velocity(y)[0]

    def vx_left(self, y: float) -> float:
        return self.left.axis_velocity(y)[0]

    def mirrored(self) -> "FilippovSystem":
        """Reflect x -> -x; the two zones swap roles."""
        K = np.array([[-1.0, 0.0], [0.0, 1.0]])
        return FilippovSystem(
            left=AffineField(K @ self.right.A @ K, K @ self.right.b),
            right=AffineField(K @ self.left.A @ K, K @ self.left.b),
        )

    def time_reversed(self) -> "FilippovSystem":
        return FilippovSystem(left=self.left.negated(), right=self.right.negated())

    @cached_property
    def _tangencies(self) -> tuple[TangencyInfo, ...]:
        """`tangency_points`, sorted by height."""
        out: list[TangencyInfo] = []
        for side in ("left", "right"):
            f = self.field(side)
            y_t = f.axis_root
            if y_t is None:
                continue  # constant x-velocity, or a root beyond the float range
            speed = math.hypot(*f.axis_velocity(y_t))
            if speed < math.inf and speed <= VANISH_TOL * (1.0 + speed):
                continue  # the whole field vanishes: boundary equilibrium, not a tangency
            out.append(TangencyInfo((0.0, y_t), side, tangency_visibility(f, side, y_t)))
        out.sort(key=lambda t: t.y)
        return tuple(out)


class RegionLabel(Enum):
    CROSSING = "Crossing"
    ATTRACTIVE_SLIDING = "AttractiveSliding"
    REPULSIVE_SLIDING = "RepulsiveSliding"
    SINGULAR_SLIDING = "SingularSliding"
    TANGENCY_LEFT = "TangencyLeft"
    TANGENCY_RIGHT = "TangencyRight"
    TANGENCY_BOTH = "TangencyBoth"
    BOUNDARY_EQUILIBRIUM_LEFT = "BoundaryEquilibriumLeft"
    BOUNDARY_EQUILIBRIUM_RIGHT = "BoundaryEquilibriumRight"


SLIDING_LABELS = frozenset(
    {RegionLabel.ATTRACTIVE_SLIDING, RegionLabel.REPULSIVE_SLIDING}
)


@dataclass(frozen=True)
class EquilibriumInfo:
    location: tuple[float, float]
    kind: str  # focus | node | saddle | center | degenerate
    stability: str  # stable | unstable | neutral
    placement: str  # admissible | virtual | boundary


@dataclass(frozen=True)
class TangencyInfo:
    location: tuple[float, float]
    side: str  # left | right
    visibility: str  # visible | invisible | degenerate

    @property
    def y(self) -> float:
        return self.location[1]


@dataclass(frozen=True)
class AxisInterval:
    lo: float  # -inf allowed
    hi: float  # +inf allowed
    label: RegionLabel


@dataclass(frozen=True)
class SigmaDecomposition:
    intervals: tuple[AxisInterval, ...]
    points: tuple[tuple[float, RegionLabel], ...]


# ---------------------------------------------------------------------------
# Transform records


@dataclass(frozen=True, eq=False)
class TransformRecord:
    """One invertible affine change z_new = P z_old + q of both halves, plus time rescales.

    When ``mirror`` is true the original left half lands in the new right half
    and vice versa.  ``time_left``/``time_right`` are the positive factors s
    with t_new = s * t_old for orbits of the corresponding ORIGINAL side.  A
    true ``time_reversed`` means the image system runs the original orbits
    backwards; the map still carries orbits onto orbits as point sets.
    """

    P: np.ndarray
    q: np.ndarray
    time_left: float = 1.0
    time_right: float = 1.0
    mirror: bool = False
    time_reversed: bool = False
    steps: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "P", _as_matrix(self.P))
        object.__setattr__(self, "q", _as_vector(self.q))

    def push(self, z) -> np.ndarray:
        return self.P @ np.asarray(z, dtype=float) + self.q

    def pullback(self, z_new) -> np.ndarray:
        Pi = np.linalg.inv(self.P)
        return Pi @ np.asarray(z_new, dtype=float) - Pi @ self.q

    def pullback_axis(self, y_new: float) -> float:
        return float(self.pullback((0.0, y_new))[1])


# ---------------------------------------------------------------------------
# Operations


def normalize_to_y_axis(raw: RawSystem) -> tuple[FilippovSystem, TransformRecord]:
    """Move the switching line c.z + d = 0 onto the y-axis.

    Uses the change z_old = B (z_new + nu) with nu = (-d, 0) and B picked by
    whether c1 vanishes; in the new coordinates H(z_old) equals the new x
    coordinate, so the plus field governs x > 0.
    """
    c1, c2 = float(raw.c[0]), float(raw.c[1])
    nu = np.array([-raw.d, 0.0])
    if c1 != 0.0:
        B = np.array([[1.0 / c1, -c2 / c1], [0.0, 1.0]])
    else:
        B = np.array([[0.0, 1.0], [1.0 / c2, 0.0]])
    Binv = np.linalg.inv(B)

    def convert(f: AffineField) -> AffineField:
        with np.errstate(over="ignore", invalid="ignore"):
            A_new = Binv @ f.A @ B
            b_new = Binv @ (f.A @ (B @ nu) + f.b)
        if not (np.isfinite(A_new).all() and np.isfinite(b_new).all()):
            raise SpecFileError(
                f"switching line c = ({c1!r}, {c2!r}), d = {raw.d!r} cannot be moved onto "
                "the y-axis in floats: the converted fields overflow"
            )
        return AffineField(A_new, b_new)

    sys = FilippovSystem(left=convert(raw.minus), right=convert(raw.plus))
    # z_new = B^{-1} z_old - nu on both halves
    return sys, TransformRecord(Binv, -nu, steps=("axis-normalization",))


def _vanishes(value: float, scale: float) -> bool:
    return abs(value) <= VANISH_TOL * (1.0 + scale)


def classify_point(sys: FilippovSystem, y: float) -> RegionLabel:
    """Label the axis point (0, y).

    Boundary equilibria are checked first (right side before left; a point
    where both fields vanish is reported as BoundaryEquilibriumRight).  Then
    tangencies of either or both fields, then the crossing/sliding dichotomy
    by the sign of the product of the two x-velocities.  Raises
    VelocityOverflow when either field's speed at the point is not finite.
    """
    y = float(y)
    vp, vy_r = sys.right.axis_velocity(y)
    vm, vy_l = sys.left.axis_velocity(y)
    nr = math.hypot(vp, vy_r)
    nl = math.hypot(vm, vy_l)
    if not (nr < math.inf and nl < math.inf):
        raise VelocityOverflow(f"field speed at (0, {y}) is not a finite float")
    if nr <= VANISH_TOL * (1.0 + nr):
        return RegionLabel.BOUNDARY_EQUILIBRIUM_RIGHT
    if nl <= VANISH_TOL * (1.0 + nl):
        return RegionLabel.BOUNDARY_EQUILIBRIUM_LEFT

    p_zero = _vanishes(vp, nr)
    m_zero = _vanishes(vm, nl)
    if p_zero and m_zero:
        # Coincident tangency: the local sign pattern decides whether this is
        # an isolated contact inside a crossing zone or the seam between an
        # attractive and a repulsive sliding zone.
        slope_prod = sys.right.entries[1] * sys.left.entries[1]
        if slope_prod > 0.0:
            return RegionLabel.TANGENCY_BOTH
        return RegionLabel.SINGULAR_SLIDING
    if p_zero:
        return RegionLabel.TANGENCY_RIGHT
    if m_zero:
        return RegionLabel.TANGENCY_LEFT

    if vp * vm > 0.0:
        return RegionLabel.CROSSING
    if vp < 0.0 < vm:
        return RegionLabel.ATTRACTIVE_SLIDING
    return RegionLabel.REPULSIVE_SLIDING


def sliding_numerator_coeffs(sys: FilippovSystem) -> tuple[float, float, float]:
    """Coefficients (n2, n1, n0) of N(y) with F_s_y = N(y) / Dn(y).

    N collects the convex-combination numerator vm*f2_right - vp*f2_left; it
    is at most quadratic in y.
    """
    _, pa, _, qa, pb, qb = sys.right.entries
    _, ma, _, ra, mb, rb = sys.left.entries
    n2 = ma * qa - pa * ra
    n1 = ma * qb + mb * qa - pa * rb - pb * ra
    n0 = mb * qb - pb * rb
    return n2, n1, n0


def sliding_denominator_coeffs(sys: FilippovSystem) -> tuple[float, float]:
    """Coefficients (d1, d0) of Dn(y) = vm(y) - vp(y)."""
    _, pa, _, _, pb, _ = sys.right.entries
    _, ma, _, _, mb, _ = sys.left.entries
    return ma - pa, mb - pb


def sliding_field(sys: FilippovSystem, y: float) -> float:
    """y-component of the Filippov sliding field at (0, y).

    The x-component is identically zero on the sliding set.  At a singular
    sliding point (vm = vp) the formula's limit is used when it exists and 0
    otherwise.
    """
    label = classify_point(sys, y)
    if label is RegionLabel.CROSSING:
        raise NotSlidingRegion(f"(0, {y}) is a crossing point")
    n2, n1, n0 = sliding_numerator_coeffs(sys)
    d1, d0 = sliding_denominator_coeffs(sys)
    N = (n2 * y + n1) * y + n0
    Dn = d1 * y + d0
    scale = 1.0 + abs(n2 * y * y) + abs(n1 * y) + abs(n0)
    if abs(Dn) <= VANISH_TOL * (1.0 + abs(d1 * y) + abs(d0)):
        if abs(N) <= VANISH_TOL * scale and d1 != 0.0:
            # Both vanish: extend by l'Hopital.
            return (2.0 * n2 * y + n1) / d1
        return 0.0
    return N / Dn


def sliding_numerator_roots(sys: FilippovSystem) -> list[float]:
    """Real roots of the sliding numerator N(y): the candidate pseudo-equilibria."""
    n2, n1, n0 = sliding_numerator_coeffs(sys)
    if abs(n2) > 1e-14 * (1.0 + abs(n1) + abs(n0)):
        disc = n1 * n1 - 4.0 * n2 * n0
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        return [(-n1 - s) / (2.0 * n2), (-n1 + s) / (2.0 * n2)]
    if n1 != 0.0:
        return [-n0 / n1]
    return []


def pseudo_equilibria(sys: FilippovSystem) -> list[np.ndarray]:
    """Zeros of the sliding field strictly inside sliding intervals."""
    return [
        np.array([0.0, r])
        for r in sorted(set(sliding_numerator_roots(sys)))
        if classify_point(sys, r) in SLIDING_LABELS
    ]


def equilibrium_info(field: AffineField, side: str) -> EquilibriumInfo:
    """Trace-determinant classification of a zone's equilibrium."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if field.is_degenerate:
        raise DegenerateField("det(A) = 0, equilibrium classification undefined")
    loc = field.equilibrium()
    tr = field.trace
    det = field.det
    disc = field.discriminant
    scale = 1.0 + tr * tr + abs(det)
    tr_zero = abs(tr) <= 1e-12 * scale
    disc_zero = abs(disc) <= 1e-12 * scale

    if det < 0.0:
        kind, stability = "saddle", "unstable"
    elif disc_zero:
        kind = "degenerate"
        stability = "neutral" if tr_zero else ("stable" if tr < 0 else "unstable")
    elif disc < 0.0:
        if tr_zero:
            kind, stability = "center", "neutral"
        else:
            kind, stability = "focus", "stable" if tr < 0 else "unstable"
    else:
        kind, stability = "node", "stable" if tr < 0 else "unstable"

    x, y = loc.tolist()
    if abs(x) <= VANISH_TOL * (1.0 + abs(x) + math.hypot(x, y)):
        placement = "boundary"
    elif (x > 0.0) == (side == "right"):
        placement = "admissible"
    else:
        placement = "virtual"
    return EquilibriumInfo((x, y), kind, stability, placement)


def tangency_visibility(field: AffineField, side: str, y: float) -> str:
    """Visibility from its own zone of a tangency of `field` at (0, y).

    Decided by the second flow-derivative of x at the contact, a12 * v_y:
    for the right field a positive value means the parabolic arc bends into
    x > 0, so the contact is visible; for the left field the sign flips.
    An infinite value, a y-speed beyond the float range, decides by its sign.
    """
    a12 = field.entries[1]
    vx, vy = field.axis_velocity(y)
    kappa = a12 * vy
    if abs(kappa) < math.inf and abs(kappa) <= VANISH_TOL * (
        1.0 + abs(a12) + math.hypot(vx, vy)
    ):
        return "degenerate"
    if (kappa > 0.0) == (side == "right"):
        return "visible"
    return "invisible"


def tangency_points(sys: FilippovSystem) -> list[TangencyInfo]:
    """Per-side roots of the axis x-velocity, excluding boundary equilibria.

    Computed once per system; each call returns a fresh list.
    """
    return list(sys._tangencies)


def axis_breakpoints(sys: FilippovSystem) -> list[float]:
    """Sorted finite roots of the two axis x-velocities, repeats kept."""
    return sorted(f.axis_root for f in (sys.left, sys.right) if f.axis_root is not None)


def crossing_sets(
    sys: FilippovSystem,
) -> tuple[Optional[tuple[float, float]], Optional[tuple[float, float]]]:
    """Open crossing sets (launch, landing) of the axis as (lo, hi) intervals.

    Both fields point right on `launch` and left on `landing`.  The two are
    non-empty together exactly when the axis x-velocities have slopes of
    one sign and finite roots, and then they are opposite half-lines beyond
    the two tangencies; otherwise no crossing lap exists and both are None.
    """
    t_r, t_l = sys.right.axis_root, sys.left.axis_root
    a_r = sys.right.entries[1]
    if t_r is None or t_l is None or (a_r > 0.0) != (sys.left.entries[1] > 0.0):
        return None, None
    lo, hi = min(t_r, t_l), max(t_r, t_l)
    if a_r > 0.0:
        return (hi, math.inf), (-math.inf, lo)
    return (-math.inf, lo), (hi, math.inf)


def sigma_decomposition(sys: FilippovSystem) -> SigmaDecomposition:
    """Complete ordered labeling of the switching line."""
    bps: list[float] = []
    for y in axis_breakpoints(sys):
        if not bps or abs(y - bps[-1]) > 1e-12 * (1.0 + abs(y)):
            bps.append(y)

    edges = [-math.inf] + bps + [math.inf]
    intervals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        if math.isinf(lo) and math.isinf(hi):
            mid = 0.0
        elif math.isinf(lo):
            mid = hi - max(1.0, abs(hi))
        elif math.isinf(hi):
            mid = lo + max(1.0, abs(lo))
        else:
            mid = 0.5 * (lo + hi)
        intervals.append(AxisInterval(lo, hi, classify_point(sys, mid)))
    points = tuple((y, classify_point(sys, y)) for y in bps)
    return SigmaDecomposition(tuple(intervals), points)


def sliding_intervals(sys: FilippovSystem) -> list[AxisInterval]:
    decomp = sigma_decomposition(sys)
    return [iv for iv in decomp.intervals if iv.label in SLIDING_LABELS]
