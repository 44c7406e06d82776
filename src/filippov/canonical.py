"""Reduction to the eight-parameter canonical family and related reports.

A system whose right zone hosts an admissible focus can be carried by an
invertible piecewise-affine change (plus per-side time rescales) onto the
family

    z' = [[2a, 1], [-1-a^2, 0]] z + (0, b)      on x > 0,
    z' = [[g1, d], [g2, g3]] z + (e, r)         on x < 0,

with d in {-1, 0, 1}.  This module performs that reduction, recording the
change of coordinates as one affine :class:`TransformRecord` map, gives the
parameters after the left-half shear that equalizes g1 and g3, and
classifies the switching-line pattern by the signs of d and e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from .core import (
    AffineField,
    FilippovSystem,
    TransformRecord,
    equilibrium_info,
)
from .errors import (
    ConditionViolated,
    DegenerateField,
    DeltaNotOne,
    EtaZero,
    NoAdmissibleFocus,
)


@dataclass(frozen=True)
class CanonicalParams:
    """Parameters of the canonical family; tau/Delta/nu always recomputed."""

    alpha: float
    beta: float
    delta: int
    eta: float
    rho: float
    gamma1: float
    gamma2: float
    gamma3: float
    m: int = -1

    @property
    def tau(self) -> float:
        return self.gamma1 + self.gamma3

    @property
    def Delta(self) -> float:
        return self.gamma1 * self.gamma3 - self.gamma2

    @property
    def nu(self) -> float:
        return math.sqrt(abs(self.gamma2))

    def realize(self) -> FilippovSystem:
        """Build the concrete system these parameters describe."""
        if self.m != -1:
            raise ConditionViolated(
                "realize requires m = -1 (right equilibrium of focus type)"
            )
        right = AffineField(
            [[2.0 * self.alpha, 1.0], [-1.0 - self.alpha**2, 0.0]],
            [0.0, self.beta],
        )
        left = AffineField(
            [[self.gamma1, float(self.delta)], [self.gamma2, self.gamma3]],
            [self.eta, self.rho],
        )
        return FilippovSystem(left=left, right=right)

    def satisfies_addcond(self) -> bool:
        """Sign and symmetry conditions under which the half-map theory applies."""
        gamma_scale = 1.0 + abs(self.gamma1) + abs(self.gamma3)
        return (
            self.alpha > 0.0
            and self.beta > 0.0
            and self.eta > 0.0
            and self.rho - self.gamma3 * self.eta < 0.0
            and self.delta == 1
            and abs(self.gamma1 - self.gamma3) <= 1e-9 * gamma_scale
            and self.tau > 0.0
            and self.tau**2 < 4.0 * self.Delta
        )


@dataclass(frozen=True)
class PremiseReport:
    cross_products_distinct: bool
    admissible_focus_side: str  # left | right | both | none
    focus_stability: Dict[str, str]


def check_premises(sys: FilippovSystem) -> PremiseReport:
    """Check the reduction premises: offset cross products and admissible foci."""
    stability: Dict[str, str] = {}
    for side in ("left", "right"):
        f = sys.field(side)
        if f.is_degenerate:
            raise DegenerateField(f"{side} field has det(A) ~ 0")
        info = equilibrium_info(f, side)
        if info.kind == "focus" and info.placement == "admissible":
            stability[side] = info.stability
    if len(stability) == 2:
        side = "both"
    elif stability:
        side = next(iter(stability))
    else:
        side = "none"

    _, ap, _, _, bp, _ = sys.right.entries
    _, am, _, _, bm, _ = sys.left.entries
    cross = ap * bm - am * bp
    scale = 1.0 + abs(ap * bm) + abs(am * bp)
    return PremiseReport(
        cross_products_distinct=abs(cross) > 1e-12 * scale,
        admissible_focus_side=side,
        focus_stability=stability,
    )


def _field(a11: float, a12: float, a21: float, a22: float, b1: float, b2: float) -> AffineField:
    """The field with `entries` (a11, a12, a21, a22, b1, b2)."""
    return AffineField(((a11, a12), (a21, a22)), (b1, b2))


def to_canonical(sys: FilippovSystem) -> tuple[CanonicalParams, TransformRecord]:
    """Reduce to the canonical family; the record carries the full chain.

    The source side is the right one when it hosts an admissible focus,
    otherwise the left one through the half-plane swap.  When the source
    side's rotation sense is incompatible with an orientation-preserving
    reduction (negative upper-right matrix entry), the chain additionally
    reverses time; the record flags this and orbit images are then traversed
    backwards, which leaves them unchanged as point sets.
    """
    report = check_premises(sys)
    if report.admissible_focus_side == "none":
        raise NoAdmissibleFocus("neither zone hosts an admissible focus")
    if not report.cross_products_distinct:
        raise EtaZero(
            "offset cross products coincide; the reduced left offset would vanish"
        )
    side = "right" if report.admissible_focus_side in ("right", "both") else "left"

    work = sys
    # Every step maps both halves alike, so the chain is one map
    # z_new = P z_old + q, composed step by step in closed form.
    P, q = ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)
    steps = ["identity"]
    time_reversed = mirror = False

    if work.field(side).entries[1] < 0.0:
        work = work.time_reversed()
        time_reversed = True
        steps.append("time-reversal")
    if side == "left":
        # The mirror x -> -x negates the left field's upper-right entry, which
        # is positive by now, so the y-flip always follows: together they are
        # z -> -z with the halves swapped, which keeps each matrix and negates
        # each offset.
        (r1, r2), (l1, l2) = work.right.b, work.left.b
        work = FilippovSystem(
            left=AffineField(work.right.A, (-r1, -r2)),
            right=AffineField(work.left.A, (-l1, -l2)),
        )
        P = ((-1.0, 0.0), (0.0, -1.0))
        mirror = True
        steps += ["mirror", "y-flip"]

    _, a12, _, a22, b1, _ = work.right.entries
    if a12 <= 0.0:  # focus premise guarantees a12 != 0; sign fixed above
        raise AssertionError("internal: upper-right entry not positive after setup")
    disc0 = work.right.discriminant

    # Similarity built from the right field that zeroes its lower-right entry
    # and the first offset component, keeping the axis fixed: z_old = M z_new + k
    # with M = [[1, 0], [slope, a12]] and k = (0, kappa), so x_new = x_old and
    # y_new = (y_old - slope x_old - kappa) / a12.
    slope, kappa = a22 / a12, -b1 / a12

    def through_M(f: AffineField) -> AffineField:
        f11, f12, f21, f22, g1, g2 = f.entries
        # the x-row at z_old = M z_new + k, then the y-row less slope times it
        x1, x2, x0 = f11 + f12 * slope, f12 * a12, f12 * kappa + g1
        y1, y2 = (f21 + f22 * slope - slope * x1) / a12, f22 - slope * f12
        return _field(x1, x2, y1, y2, x0, (f22 * kappa + g2 - slope * x0) / a12)

    work = FilippovSystem(left=through_M(work.left), right=through_M(work.right))
    (p11, p12), (p21, p22) = P
    P = ((p11, p12), ((p21 - slope * p11) / a12, (p22 - slope * p12) / a12))
    q = (q[0], (q[1] - slope * q[0] - kappa) / a12)
    steps.append("right-similarity")

    a12_prod = work.left.entries[1]  # equals a12 * (left upper-right entry)
    delta = (a12_prod > 0.0) - (a12_prod < 0.0)
    u = 1.0 / abs(a12_prod) if a12_prod != 0.0 else 1.0

    s_right = a12 * a12
    s_left = 1.0 / u
    work = FilippovSystem(
        left=_field(*(u * v for v in work.left.entries)),
        right=_field(*(v / s_right for v in work.right.entries)),
    )
    # time factors are kept per original half, which a mirror has swapped
    time_left, time_right = (s_right, s_left) if mirror else (s_left, s_right)
    steps.append("zone-time-rescale")

    disc_scale = 1.0 + max(abs(a) for a in sys.right.entries[:4]) ** 2
    if abs(disc0) <= 1e-13 * disc_scale:
        w = 1.0
        m = 0
    else:
        w = math.sqrt(abs(disc0)) / (2.0 * a12 * a12)
        m = 1 if disc0 > 0 else -1

    def x_rescaled(f: AffineField) -> AffineField:
        # x_new = w x_old and time divided by w: diag(w, 1) A diag(1/w, 1) / w
        f11, f12, f21, f22, g1, g2 = f.entries
        return _field(f11 / w, f12, f21 / w / w, f22 / w, g1, g2 / w)

    work = FilippovSystem(left=x_rescaled(work.left), right=x_rescaled(work.right))
    (p11, p12), row2 = P
    P, q = ((w * p11, w * p12), row2), (w * q[0], q[1])
    time_left, time_right = time_left * w, time_right * w
    steps.append("x-rescale")

    gamma1, _, gamma2, gamma3, eta, rho = work.left.entries
    params = CanonicalParams(
        alpha=work.right.entries[0] / 2.0,
        beta=work.right.entries[5],
        delta=delta,
        eta=eta,
        rho=rho,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        m=m,
    )
    return params, TransformRecord(
        P, q, time_left, time_right, mirror, time_reversed, tuple(steps)
    )


def shear_to_equal_gammas(p: CanonicalParams) -> CanonicalParams:
    """Parameters after the left-half shear (x, y) -> (x, y - kappa x) that
    equalizes the left block's diagonal; the right half and the axis stay fixed."""
    if p.delta != 1:
        raise DeltaNotOne("shear normalization requires delta = 1")
    kappa = (p.gamma3 - p.gamma1) / 2.0
    g = (p.gamma1 + p.gamma3) / 2.0
    return CanonicalParams(
        alpha=p.alpha,
        beta=p.beta,
        delta=1,
        eta=p.eta,
        rho=p.rho - kappa * p.eta,
        gamma1=g,
        gamma2=p.gamma2 + kappa * kappa,
        gamma3=g,
        m=p.m,
    )


_CSL_TABLE = {
    (0, False): "a",
    (0, True): "b",
    (-1, False): "c",
    (-1, True): "d",
    (1, False): "e",
    (1, True): "f",
}


def classify_csl(p: CanonicalParams) -> str:
    """Switching-line pattern key (a-f) from the signs of delta and eta."""
    if p.eta == 0.0:
        raise EtaZero("pattern undefined when the left x-offset vanishes")
    if p.delta not in (-1, 0, 1):
        raise ValueError(f"delta must be -1, 0 or 1, got {p.delta!r}")
    return _CSL_TABLE[(p.delta, p.eta > 0.0)]
