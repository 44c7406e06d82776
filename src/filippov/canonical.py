"""Reduction to the eight-parameter canonical family and related reports.

A system whose right zone hosts an admissible focus can be carried by an
invertible piecewise-affine change (plus per-side time rescales) onto the
family

    z' = [[2a, 1], [-1-a^2, 0]] z + (0, b)      on x > 0,
    z' = [[g1, d], [g2, g3]] z + (e, r)         on x < 0,

with d in {-1, 0, 1}.  This module performs that reduction with a full
:class:`TransformRecord`, applies the left-half shear that equalizes g1 and
g3, and classifies the switching-line pattern by the signs of d and e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .core import (
    AffineField,
    FilippovSystem,
    SideMap,
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
    # z_new = P z_old + q, composed as P, q = S P, S q + s; adding s even
    # where it is zero turns -0.0 into 0.0.
    P, q, zero = np.eye(2), np.zeros(2), np.zeros(2)
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
        work = FilippovSystem(
            left=AffineField(work.right.A, -work.right.b),
            right=AffineField(work.left.A, -work.left.b),
        )
        for S in (np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])):
            P, q = S @ P, S @ q + zero
        mirror = True
        steps += ["mirror", "y-flip"]

    _, a12, _, a22, b1, _ = work.right.entries
    if a12 <= 0.0:  # focus premise guarantees a12 != 0; sign fixed above
        raise AssertionError("internal: upper-right entry not positive after setup")
    disc0 = work.right.discriminant

    # Similarity built from the right field that zeroes its lower-right entry
    # and the first offset component, keeping the axis fixed.
    M = np.array([[1.0, 0.0], [a22 / a12, a12]])
    k = np.array([0.0, -b1 / a12])
    Minv = np.linalg.inv(M)

    def through_M(f: AffineField) -> AffineField:
        return AffineField(Minv @ f.A @ M, Minv @ (f.A @ k + f.b))

    work = FilippovSystem(left=through_M(work.left), right=through_M(work.right))
    P, q = Minv @ P, Minv @ q - Minv @ k
    steps.append("right-similarity")

    a12_prod = work.left.entries[1]  # equals a12 * (left upper-right entry)
    delta = int(np.sign(a12_prod))
    u = 1.0 / abs(a12_prod) if a12_prod != 0.0 else 1.0

    s_right = a12 * a12
    s_left = 1.0 / u
    work = FilippovSystem(
        left=AffineField(u * work.left.A, u * work.left.b),
        right=AffineField(work.right.A / s_right, work.right.b / s_right),
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

    Dw = np.diag([w, 1.0])
    work = FilippovSystem(
        left=AffineField(Dw @ work.left.A @ np.linalg.inv(Dw) / w, Dw @ work.left.b / w),
        right=AffineField(
            Dw @ work.right.A @ np.linalg.inv(Dw) / w, Dw @ work.right.b / w
        ),
    )
    P, q = Dw @ P, Dw @ q + zero
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
    smap = SideMap(P, q)
    return params, TransformRecord(
        map_left=smap,
        map_right=smap,
        time_left=time_left,
        time_right=time_right,
        mirror=mirror,
        time_reversed=time_reversed,
        steps=tuple(steps),
    )


def shear_to_equal_gammas(p: CanonicalParams) -> tuple[CanonicalParams, TransformRecord]:
    """Left-half shear equalizing the left block's diagonal; right half fixed."""
    if p.delta != 1:
        raise DeltaNotOne("shear normalization requires delta = 1")
    kappa = (p.gamma3 - p.gamma1) / 2.0
    g = (p.gamma1 + p.gamma3) / 2.0
    out = CanonicalParams(
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
    S_inv = np.array([[1.0, 0.0], [-kappa, 1.0]])
    rec = TransformRecord(
        map_left=SideMap(S_inv, np.zeros(2)),
        map_right=SideMap(np.eye(2), np.zeros(2)),
        steps=("left-shear",),
    )
    return out, rec


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
