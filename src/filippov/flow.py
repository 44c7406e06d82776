"""Closed-form affine flows, analytic axis returns, and full orbit construction.

Flows of planar affine fields are evaluated from eigenstructure branches (no
numerical integration).  First returns to the switching line are isolated
analytically: the x-velocity along an orbit solves the homogeneous system, so
its roots split the orbit into monotone pieces and a sign change is bracketed
on each piece.  Orbit construction concatenates flow arcs and sliding segments
under the Filippov convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AffineField,
    FilippovSystem,
    RegionLabel,
    SLIDING_LABELS,
    VANISH_TOL,
    axis_breakpoints,
    classify_point,
    crossing_sets,
    equilibrium_info,
    sliding_denominator_coeffs,
    sliding_field,
    sliding_numerator_coeffs,
    sliding_numerator_roots,
    tangency_points,
    tangency_visibility,
)
from .errors import (
    DegenerateField,
    DegenerateTangency,
    DomainError,
    FilippovError,
    NoReturn,
    ReturnOverflow,
)
from .roots import brentq

_EIG_SPLIT_TOL = 1e-9  # relative threshold between distinct and repeated eigenvalues
_SNAP_TOL = 1e-11  # |x| below this at a critical point counts as a tangential return
_GRAZE_TOL = 1e-10  # landing this close to a tangency snaps onto it
_CLOSURE_TOL = 1e-8
# Taylor coefficients (k+1)/(k+2)! of psi(z) = (z e^z - e^z + 1)/z^2, highest
# first; eleven terms reach float precision for |z| < 0.1
_PSI_SERIES = tuple((k + 1) / math.factorial(k + 2) for k in range(10, -1, -1))


class _Eigen:
    """Cached eigenstructure of one affine field, held as plain floats.

    The flow is z(t) = E(t) z0 + G(t) b with E = exp(At) and G = int_0^t E,
    written per spectrum as E = e^(at) (cos(wt) I + sin(wt)/w N) (complex),
    e^(l1 t) M1 + e^(l2 t) M2 (distinct) or e^(lt) (I + t N) (repeated).
    `at` evaluates it with float arithmetic only: math.exp overflow raises
    OverflowError, products overflow quietly to inf/nan.  `x_of` gives the
    x component alone, bit for bit `at`'s, for root solves in time.

    `returns` memoizes `_first_axis_hit` for the field's lifetime, keyed by
    start point (zeros told apart by sign) and side: the landing (t, y), or
    the class and args of the FilippovError the search raised.
    """

    def __init__(self, f: AffineField):
        self.returns: dict = {}
        a11, a12, a21, a22, b1, b2 = f.entries
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22
        self.b1, self.b2 = b1, b2
        a_max = max(abs(a11), abs(a12), abs(a21), abs(a22))
        # magnitude of the field, for the snap tolerances of axis returns
        self.scale = 1.0 + a_max + max(abs(b1), abs(b2))
        tr = f.trace
        disc = f.discriminant
        split = _EIG_SPLIT_TOL * (1.0 + a_max * a_max)
        if disc < -split:
            self.kind = "complex"
            a = self.a = tr / 2.0
            w = self.omega = math.sqrt(-disc) / 2.0
            self.mod2 = a * a + w * w  # |eigenvalue|^2 = det
            self._set_N(a)
            self.x_eq = (a12 * b2 - a22 * b1) / f.det
        elif disc > split:
            self.kind = "distinct"
            s = math.sqrt(disc)
            l1 = self.l1 = (tr + s) / 2.0
            l2 = self.l2 = (tr - s) / 2.0
            # spectral projectors M1 = (A - l2 I)/(l1 - l2), M2 = (A - l1 I)/(l2 - l1)
            d = l1 - l2
            p11, p12, p21, p22 = (a11 - l2) / d, a12 / d, a21 / d, (a22 - l2) / d
            q11, q12, q21, q22 = (a11 - l1) / -d, a12 / -d, a21 / -d, (a22 - l1) / -d
            self.M1 = (p11, p12, p21, p22)
            self.M2 = (q11, q12, q21, q22)
            self.M1b = (p11 * b1 + p12 * b2, p21 * b1 + p22 * b2)
            self.M2b = (q11 * b1 + q12 * b2, q21 * b1 + q22 * b2)
        else:
            self.kind = "repeated"
            self.l = tr / 2.0
            self._set_N(self.l)

    def _set_N(self, lam: float) -> None:
        n11, n12, n21, n22 = self.a11 - lam, self.a12, self.a21, self.a22 - lam
        self.N = (n11, n12, n21, n22)
        b1, b2 = self.b1, self.b2
        self.Nb = (n11 * b1 + n12 * b2, n21 * b1 + n22 * b2)

    @staticmethod
    def _gbar(lam: float, t: float) -> float:
        # int_0^t e^{lam s} ds
        if abs(lam) * abs(t) < 1e-14:
            return t * (1.0 + lam * t / 2.0)
        return math.expm1(lam * t) / lam

    def at(self, x0: float, y0: float, t: float) -> tuple[float, float]:
        """(x, y) at time t of the orbit from (x0, y0)."""
        kind = self.kind
        if kind == "complex":
            a, w = self.a, self.omega
            n11, n12, n21, n22 = self.N
            nb1, nb2 = self.Nb
            e = math.exp(a * t)
            c, s = math.cos(w * t), math.sin(w * t)
            d = self.mod2
            ic = (e * (a * c + w * s) - a) / d
            isn = (e * (a * s - w * c) + w) / d / w
            sw = s / w
            x = e * (c * x0 + sw * (n11 * x0 + n12 * y0)) + ic * self.b1 + isn * nb1
            y = e * (c * y0 + sw * (n21 * x0 + n22 * y0)) + ic * self.b2 + isn * nb2
            return x, y
        if kind == "distinct":
            p11, p12, p21, p22 = self.M1
            q11, q12, q21, q22 = self.M2
            (pb1, pb2), (qb1, qb2) = self.M1b, self.M2b
            l1, l2 = self.l1, self.l2
            e1, e2 = math.exp(l1 * t), math.exp(l2 * t)
            g1, g2 = self._gbar(l1, t), self._gbar(l2, t)
            x = e1 * (p11 * x0 + p12 * y0) + e2 * (q11 * x0 + q12 * y0) + g1 * pb1 + g2 * qb1
            y = e1 * (p21 * x0 + p22 * y0) + e2 * (q21 * x0 + q22 * y0) + g1 * pb2 + g2 * qb2
            return x, y
        lam = self.l
        n11, n12, n21, n22 = self.N
        nb1, nb2 = self.Nb
        e = math.exp(lam * t)
        g = self._gbar(lam, t)
        z = lam * t
        if abs(z) < 0.1:
            # h = t^2 psi(z), psi(z) = (z e^z - e^z + 1)/z^2: the quotient
            # below cancels to a relative error ~ eps/|z|
            h = 0.0
            for c in _PSI_SERIES:
                h = h * z + c
            h *= t * t
        else:
            h = (t * e - g) / lam
        x = e * (x0 + t * (n11 * x0 + n12 * y0)) + g * self.b1 + h * nb1
        y = e * (y0 + t * (n21 * x0 + n22 * y0)) + g * self.b2 + h * nb2
        return x, y

    def x_of(self, x0: float, y0: float):
        """t -> at(x0, y0, t)[0], the same float operations with the
        products that do not depend on t taken once."""
        b1 = self.b1
        if self.kind == "complex":
            a, w, d = self.a, self.omega, self.mod2
            n11, n12, _, _ = self.N
            nb1 = self.Nb[0]
            u = n11 * x0 + n12 * y0
            exp, cos, sin = math.exp, math.cos, math.sin

            def x_complex(t: float) -> float:
                e = exp(a * t)
                c, s = cos(w * t), sin(w * t)
                ic = (e * (a * c + w * s) - a) / d
                isn = (e * (a * s - w * c) + w) / d / w
                return e * (c * x0 + s / w * u) + ic * b1 + isn * nb1

            return x_complex
        if self.kind == "distinct":
            p11, p12, _, _ = self.M1
            q11, q12, _, _ = self.M2
            pb1, qb1 = self.M1b[0], self.M2b[0]
            l1, l2 = self.l1, self.l2
            cp, cq = p11 * x0 + p12 * y0, q11 * x0 + q12 * y0
            gbar = self._gbar
            exp = math.exp

            def x_distinct(t: float) -> float:
                e1, e2 = exp(l1 * t), exp(l2 * t)
                return e1 * cp + e2 * cq + gbar(l1, t) * pb1 + gbar(l2, t) * qb1

            return x_distinct
        lam = self.l
        n11, n12, _, _ = self.N
        nb1 = self.Nb[0]
        u = n11 * x0 + n12 * y0
        gbar = self._gbar
        exp = math.exp

        def x_repeated(t: float) -> float:
            e = exp(lam * t)
            g = gbar(lam, t)
            z = lam * t
            if abs(z) < 0.1:
                h = 0.0
                for c in _PSI_SERIES:
                    h = h * z + c
                h *= t * t
            else:
                h = (t * e - g) / lam
            return e * (x0 + t * u) + g * b1 + h * nb1

        return x_repeated

    def point(self, z0: np.ndarray, t: float) -> np.ndarray:
        return np.array(self.at(float(z0[0]), float(z0[1]), t))


def _eigen(f: AffineField) -> _Eigen:
    ev = f.__dict__.get("_flow_eigen")
    if ev is None:
        ev = _Eigen(f)
        object.__setattr__(f, "_flow_eigen", ev)
    return ev


def linear_flow(field: AffineField, z0, t: float) -> np.ndarray:
    """Exact solution of z' = Az + b at time t starting from z0."""
    return _eigen(field).point(z0, float(t))


# ---------------------------------------------------------------------------
# First return to the axis


def _x_series_real(ev: _Eigen, x0: float, y0: float) -> list[tuple[float, float, int]]:
    """Terms (c, lam, p) with x(t) = sum c * t^p * e^(lam t), real spectrum."""
    terms: list[tuple[float, float, int]] = []
    if ev.kind == "distinct":
        for (m11, m12, _, _), (mb1, _), lam in (
            (ev.M1, ev.M1b, ev.l1),
            (ev.M2, ev.M2b, ev.l2),
        ):
            cz = m11 * x0 + m12 * y0
            if lam != 0.0:
                terms.append((cz + mb1 / lam, lam, 0))
                terms.append((-mb1 / lam, 0.0, 0))
            else:
                terms.append((cz, 0.0, 0))
                terms.append((mb1, 0.0, 1))
    else:
        lam = ev.l
        n11, n12, _, _ = ev.N
        cz1 = n11 * x0 + n12 * y0
        cb0 = ev.b1
        cb1 = ev.Nb[0]
        # For |lam| below ~1e-13 the 1/lam^2 coefficients cancel, and the
        # t-term that decides the tail falls under _tail_sign's floor (or
        # they overflow once lam * lam underflows): take the lam -> 0 terms,
        # which differ only at t ~ 1/lam, past 1e12 / scale.
        if abs(lam) > 1e-12 * ev.scale:
            terms.append((x0 + cb0 / lam - cb1 / (lam * lam), lam, 0))
            terms.append((cz1 + cb1 / lam, lam, 1))
            terms.append((-cb0 / lam + cb1 / (lam * lam), 0.0, 0))
        else:
            terms.append((x0, 0.0, 0))
            terms.append((cz1 + cb0, 0.0, 1))
            terms.append((cb1 / 2.0, 0.0, 2))
    merged: dict[tuple[float, int], float] = {}
    for c, lam, p in terms:
        merged[(lam, p)] = merged.get((lam, p), 0.0) + c
    return [(c, lam, p) for (lam, p), c in merged.items()]


def _tail_sign(terms: list[tuple[float, float, int]]) -> int:
    """Sign of x(t) as t -> +inf; 0 means x -> 0."""
    mags = [abs(c) for c, _, _ in terms]
    floor = 1e-13 * (max(mags) if mags else 0.0)
    live = [(lam, p, c) for c, lam, p in terms if abs(c) > floor]
    if not live:
        return 0
    lam, p, c = max(live, key=lambda it: (it[0], it[1]))
    if lam < 0.0:
        return 0
    return 1 if c > 0.0 else -1


def _real_critical_time(ev: _Eigen, vx0: float, vy0: float, t_min: float) -> Optional[float]:
    """Smallest root above t_min of the x-velocity along the orbit (if any).

    The velocity solves the homogeneous system, so its first component has at
    most one sign change when the spectrum is real.
    """
    if ev.kind == "distinct":
        c1 = ev.M1[0] * vx0 + ev.M1[1] * vy0
        c2 = ev.M2[0] * vx0 + ev.M2[1] * vy0
        if c1 == 0.0 or c2 == 0.0:
            return None
        ratio = -c2 / c1
        if ratio <= 0.0:
            return None
        t = math.log(ratio) / (ev.l1 - ev.l2)
        return t if t > t_min else None
    cB = ev.N[0] * vx0 + ev.N[1] * vy0
    if cB == 0.0:
        return None
    t = -vx0 / cB
    return t if t > t_min else None


def _polish_root(ev: _Eigen, x0: float, y0: float, t: float) -> tuple[float, float]:
    """Newton steps on x(t) = 0 along the orbit from (x0, y0); returns the
    polished time and y there.

    A step is kept only if it stays at positive time and shrinks |x|: near a
    double root (a return that barely leaves the axis) v is almost zero and
    a raw step can land anywhere, even at negative time.
    """
    x, y = ev.at(x0, y0, t)
    for _ in range(3):
        v = ev.a11 * x + ev.a12 * y + ev.b1
        if v == 0.0:
            break
        t_new = t - x / v
        if not 0.0 < t_new < math.inf:
            break
        x_new, y_new = ev.at(x0, y0, t_new)
        if not abs(x_new) < abs(x):
            break
        t, x, y = t_new, x_new, y_new
    return t, y


def _landing(ev: _Eigen, x0: float, y0: float, t: float) -> tuple[float, float]:
    """The polished return time near t and its height, both finite."""
    t, y = _polish_root(ev, x0, y0, t)
    # scale * |y| bounds the field's speed at the landing, which must be finite too
    if not (math.isfinite(t) and math.isfinite(ev.scale * y)):
        raise ReturnOverflow(f"axis return from ({x0}, {y0}) lands at t={t}, y={y}")
    return t, y


def _first_axis_hit(
    field: AffineField, x0: float, y0: float, side: str
) -> tuple[float, np.ndarray]:
    """Smallest t > 0 with x(t) = 0 for the orbit from (x0, y0) into `side`.

    Raises NoReturn when the orbit provably never comes back (escape to
    infinity or convergence toward an equilibrium), DomainError when it
    does not depart into `side`, and ReturnOverflow when the flow leaves
    float range before it returns.  Each start is walked once per field:
    later calls replay the landing, in a fresh array, or raise the same
    error anew.
    """
    memo = _eigen(field).returns
    key = (x0, y0, side, math.copysign(1.0, x0), math.copysign(1.0, y0))
    hit = memo.get(key)
    if hit is None:
        try:
            hit = _walk_to_axis(field, x0, y0, side)
        except ReturnOverflow as exc:
            hit = (ReturnOverflow, exc.args)
        except OverflowError:
            msg = f"orbit from ({x0}, {y0}) leaves float range before it returns"
            hit = (ReturnOverflow, (msg,))
        except FilippovError as exc:
            # the class and args, never the instance: its traceback would
            # keep the walk's frames alive as long as the field
            hit = (type(exc), exc.args)
        memo[key] = hit
    t, y = hit
    if isinstance(t, type):
        raise t(*y)
    return t, np.array([0.0, y])


def _walk_to_axis(field: AffineField, x0: float, y0: float, side: str) -> tuple[float, float]:
    """`_first_axis_hit`'s search; returns the landing time and height.

    One walk over the critical times of x(t), the pi/w ladder of a complex
    spectrum or the one turn of a real one, snaps onto a critical time on
    the axis or brackets the first sign change; a real spectrum then
    brackets its tail.
    """
    ev = _eigen(field)
    scale = ev.scale
    xf = ev.x_of(x0, y0)
    s0 = 1.0 if side == "right" else -1.0
    vx0 = ev.a11 * x0 + ev.a12 * y0 + ev.b1
    t_eps = 1e-12

    prev_t = 0.0
    complex_spectrum = ev.kind == "complex"
    if complex_spectrum:
        w = ev.omega
        a = ev.a
        x_eq = ev.x_eq
        P = x0 - x_eq
        Q = (vx0 - a * P) / w
        C = math.hypot(P, Q)
        if C <= 1e-15 * (1.0 + abs(x_eq)):
            raise DomainError("start point is the equilibrium; the orbit does not move")
        # x(t) - x_eq = C e^{at} cos(w t - phase); critical times step by pi/w
        phase = math.atan2(a * Q - w * P, a * P + w * Q)
        step = math.pi / w
        if step <= t_eps:
            # the ladder below would climb to the time floor in t_eps / step rungs
            raise DomainError(
                f"half-turn time {step} is within the {t_eps} time floor: "
                "the spiral turns too fast to resolve"
            )
        t_k = (phase + math.pi / 2.0) / w
        while t_k <= t_eps:
            t_k += step
        # x changes sign only while the amplitude C e^{at} exceeds |x_eq|,
        # which it passes once, at t_cross
        t_cross = math.log(abs(x_eq) / C) / a if abs(a) > 1e-13 * scale and x_eq else 0.0
        if a > 0.0 and t_cross > t_k + step:
            # a growing spiral keeps the sign of x_eq up to t_cross
            t_k += math.floor((t_cross - t_k) / step) * step
            prev_t = t_k - step
        t_last = max(t_k, t_cross) + 4.0 * step
        snap = _SNAP_TOL * scale * max(1.0, C)
    else:
        # the x-velocity solves the homogeneous system: at most one turn
        t_c = _real_critical_time(ev, vx0, ev.a21 * x0 + ev.a22 * y0 + ev.b2, t_eps)
        t_k = t_last = 0.0 if t_c is None else t_c
        step = 0.0
        snap = _SNAP_TOL * scale
    while prev_t < t_last:
        x_k = xf(t_k)
        if abs(x_k) <= snap:
            return _landing(ev, x0, y0, t_k)
        if math.copysign(1.0, x_k) != s0:
            lo = prev_t
            if lo == 0.0:
                # first piece: x leaves 0 with sign s0 at a shrinking lower end
                lo = t_eps
                while xf(lo) * s0 <= 0.0 and lo > 1e-300:
                    lo /= 8.0
                if xf(lo) * s0 < 0.0:
                    raise DomainError(f"orbit from ({x0}, {y0}) does not depart into {side}")
            return _landing(ev, x0, y0, brentq(xf, lo, t_k, xtol=1e-14))
        prev_t = t_k
        t_k += step
    if complex_spectrum:
        raise NoReturn(
            "orbit spirals toward the equilibrium on this side and never reaches the axis"
        )
    tail = _tail_sign(_x_series_real(ev, x0, y0))
    if tail == 0 or float(tail) == s0:
        raise NoReturn("orbit is monotone in x past its turn and never recrosses the axis")
    lo = prev_t if prev_t > 0.0 else 1e-6
    width = max(1.0, lo)
    for _ in range(80):
        hi = lo + width
        if xf(hi) * s0 < 0.0:
            return _landing(ev, x0, y0, brentq(xf, lo, hi, xtol=1e-14))
        width *= 2.0
    raise NoReturn("no axis return found within the scan horizon")


def _off_axis(x: float, y: float) -> bool:
    return abs(x) > 1e-9 * (1.0 + abs(y))


def first_return_to_axis(field: AffineField, z0, side: str) -> tuple[float, np.ndarray]:
    """First positive-time axis intersection of the one-zone orbit from z0.

    z0 must be a finite point of the axis and the orbit must depart into the
    stated side, either transversally or through a visible tangency.  The
    return is computed once per field, start and side and cached on the
    field; every call gets a fresh array.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x0, y0 = float(z0[0]), float(z0[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise DomainError(f"start point ({x0}, {y0}) is not finite")
    if _off_axis(x0, y0):
        raise DomainError("start point must lie on the switching line")
    vx0, vy0 = field.axis_velocity(y0)
    if abs(vx0) > VANISH_TOL * (1.0 + math.hypot(vx0, vy0)):
        if (vx0 > 0.0) != (side == "right"):
            raise DomainError("orbit departs into the opposite side")
    elif tangency_visibility(field, side, y0) != "visible":
        raise DomainError("tangency is not visible from the requested side")
    return _first_axis_hit(field, 0.0, y0, side)


# ---------------------------------------------------------------------------
# Orbit construction


@dataclass(frozen=True)
class FlowSegment:
    side: str
    start: tuple[float, float]
    end: tuple[float, float]
    duration: float

    kind = "flow"


@dataclass(frozen=True)
class SlideSegment:
    y_start: float
    y_end: float
    duration: float  # math.inf when the slide limits onto a pseudo-equilibrium

    kind = "slide"


@dataclass(frozen=True)
class TerminalEvent:
    # Closed | PseudoEquilibrium | Equilibrium | OutwardSpiral | BudgetExhausted | Escape
    kind: str
    point: Optional[tuple[float, float]] = None
    period: Optional[float] = None


@dataclass(frozen=True)
class Orbit:
    segments: tuple
    terminal_event: TerminalEvent
    grazed_tangencies: tuple[float, ...] = ()
    lap_start: Optional[int] = None  # segment index where the closed lap begins


def _slide_time(sys: FilippovSystem, y0: float, y1: float) -> float:
    """Exact traversal time of the sliding flow from y0 to y1 (no zero between).

    Integrates dt = Dn(y)/N(y) dy by partial fractions; N is at most quadratic
    and Dn linear, and N has no root strictly between y0 and y1.
    """
    n2, n1, n0 = sliding_numerator_coeffs(sys)
    d1, d0 = sliding_denominator_coeffs(sys)
    scale_n = max(abs(n2), abs(n1), abs(n0), 1e-300)

    def F(y: float) -> float:
        # antiderivative of Dn/N
        if abs(n2) > 1e-13 * scale_n:
            disc = n1 * n1 - 4.0 * n2 * n0
            if disc > 1e-13 * scale_n * scale_n:
                s = math.sqrt(disc)
                r1 = (-n1 - s) / (2.0 * n2)
                r2 = (-n1 + s) / (2.0 * n2)
                a1 = (d1 * r1 + d0) / (n2 * (r1 - r2))
                a2 = (d1 * r2 + d0) / (n2 * (r2 - r1))
                return a1 * math.log(abs(y - r1)) + a2 * math.log(abs(y - r2))
            if disc < -1e-13 * scale_n * scale_n:
                p = -n1 / (2.0 * n2)
                q = math.sqrt(-disc) / (2.0 * abs(n2))
                return (d1 / (2.0 * n2)) * math.log((y - p) ** 2 + q * q) + (
                    (d1 * p + d0) / (n2 * q)
                ) * math.atan((y - p) / q)
            r = -n1 / (2.0 * n2)
            return (d1 / n2) * math.log(abs(y - r)) - (d1 * r + d0) / (n2 * (y - r))
        if abs(n1) > 1e-13 * scale_n:
            r = -n0 / n1
            return d1 * y / n1 + ((d1 * r + d0) / n1) * math.log(abs(y - r))
        return (d1 * y * y / 2.0 + d0 * y) / n0

    return abs(F(y1) - F(y0))


def _sliding_zero_ahead(sys: FilippovSystem, y: float, target: float) -> Optional[float]:
    """Zero of the sliding numerator between y (exclusive) and target (inclusive)."""
    tol = 1e-12 * (1.0 + abs(y))
    if target >= y:
        lo, hi = y + tol, (target + tol if math.isfinite(target) else math.inf)
    else:
        lo, hi = (target - tol if math.isfinite(target) else -math.inf), y - tol
    inside = [r for r in sliding_numerator_roots(sys) if lo < r < hi]
    if not inside:
        return None
    return min(inside, key=lambda r: abs(r - y))


def _axis_mode(sys: FilippovSystem, y: float) -> tuple[str, object]:
    """Forward continuation decision at the axis point (0, y).

    Returns ("terminal", TerminalEvent), ("arc", side) or ("slide", +-1).
    """
    label = classify_point(sys, y)
    point = (0.0, float(y))
    if label in (
        RegionLabel.BOUNDARY_EQUILIBRIUM_LEFT,
        RegionLabel.BOUNDARY_EQUILIBRIUM_RIGHT,
    ):
        return "terminal", TerminalEvent("Equilibrium", point=point)
    if label is RegionLabel.SINGULAR_SLIDING:
        return "terminal", TerminalEvent("PseudoEquilibrium", point=point)

    vp = sys.vx_right(y)
    vm = sys.vx_left(y)
    if label is RegionLabel.CROSSING:
        return "arc", ("right" if vp > 0.0 else "left")

    if label is RegionLabel.TANGENCY_BOTH:
        for side in ("right", "left"):
            if tangency_visibility(sys.field(side), side, y) == "visible":
                return "arc", side
        raise DegenerateTangency(f"double tangency at y={y} with no visible side")

    if label not in SLIDING_LABELS:
        side = "right" if label is RegionLabel.TANGENCY_RIGHT else "left"
        vis = tangency_visibility(sys.field(side), side, y)
        if vis == "degenerate":
            raise DegenerateTangency(f"{side} tangency at y={y} has vanishing curvature")
        if vis == "visible":
            return "arc", side
        # Invisible contact: the transversal field decides between sliding into
        # the adjacent band and crossing into the other zone.
        other_v = vm if side == "right" else vp
        toward_axis = other_v > 0.0 if side == "right" else other_v < 0.0
        if not toward_axis:
            return "arc", ("left" if side == "right" else "right")

    fs = sliding_field(sys, y)
    if abs(fs) <= 1e-12 * (1.0 + abs(y)):
        return "terminal", TerminalEvent("PseudoEquilibrium", point=point)
    return "slide", (1 if fs > 0.0 else -1)


def _no_return_terminal(field: AffineField, side: str) -> TerminalEvent:
    try:
        info = equilibrium_info(field, side)
    except DegenerateField:
        return TerminalEvent("Escape")
    if info.stability == "stable" and info.placement in ("admissible", "boundary"):
        return TerminalEvent("Equilibrium", point=info.location)
    return TerminalEvent("Escape")


def snap_to_tangency(y: float, tangency_ys, grazes: list) -> float:
    """An arc landing at height y grazes a tangency within _GRAZE_TOL of it:
    return that tangency's height, recorded in `grazes`, else y itself."""
    for yt in tangency_ys:
        if abs(y - yt) <= _GRAZE_TOL * (1.0 + abs(yt)) and y != yt:
            grazes.append(yt)
            return yt
    return y


def filippov_orbit(sys: FilippovSystem, z0, budget: int = 200) -> Orbit:
    """Forward orbit from z0 under the Filippov convention.

    Crossing points pass through, attractive entries slide, slides exit at
    visible tangencies or converge to pseudo-equilibria, and closure is
    detected on the axis with a confirmation lap.  A crossing lap that
    moves outward in the launch set ends the orbit as OutwardSpiral: every
    later lap moves further out and none can reach the sliding set.
    """
    z = np.asarray(z0, dtype=float).copy()
    if not np.isfinite(z).all():
        raise DomainError(f"start point ({z[0]}, {z[1]}) is not finite")
    segments: list = []
    axis_states: list[tuple[float, str]] = []
    grazes: list[float] = []
    anchor: Optional[tuple[int, float, int]] = None  # (state idx, time, segment idx)
    elapsed = 0.0

    tangency_ys = [t.y for t in tangency_points(sys)]
    breakpoints = axis_breakpoints(sys)
    launch, _ = crossing_sets(sys)
    launch_lo, launch_hi = launch if launch is not None else (0.0, 0.0)
    outward = 1.0 if launch_hi == math.inf else -1.0

    def _stop(event: TerminalEvent, lap: Optional[int] = None) -> Orbit:
        return Orbit(tuple(segments), event, tuple(grazes), lap)

    # Interior start: ride the current zone to the axis first.
    if _off_axis(z[0], z[1]):
        side = "right" if z[0] > 0.0 else "left"
        f = sys.field(side)
        try:
            t_hit, z_hit = _first_axis_hit(f, float(z[0]), float(z[1]), side)
        except NoReturn:
            return _stop(_no_return_terminal(f, side))
        z_hit[1] = snap_to_tangency(z_hit[1], tangency_ys, grazes)
        segments.append(FlowSegment(side, tuple(z), (0.0, float(z_hit[1])), t_hit))
        elapsed += t_hit
        z = z_hit
        if len(segments) >= budget:
            return _stop(TerminalEvent("BudgetExhausted"))

    while True:
        y = float(z[1])
        what, info = _axis_mode(sys, y)
        if what == "terminal":
            return _stop(info)

        mode_key = f"{what}:{info}"
        matched_idx = None
        for i, (y_i, key_i) in enumerate(axis_states):
            if key_i == mode_key and abs(y - y_i) <= _CLOSURE_TOL * max(1.0, abs(y)):
                matched_idx = i
                break
        if anchor is not None and matched_idx == anchor[0]:
            return _stop(
                TerminalEvent("Closed", period=elapsed - anchor[1]), lap=anchor[2]
            )
        if matched_idx is None and len(segments) >= 2:
            # A right arc from the launch half-line, then a left arc back to
            # it, further out.  The half-maps P_R and P_L are decreasing (arcs
            # from further out nest outside), so the lap map is increasing and
            # each later lap lands further out again: no slide, no closure.
            arc_r, arc_l = segments[-2], segments[-1]
            if (
                arc_l.kind == "flow"
                and arc_l.side == "left"
                and arc_r.kind == "flow"
                and arc_r.side == "right"
                and arc_r.start[0] == 0.0
                and launch_lo < arc_r.start[1] < launch_hi
                and launch_lo < y < launch_hi
                and (y - arc_r.start[1]) * outward > 0.0
            ):
                return _stop(TerminalEvent("OutwardSpiral", point=(0.0, y)))
        if matched_idx is not None and anchor is None:
            anchor = (matched_idx, elapsed, len(segments))
        axis_states.append((y, mode_key))

        if len(segments) >= budget:
            return _stop(TerminalEvent("BudgetExhausted"))

        if what == "arc":
            side = info
            f = sys.field(side)
            try:
                t_hit, z_hit = first_return_to_axis(f, z, side)
            except NoReturn:
                return _stop(_no_return_terminal(f, side))
            z_hit[1] = snap_to_tangency(z_hit[1], tangency_ys, grazes)
            segments.append(FlowSegment(side, (0.0, y), (0.0, float(z_hit[1])), t_hit))
            elapsed += t_hit
            z = z_hit
            continue

        # slide
        direction = info
        ahead = [
            bp
            for bp in breakpoints
            if (bp > y + 1e-13 if direction > 0 else bp < y - 1e-13)
        ]
        if direction > 0:
            target = min(ahead) if ahead else math.inf
        else:
            target = max(ahead) if ahead else -math.inf
        zero = _sliding_zero_ahead(sys, y, target)
        if zero is not None:
            segments.append(SlideSegment(y, zero, math.inf))
            return _stop(TerminalEvent("PseudoEquilibrium", point=(0.0, zero)))
        if not math.isfinite(target):
            # Unbounded sliding band with no zero ahead: slides away forever.
            return _stop(TerminalEvent("Escape"))
        duration = _slide_time(sys, y, target)
        segments.append(SlideSegment(y, target, duration))
        elapsed += duration
        z = np.array([0.0, target])
