"""The ten numbered verification checks behind `flp verify-paper`.

Each check returns pass/fail plus a human-readable detail line; the test
suite calls the same functions, so the CLI table and pytest agree by
construction.  Randomized checks read their seed from FLP_SEED when set.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .canonical import CanonicalParams, to_canonical
from .core import (
    AffineField,
    FilippovSystem,
    sliding_field,
    sliding_intervals,
)
from .errors import DegenerateField, DegenerateTangency, FilippovError, SpecFileError
from .flow import first_return_to_axis
from .halfmaps import P_L_inv, P_R, derivatives, displacement, make_context, solve_t_hats, zeros_of_D
from .periodic import coexistence, scenario_example1, scenario_example2, solve_eta_c, solve_rho_c
from .report import DEFAULT_SEED
from .specfile import bundled_examples

__all__ = ["CheckResult", "run_acceptance", "ALL_CHECKS", "WINDOW_OFFSETS", "default_seed"]

WINDOW_OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
TAXONOMY = {"F1A_a", "F1A_b", "F1A_c", "F1A_d", "F2A_a", "F2A_b", "F2A_c"}


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def default_seed() -> int:
    """FLP_SEED when it is set, else the report's default seed."""
    text = os.environ.get("FLP_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise SpecFileError(f"FLP_SEED wants an integer, got {text!r}") from None


def _random_system(rng) -> FilippovSystem:
    M = rng.uniform(-3.0, 3.0, size=(2, 2, 3))
    return FilippovSystem(
        left=AffineField(M[0][:, :2], M[0][:, 2]),
        right=AffineField(M[1][:, :2], M[1][:, 2]),
    )


def _census_tags(rep):
    return {r.configuration.tag for r in rep.records if r.configuration}


def check_sliding_count_sweep(seed: Optional[int] = None, n: int = 10_000):
    """Random sweep: sliding counts within {0,1,2}, tags inside the taxonomy."""
    rng = np.random.default_rng(default_seed() if seed is None else seed)
    t0 = time.perf_counter()
    hist: dict = {}
    skipped = 0
    for _ in range(n):
        sys = _random_system(rng)
        try:
            rep = coexistence(sys)
        except (DegenerateTangency, DegenerateField):
            # the criterion quantifies over nondegenerate systems only
            skipped += 1
            continue
        if rep.n_sliding > 2:
            return False, f"found {rep.n_sliding} sliding orbits on one system"
        bad = _census_tags(rep) - TAXONOMY
        if bad:
            return False, f"configuration outside the taxonomy: {sorted(bad)}"
        key = (rep.n_crossing, rep.n_sliding)
        hist[key] = hist.get(key, 0) + 1
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 300.0
    detail = (
        f"{n} systems in {elapsed:.1f}s ({skipped} degenerate skipped); "
        f"census histogram {dict(sorted(hist.items()))}"
    )
    return ok, detail


_EXPECTED_TAGS = {
    "example1": "F1A_a",
    "example2": "F1A_b",
    "example3": "F1A_c",
    "example4": "F1A_d",
    "example5": "F2A_a",
    "example6": "F2A_b",
    "example7": "F2A_c",
}


def _bundled_by_name():
    return {spec.name: spec for spec in bundled_examples()}


def check_example_configurations(seed: Optional[int] = None):
    """The seven curated systems carry exactly their labeled configurations."""
    specs = _bundled_by_name()
    got = []
    for name, want in _EXPECTED_TAGS.items():
        rep = coexistence(specs[name].normalized())
        tags = _census_tags(rep)
        if tags != {want}:
            return False, f"{name}: expected {{{want}}}, found {sorted(tags)}"
        got.append(want)
    return True, "configurations " + ", ".join(got)


def check_crossing_exclusions(seed: Optional[int] = None):
    """No crossing cycle beside an attractive-repulsive pair; a unique
    unstable one beside the twin pair, with its displacement zero sharp."""
    specs = _bundled_by_name()
    rep5 = coexistence(specs["example5"].normalized())
    if rep5.n_crossing != 0:
        return False, f"example5: expected 0 crossing orbits, found {rep5.n_crossing}"
    sys6 = specs["example6"].normalized()
    rep6 = coexistence(sys6)
    if rep6.n_crossing != 1:
        return False, f"example6: expected 1 crossing orbit, found {rep6.n_crossing}"
    mult = [r.multiplier for r in rep6.records if r.kind == "crossing"][0]
    if not mult > 1.0 + 1e-3:
        return False, f"example6: multiplier {mult} not > 1 + 1e-3"
    ctx = make_context(to_canonical(sys6)[0])
    zeros = zeros_of_D(ctx)
    if len(zeros) != 1:
        return False, f"example6: expected one displacement zero, found {len(zeros)}"
    resid = abs(displacement(zeros[0].y_zero, ctx))
    if not resid < 1e-10:
        return False, f"example6: |D| at the zero is {resid:.3e}"
    return True, f"multiplier {mult:.6f}, |D| at zero {resid:.1e}"


def _search_window(probe: Callable[[float], bool]):
    for off in WINDOW_OFFSETS:
        if probe(off):
            return off
    return None


def check_rho_scenario(seed: Optional[int] = None):
    """Critical left offset: grazing census at the value, the predicted
    censuses in windows found just above and just below."""
    alpha = 0.05
    rho_c = solve_rho_c(alpha)
    at = scenario_example1(alpha, rho_c)
    if (at.n_crossing, at.n_sliding) != (2, 1) or _census_tags(at) != {"F1A_a"}:
        return False, (
            f"at rho_c: ({at.n_crossing},{at.n_sliding}) {sorted(_census_tags(at))}"
        )

    def above(off):
        rep = scenario_example1(alpha, rho_c + off)
        return (rep.n_crossing, rep.n_sliding) == (1, 2)

    def below(off):
        rep = scenario_example1(alpha, rho_c - off)
        return (rep.n_crossing, rep.n_sliding) == (2, 1)

    off_up = _search_window(above)
    off_dn = _search_window(below)
    if off_up is None or off_dn is None:
        return False, f"windows not found (above={off_up}, below={off_dn})"
    return True, (
        f"rho_c={rho_c:.12f}; (1,2) at +{off_up:g}, (2,1) at -{off_dn:g}"
    )


def check_eta_scenario(seed: Optional[int] = None):
    """Offset-scale transition: (2,1) with a transversal sliding cycle above
    the critical value, (3,0) in a window just below."""
    gamma1 = -2.05
    eta_c = solve_eta_c(gamma1)

    def above(off):
        rep = scenario_example2(gamma1, eta_c + off)
        return (
            (rep.n_crossing, rep.n_sliding) == (2, 1)
            and _census_tags(rep) == {"F1A_b"}
        )

    def below(off):
        rep = scenario_example2(gamma1, eta_c - off)
        return (rep.n_crossing, rep.n_sliding) == (3, 0)

    off_up = _search_window(above)
    off_dn = _search_window(below)
    if off_up is None or off_dn is None:
        return False, f"windows not found (above={off_up}, below={off_dn})"
    return True, (
        f"eta_c={eta_c:.10f}; (2,1) F1A_b at +{off_up:g}, (3,0) at -{off_dn:g}"
    )


def _random_addcond_params(rng) -> CanonicalParams:
    g3 = rng.uniform(0.05, 1.5)
    eta = rng.uniform(0.1, 3.0)
    return CanonicalParams(
        alpha=math.exp(rng.uniform(math.log(0.02), math.log(1.5))),
        beta=math.exp(rng.uniform(math.log(1e-3), math.log(2.0))),
        delta=1,
        eta=eta,
        rho=g3 * eta - rng.uniform(0.05, 3.0),
        gamma1=g3,
        gamma2=-rng.uniform(0.3, 3.0),
        gamma3=g3,
    )


def check_halfmap_oracle(seed: Optional[int] = None):
    """Closed-form half-maps against exact-flow first returns, and
    closed-form derivatives against finite differences."""
    rng = np.random.default_rng((default_seed() if seed is None else seed) + 6)
    worst_map = 0.0
    worst_der = 0.0
    for _ in range(50):
        p = _random_addcond_params(rng)
        ctx = make_context(p)
        sys = p.realize()
        off = 0.25 * (1.0 + abs(ctx.y_star))
        ys = np.linspace(ctx.y_star + off, ctx.y_star + off + 12.0, 100)
        for y in ys:
            pr = P_R(float(y), ctx)
            _, z = first_return_to_axis(sys.right, (0.0, float(y)), "right")
            err = abs(pr - float(z[1])) / (1.0 + abs(pr))
            worst_map = max(worst_map, err)
            pl = P_L_inv(float(y), ctx)
            _, z = first_return_to_axis(sys.left, (0.0, pl), "left")
            err = abs(float(z[1]) - float(y)) / (1.0 + abs(y))
            worst_map = max(worst_map, err)
            if worst_map >= 1e-8:
                return False, f"half-map vs flow error {worst_map:.2e} at y={y}"
        for y in ys[::10]:
            y = float(y)
            d = derivatives(y, ctx)
            h = 1e-4 * (1.0 + abs(y))
            for closed, lo, hi in (
                (d.dPR, P_R(y - h, ctx), P_R(y + h, ctx)),
                (d.dPLinv, P_L_inv(y - h, ctx), P_L_inv(y + h, ctx)),
            ):
                fd = (hi - lo) / (2.0 * h)
                rel = abs(fd - closed) / max(abs(closed), 1e-12)
                worst_der = max(worst_der, rel)
            if worst_der >= 1e-6:
                return False, f"derivative vs FD relative error {worst_der:.2e}"
    return True, f"worst map error {worst_map:.1e}, worst derivative error {worst_der:.1e}"


def check_asymptotic_slopes(seed: Optional[int] = None):
    """Far-field slopes of both half-maps and the fixed convexity signs."""
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        for g3 in (0.25, 0.5, 1.0):
            p = CanonicalParams(
                alpha=alpha, beta=1.0, delta=1, eta=1.0, rho=0.0,
                gamma1=g3, gamma2=-1.0, gamma3=g3,
            )
            ctx = make_context(p)
            y_far = 1e5
            d = derivatives(y_far, ctx)
            rel_r = abs(d.dPR + math.exp(alpha * math.pi)) / math.exp(alpha * math.pi)
            lim_l = math.exp(-g3 * math.pi / ctx.nu)
            rel_l = abs(d.dPLinv + lim_l) / lim_l
            worst = max(worst, rel_r, rel_l)
            if rel_r >= 0.01 or rel_l >= 0.01:
                return False, (
                    f"alpha={alpha}, gamma3={g3}: slope errors {rel_r:.3f}/{rel_l:.3f}"
                )
            lo = ctx.y_star + 0.5 * (1.0 + abs(ctx.y_star))
            for y in np.geomspace(lo + 1.0, y_far, 25):
                dd = derivatives(float(y), ctx)
                if not (dd.d2PR < 0.0 and dd.d2PLinv > 0.0):
                    return False, f"convexity sign failed at y={y:.3e}"
    return True, f"9 parameter pairs, worst slope error {worst:.2e} at y=1e5"


def check_half_turn_constants(seed: Optional[int] = None):
    """The half-turn time on (pi, 2pi) by bisection, an independent grid
    scan, the graze offset constant, and the alpha=1 half-map root."""

    def f(t):
        return math.cos(t) - math.sin(t) - math.exp(-t)

    lo, hi = math.pi, 2.0 * math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    t_bis = 0.5 * (lo + hi)

    ts = np.arange(math.pi, 2.0 * math.pi, 1e-6)
    vals = np.cos(ts) - np.sin(ts) - np.exp(-ts)
    idx = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
    t_grid = float(ts[idx])
    if abs(t_bis - t_grid) > 2e-6:
        return False, f"bisection {t_bis} vs grid {t_grid}"
    if abs(t_bis - 3.941) > 1e-2:
        return False, f"half-turn time {t_bis} far from the expected value"

    beta0 = -1.0 / (math.exp(t_bis) * math.sin(t_bis))
    if abs(beta0 - 2.71e-2) > 5e-4:
        return False, f"graze offset constant {beta0} far from 2.71e-2"

    p = CanonicalParams(
        alpha=1.0, beta=1.0, delta=1, eta=1.0, rho=0.0,
        gamma1=1.0, gamma2=-1.0, gamma3=1.0,
    )
    _, t_plus = solve_t_hats(p)
    if abs(t_plus - t_bis) > 1e-10:
        return False, f"half-map root {t_plus} vs bisection {t_bis}"
    return True, f"t*={t_bis:.12f}, beta0={beta0:.12f}"


def check_filippov_identity(seed: Optional[int] = None):
    """Sliding field as the convex combination: weight in [0,1], zero normal
    component, tangential component matching the rational closed form."""
    rng = np.random.default_rng((default_seed() if seed is None else seed) + 9)
    tested = 0
    while tested < 1000:
        sys = _random_system(rng)
        for iv in sliding_intervals(sys):
            lo = iv.lo if math.isfinite(iv.lo) else iv.hi - 10.0
            hi = iv.hi if math.isfinite(iv.hi) else iv.lo + 10.0
            if not (math.isfinite(lo) and math.isfinite(hi)):
                lo, hi = -10.0, 10.0
            for _ in range(5):
                y = rng.uniform(lo, hi)
                z = np.array([0.0, y])
                fp = sys.right.velocity(z)
                fm = sys.left.velocity(z)
                vp, vm = float(fp[0]), float(fm[0])
                if vm == vp:
                    continue
                lam = vm / (vm - vp)
                if not -1e-12 <= lam <= 1.0 + 1e-12:
                    return False, f"weight {lam} outside [0,1] at y={y}"
                combo = lam * fp + (1.0 - lam) * fm
                scale = 1.0 + float(np.hypot(*fp)) + float(np.hypot(*fm))
                if abs(float(combo[0])) > 1e-12 * scale:
                    return False, f"normal component {combo[0]:.2e} at y={y}"
                fs = sliding_field(sys, y)
                if abs(fs - float(combo[1])) > 1e-9 * (1.0 + abs(fs)):
                    return False, f"tangential mismatch {fs} vs {combo[1]} at y={y}"
                tested += 1
                if tested >= 1000:
                    break
            if tested >= 1000:
                break
    return True, f"{tested} sliding points verified"


WITNESS_TYPES = {(0, 1), (1, 1), (2, 1), (0, 2), (1, 2)}


def check_coexistence_witnesses(seed: Optional[int] = None):
    """Each of the five census types appears among the bundled systems."""
    found: dict = {}
    for spec in bundled_examples():
        rep = coexistence(spec.normalized())
        key = (rep.n_crossing, rep.n_sliding)
        found.setdefault(key, spec.name)
    missing = WITNESS_TYPES - set(found)
    if missing:
        return False, f"unwitnessed census types: {sorted(missing)}"
    wit = {k: found[k] for k in sorted(WITNESS_TYPES)}
    return True, "; ".join(f"{k}={v}" for k, v in wit.items())


ALL_CHECKS = (
    (1, "random sweep: sliding counts and taxonomy", check_sliding_count_sweep),
    (2, "curated examples carry their configurations", check_example_configurations),
    (3, "crossing-orbit exclusions and displacement zero", check_crossing_exclusions),
    (4, "critical left-offset scenario windows", check_rho_scenario),
    (5, "critical offset-scale scenario windows", check_eta_scenario),
    (6, "half-maps against exact flow", check_halfmap_oracle),
    (7, "far-field slopes and convexity", check_asymptotic_slopes),
    (8, "half-turn constants", check_half_turn_constants),
    (9, "sliding field convex-combination identity", check_filippov_identity),
    (10, "coexistence census witnesses", check_coexistence_witnesses),
)


def run_acceptance(
    only: Optional[list[int]] = None, seed: Optional[int] = None
) -> list[CheckResult]:
    if seed is None:
        seed = default_seed()  # a bad FLP_SEED fails before any check runs
    results = []
    for index, name, fn in ALL_CHECKS:
        if only and index not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(seed=seed)
        except FilippovError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(index, name, passed, detail, time.perf_counter() - t0)
        )
    return results
