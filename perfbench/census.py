"""The two in-process census workloads: inputs, closed loop and checks.

Both workloads draw their systems from ``numpy.random.default_rng(seed)``
with the distributions of the library's verification checks 1 and 6, so a
random_census seed names the same systems as ``FLP_SEED`` does in check 1
(check 6 draws from ``seed + 6``).  The library only ever sees the
generated `FilippovSystem` objects.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator

import numpy as np

TAXONOMY = {"F1A_a", "F1A_b", "F1A_c", "F1A_d", "F2A_a", "F2A_b", "F2A_c"}
# Crossing cycles must return to their starting height, and sliding laps
# must chain, within the library's own orbit-closure tolerance.
CLOSURE_RTOL = 1e-8

# Census budget per workload: check 1 uses 60, the library default is 200.
BUDGET = {"random_census": 60, "canonical_census": 200}
# Systems in a traced run, timed once untraced and once traced.
TRACE_SYSTEMS = {"random_census": 400, "canonical_census": 60}


def random_systems(seed: int) -> Iterator:
    """Every matrix and vector entry uniform on [-3, 3], drawn in the order
    of the sliding-count sweep (check 1), one (2, 2, 3) block per system."""
    from filippov import AffineField, FilippovSystem

    rng = np.random.default_rng(seed)
    while True:
        M = rng.uniform(-3.0, 3.0, size=(2, 2, 3))
        yield FilippovSystem(
            left=AffineField(M[0][:, :2], M[0][:, 2]),
            right=AffineField(M[1][:, :2], M[1][:, 2]),
        )


def canonical_systems(seed: int) -> Iterator:
    """Canonical-family parameters drawn as the half-map oracle (check 6)
    draws them, realized as concrete systems."""
    from filippov import CanonicalParams

    rng = np.random.default_rng(seed)
    while True:
        g3 = rng.uniform(0.05, 1.5)
        eta = rng.uniform(0.1, 3.0)
        params = CanonicalParams(
            alpha=math.exp(rng.uniform(math.log(0.02), math.log(1.5))),
            beta=math.exp(rng.uniform(math.log(1e-3), math.log(2.0))),
            delta=1,
            eta=eta,
            rho=g3 * eta - rng.uniform(0.05, 3.0),
            gamma1=g3,
            gamma2=-rng.uniform(0.3, 3.0),
            gamma3=g3,
        )
        yield params.realize()


def make_inputs(workload: str, seed: int, n: int | None = None) -> Iterable:
    """The workload's systems for ``seed``: the first ``n``, or an endless
    stream drawn as the loop asks for them."""
    if workload == "random_census":
        # Traffic of check 1.  About 997 in 1000 systems refuse the canonical
        # reduction and fall back to the shooting scan, so the crossing scan
        # and flow.first_return_to_axis take nearly all the time while the
        # half-maps stay idle.
        stream = random_systems(seed)
    else:
        # Every system takes the closed-form crossing route and the scan
        # never runs; the time goes to find_sliding_orbits ->
        # flow.filippov_orbit with long chains of successful returns, many
        # of them exhausting the budget.
        stream = canonical_systems(seed)
    return stream if n is None else list(itertools.islice(stream, n))


class CensusLoop:
    """Closed loop: each census starts when the previous one returns.

    Only the census call is timed.  Its output is checked, and its
    histogram key and crossing route recorded, after the clock stops; then
    it is dropped, so the loop's memory does not grow with the number of
    censuses.  Counts accumulate over calls to `run`."""

    def __init__(self, workload: str) -> None:
        import filippov
        from filippov.errors import DegenerateField, DegenerateTangency

        self.filippov = filippov
        self.skip = (DegenerateField, DegenerateTangency)
        self.budget = BUDGET[workload]
        self.latencies: list[float] = []
        self.problems: list[str] = []
        self.failed = 0
        self.degenerate = 0
        self.runtime_warnings = 0
        self.histogram: Counter = Counter()
        self.routes: Counter = Counter()

    def run(self, systems: Iterable, seconds: float | None = None, tracer=None) -> None:
        """Census ``systems`` in order, stopping once ``seconds`` of wall
        time have passed.  With a ``tracer``, only the census calls are
        traced."""
        clock = time.perf_counter
        t_end = None if seconds is None else clock() + seconds
        for sys_ in systems:
            if tracer is not None:
                tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                t0 = clock()
                try:
                    rep = self.filippov.coexistence(sys_, budget=self.budget)
                except self.skip:
                    rep = None
                except Exception as exc:  # a failed census fails its check below
                    rep = exc
                self.latencies.append(clock() - t0)
            if tracer is not None:
                tracer.uninstall()
            self.runtime_warnings += sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
            with warnings.catch_warnings():  # the checks' own warnings are not the census's
                warnings.simplefilter("ignore")
                self._record(sys_, rep)
            if t_end is not None and clock() >= t_end:
                break

    def _record(self, sys_, rep) -> None:
        if rep is None:  # degenerate system, skipped as check 1 does
            self.degenerate += 1
            self.routes["skipped"] += 1
            return
        bad = check_report(sys_, rep)
        self.problems += bad
        self.failed += bool(bad)
        if isinstance(rep, Exception):
            self.routes["failed"] += 1
            return
        self.histogram[f"({rep.n_crossing},{rep.n_sliding})"] += 1
        self.routes[crossing_route(sys_)] += 1

    def digest(self) -> dict:
        """Census histogram and route mix: not gated, but a change in either
        is a change in what the census computes."""
        return {
            "systems": len(self.latencies),
            "histogram": dict(sorted(self.histogram.items())),
            "degenerate": self.degenerate,
            "routes": dict(sorted(self.routes.items())),
            "runtime_warnings": self.runtime_warnings,
        }


def crossing_route(sys_) -> str:
    """The crossing route `find_crossing_orbits` takes on ``sys_``:
    ``closed-form``, or ``shooting:<refusal>`` naming the exception on
    which it falls back to the scan.  Redoes the closed-form steps of the
    census outside any timed region."""
    from filippov import make_context, to_canonical, zeros_of_D
    from filippov.errors import ConditionViolated, DegenerateField, DeltaNotOne, EtaZero, NoAdmissibleFocus
    from filippov.halfmaps import derivatives

    try:
        params, _ = to_canonical(sys_)
        ctx = make_context(params)
        for z in zeros_of_D(ctx):
            derivatives(z.y_zero, ctx)
    except (NoAdmissibleFocus, DegenerateField, EtaZero, ConditionViolated, DeltaNotOne, OverflowError) as exc:
        return f"shooting:{type(exc).__name__}"
    return "closed-form"


def _ends(seg) -> tuple[float, float]:
    if seg.kind == "slide":
        return seg.y_start, seg.y_end
    return seg.start[1], seg.end[1]


def _close(a: float, b: float) -> bool:
    # the library's own closure test (flow.filippov_orbit)
    return abs(a - b) <= CLOSURE_RTOL * max(1.0, abs(a))


def check_report(sys_, rep) -> list[str]:
    """Output checks for one census that did not skip its system; an empty
    list means it passed.  A census that raised has failed."""
    from filippov import first_return_to_axis
    from filippov.errors import FilippovError

    if isinstance(rep, Exception):
        return [f"census raised {type(rep).__name__}: {rep}"]
    problems = []
    if rep.n_sliding > 2:
        problems.append(f"{rep.n_sliding} sliding orbits")
    tags = {r.configuration.tag for r in rep.records if r.configuration}
    if tags - TAXONOMY:
        problems.append(f"tags outside the taxonomy: {sorted(tags - TAXONOMY)}")
    for r in rep.records:
        segs = r.orbit.segments
        if r.kind == "crossing":
            y0 = segs[0].start[1]
            z = (0.0, y0)
            try:
                for seg in segs:
                    _, z = first_return_to_axis(sys_.field(seg.side), z, seg.side)
            except FilippovError as exc:  # a cycle that cannot be retraced is wrong
                problems.append(f"crossing cycle at y={y0!r} does not return: {type(exc).__name__}: {exc}")
                continue
            if not _close(y0, float(z[1])):
                problems.append(f"crossing cycle at y={y0!r} returns to {float(z[1])!r}")
        elif r.kind == "sliding":
            ev = r.orbit.terminal_event
            if ev.kind != "Closed" or not math.isfinite(ev.period or math.nan):
                problems.append(f"sliding orbit ends {ev.kind} with period {ev.period}")
            for a, b in zip(segs, segs[1:] + segs[:1]):
                if not _close(_ends(a)[1], _ends(b)[0]):
                    problems.append(f"sliding lap breaks between y={_ends(a)[1]!r} and {_ends(b)[0]!r}")
                    break
    return problems
