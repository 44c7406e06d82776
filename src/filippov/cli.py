"""Command-line front end.

Subcommands cover the analysis pipeline end to end: switching-line
classification, canonical reduction, orbit and half-map data export,
the periodic-orbit report, the verification suite, and parameter sweeps.
Exit codes: 0 success, 1 analysis failure (the message names the failing
precondition), 2 malformed input.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .acceptance import ALL_CHECKS, default_seed, run_acceptance
from .canonical import check_premises, to_canonical
from .core import crossing_sets, equilibrium_info, sigma_decomposition, tangency_points
from .errors import DomainError, FilippovError, SpecFileError
from .flow import filippov_orbit, linear_flow
from .periodic import _NO_ARC, _arc, coexistence
from .report import build_report, format_csv, params_obj, report_to_json
from .specfile import SystemSpecFile, resolve_spec

_SPEC_FIELDS = ("A_plus", "b_plus", "A_minus", "b_minus", "c", "d")


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        # newline="" so CSV keeps its CRLF terminators untranslated
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _num(v: float) -> str:
    if v == 0.0:
        return "0"
    return f"{v:g}"


def cmd_classify(args) -> int:
    spec = resolve_spec(args.spec)
    fsys = spec.normalized()
    sigma = sigma_decomposition(fsys)
    lines = []
    if spec.name:
        lines.append(f"system: {spec.name}")
    lines.append("switching line:")
    for iv in sigma.intervals:
        lines.append(f"  ({_num(iv.lo)}, {_num(iv.hi)}): {iv.label.name}")
    for y, lab in sigma.points:
        lines.append(f"  at y = {_num(y)}: {lab.name}")
    lines.append("equilibria:")
    for side in ("left", "right"):
        info = equilibrium_info(fsys.field(side), side)
        lines.append(
            f"  {side}: {info.kind} ({info.stability}, {info.placement}) "
            f"at ({_num(info.location[0])}, {_num(info.location[1])})"
        )
    tps = tangency_points(fsys)
    lines.append("tangencies:" if tps else "tangencies: none")
    for tp in tps:
        lines.append(f"  y = {_num(tp.y)}: {tp.side} field, {tp.visibility}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_canonical(args) -> int:
    spec = resolve_spec(args.spec)
    fsys = spec.normalized()
    prem = check_premises(fsys)
    lines = ["premises:"]
    lines.append(f"  cross products distinct: {prem.cross_products_distinct}")
    lines.append(f"  admissible focus side: {prem.admissible_focus_side}")
    for side in sorted(prem.focus_stability):
        lines.append(f"  focus stability, {side}: {prem.focus_stability[side]}")
    try:
        params, rec = to_canonical(fsys)
    except FilippovError as exc:
        lines.append(f"canonical reduction failed: {type(exc).__name__}: {exc}")
        _emit(args, "\n".join(lines) + "\n")
        return 1
    lines.append("canonical parameters:")
    for key, val in params_obj(params).items():
        lines.append(f"  {key} = {val!r}")
    lines.append("transform steps: " + ", ".join(rec.steps))
    if rec.time_reversed:
        lines.append("note: the reduction runs original orbits backwards")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _entry_side(work, x0: float, y0: float) -> str:
    if x0 > 0.0:
        return "right"
    if x0 < 0.0:
        return "left"
    return "right" if work.vx_right(y0) > 0.0 else "left"


def _require_finite(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise SpecFileError(f"{flag} wants a finite number, got {value!r}")


def _require_count(args, name: str) -> None:
    value = getattr(args, name)
    if value < 1:
        raise SpecFileError(f"--{name} wants a count >= 1, got {value!r}")


def cmd_orbit(args) -> int:
    _require_finite(args, "x0", "y0")
    _require_count(args, "budget")
    spec = resolve_spec(args.spec)
    fsys = spec.normalized()
    work = fsys.time_reversed() if args.backward else fsys
    orbit = filippov_orbit(work, (args.x0, args.y0), budget=args.budget)
    sgn = -1.0 if args.backward else 1.0
    rows: list[list] = []
    t0 = 0.0
    for seg in orbit.segments:
        if seg.kind == "flow":
            field = work.field(seg.side)
            for k in range(33):
                s = seg.duration * k / 32.0
                z = linear_flow(field, seg.start, s)
                rows.append([sgn * (t0 + s) + 0.0, float(z[0]), float(z[1]), "flow"])
        else:
            rows.append([sgn * t0 + 0.0, 0.0, float(seg.y_start), "slide"])
            rows.append([sgn * (t0 + seg.duration) + 0.0, 0.0, float(seg.y_end), "slide"])
        t0 += seg.duration
    if not rows and orbit.terminal_event.kind == "Equilibrium":
        # the very first arc converges to an interior equilibrium without
        # reaching the axis, so there is no event segment; sample it anyway
        # over a horizon set by the slow decay rate
        field = work.field(_entry_side(work, args.x0, args.y0))
        decay = max(float(v.real) for v in np.linalg.eigvals(np.asarray(field.A, float)))
        horizon = math.log(1e8) / abs(decay) if decay < 0.0 else 10.0
        horizon = min(1e3, max(1e-2, horizon))
        for k in range(129):
            s = horizon * k / 128.0
            z = linear_flow(field, (args.x0, args.y0), s)
            rows.append([sgn * s + 0.0, float(z[0]), float(z[1]), "flow"])
    _emit(args, format_csv(["t", "x", "y", "segment_kind"], rows))
    return 0


def cmd_dfunc(args) -> int:
    _require_finite(args, "y_min", "y_max")
    _require_count(args, "samples")
    fsys = resolve_spec(args.spec).normalized()
    launch, landing = crossing_sets(fsys)
    if launch is None:
        raise DomainError("no crossing half-lines: D = P_Linv - P_R is defined nowhere")
    # the census's D, from both exact arcs on the upper crossing half-line
    edge = launch[0] if launch[1] == math.inf else landing[0]

    def arc(side: str, y: float) -> float:
        try:
            return _arc(fsys, side, y)[0] if y >= edge else math.nan
        except _NO_ARC:
            return math.nan

    rows: list[list] = []
    for y in np.linspace(args.y_min, args.y_max, args.samples).tolist():
        pr, pl = arc("right", y), arc("left", y)
        rows.append([y, pr, pl, pl - pr])
    _emit(args, format_csv(["y", "P_R", "P_Linv", "D"], rows))
    return 0


def cmd_periodic(args) -> int:
    spec = resolve_spec(args.spec)
    _emit(args, report_to_json(build_report(spec, seed=default_seed())))
    return 0


def cmd_verify(args) -> int:
    only = None
    if args.only:
        try:
            only = [int(tok) for tok in args.only.split(",") if tok.strip()]
        except ValueError:
            only = []
        if not only:
            raise SpecFileError(f"--only wants comma-separated integers, got {args.only!r}")
        # every number must name a check, before any check runs
        known = {index for index, _, _ in ALL_CHECKS}
        for n in only:
            if n not in known:
                raise SpecFileError(f"--only names no check {n} (valid: 1..{len(ALL_CHECKS)})")
    results = run_acceptance(only=only, seed=args.seed)
    width = max(len(r.name) for r in results)
    lines = []
    n_pass = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        n_pass += int(r.passed)
        lines.append(
            f"[{r.index:2d}] {mark}  {r.name:<{width}}  {r.elapsed:7.2f}s  {r.detail}"
        )
    lines.append(f"{n_pass}/{len(results)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if n_pass == len(results) else 1


def _set_param(spec: SystemSpecFile, path: str, value: float) -> SystemSpecFile:
    parts = path.split(".")
    field = parts[0]
    if field not in _SPEC_FIELDS:
        raise SpecFileError(
            f"unknown sweep parameter {path!r} (fields: {', '.join(_SPEC_FIELDS)})"
        )
    try:
        if field == "d":
            if parts[1:]:
                raise IndexError
            return replace(spec, d=value)
        current = getattr(spec, field)
        # only the indices 0 and 1: int() would take -1 and edit another entry
        index = [("0", "1").index(p) for p in parts[1:]]
        if field.startswith("A"):
            i, j = index
            grid = [list(row) for row in current]
            grid[i][j] = value
            return replace(spec, **{field: tuple(tuple(row) for row in grid)})
        (i,) = index
        vec = list(current)
        vec[i] = value
        return replace(spec, **{field: tuple(vec)})
    except (ValueError, IndexError) as exc:
        raise SpecFileError(
            f"bad sweep parameter path {path!r}: want e.g. d, b_minus.1, A_plus.0.1"
        ) from exc


def _parse_range(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        lo, hi, count = float(a), float(b), int(n)
    except ValueError:
        raise SpecFileError(f"--range wants a:b:n, got {text!r}")
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecFileError(f"--range wants a finite a:b and n >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    spec = resolve_spec(args.spec)
    rows: list[list] = []
    for value in _parse_range(args.range):
        value = float(value)
        mutated = _set_param(spec, args.param, value)
        tags = ""
        err = ""
        n_cross: object = ""
        n_slide: object = ""
        try:
            rep = coexistence(mutated.normalized())
        except (FilippovError, OverflowError) as exc:
            err = type(exc).__name__
        else:
            n_cross, n_slide = rep.n_crossing, rep.n_sliding
            tags = "+".join(
                sorted({r.configuration.tag for r in rep.records if r.configuration})
            )
        rows.append([value, n_cross, n_slide, tags, err])
    _emit(
        args,
        format_csv(["value", "n_crossing", "n_sliding", "configurations", "error"], rows),
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flp",
        description=(
            "Analyze planar piecewise-linear systems with one switching line: "
            "classify the line, reduce to canonical form, and enumerate "
            "periodic orbits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, spec_arg=True):
        p = sub.add_parser(name, help=help_text)
        if spec_arg:
            p.add_argument("spec", help="spec file path or bundled name")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=fn)
        return p

    add("classify", cmd_classify, "switching-line decomposition, equilibria, tangencies")
    add("canonical", cmd_canonical, "reduction premises and canonical parameters")

    p = add("orbit", cmd_orbit, "sample one orbit as CSV")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--backward", action="store_true", help="run time backwards")
    p.add_argument("--budget", type=int, default=200, help="event-count limit")

    p = add("dfunc", cmd_dfunc, "half-maps and displacement on a grid as CSV")
    p.add_argument("--y-min", type=float, required=True)
    p.add_argument("--y-max", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)

    add("periodic", cmd_periodic, "full analysis report as JSON")

    p = add("verify-paper", cmd_verify, "run the verification suite", spec_arg=False)
    p.add_argument("--only", help="comma-separated check numbers, e.g. 2,3,8")
    p.add_argument("--seed", type=int, help="seed for the randomized checks")

    p = add("sweep", cmd_sweep, "coexistence counts along a parameter range as CSV")
    p.add_argument("--param", required=True, help="spec entry, e.g. d, b_minus.1, A_plus.0.1")
    p.add_argument(
        "--range",
        required=True,
        help="a:b:n inclusive linear grid (write --range=a:b:n when a is negative)",
    )

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FilippovError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
