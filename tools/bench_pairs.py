"""Paired benchmark runs of a parent revision against this tree.

    python3 tools/bench_pairs.py --pr N [--parent REV] [--pairs 10]
        [--seed 20260823] [--seconds 30] [--other-seed 4001]

Run it from the root of a source checkout.  Both sides are exported with
``git archive`` into fresh directories of their own, so neither starts
with a bytecode cache the other lacks: the parent revision (default HEAD,
the parent of uncommitted work), and this tree's tracked files as they
stand, staged or not, through ``git stash create`` (which writes a
dangling commit and touches neither the tree nor the stash list).  The
runs it starts get the caller's environment without
``PYTHONDONTWRITEBYTECODE``: with it set, every ``flp`` child of the
flp_cli workload compiles the package from source, so its
``peak_rss_mb`` would grow with the size of the source rather than with
what a request holds.  For each workload of ``BENCHMARK.json`` the
script then runs ``perfbench/run.py`` once from each side per pair, one
process at a time, the parent first in even pairs and the change first
in odd ones, so that drift in machine speed falls on both sides.  After the pairs it makes one
traced run per side of each census workload, and 4 pairs of
canonical_census at ``--other-seed``, a seed the change was not tuned on.

It writes ``BENCH_<pr>.json``: per workload and end-to-end metric the
median and quartiles of each side, the pairs the change wins (by the
metric's direction in ``BENCHMARK.json``) and the ratio of the medians;
every pair's raw metrics; the traced runs; the machine as
``perfbench/run.py`` reports it; and whether the caller had
``PYTHONDONTWRITEBYTECODE`` set.  perfbench itself is only run, never
imported or edited.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

RUN = ["perfbench/run.py"]
# bytecode caches are written and read in the runs, as by a user's install
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
OTHER_WORKLOAD = "canonical_census"
OTHER_PAIRS = 4


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export_rev(rev: str, root: str) -> str:
    """Unpack the files of commit `rev` into `root` and return its full hash."""
    full = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = root + ".tar"
    git("archive", "--format=tar", "-o", archive, full)
    with tarfile.open(archive) as tar:
        tar.extractall(root, filter="data")
    os.remove(archive)
    return full


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run from `root`; its first and last stdout lines."""
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=ENV, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench failed in {root} ({workload}):\n{proc.stderr}")
    head, result = json.loads(lines[0]), json.loads(lines[-1])
    return {
        "machine": head["machine"],
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_pairs(sides: dict, workload: str, seed: int, seconds: float, n: int, machine: dict) -> list:
    pairs = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict = {"pair": i, "first": order[0]}
        for side in order:
            out = run_once(sides[side], workload, seed, seconds, 0)
            machine.update(out["machine"])
            pair[side] = out["metrics"]
            pair[f"{side}_correct"] = out["correct"]
            pair[f"{side}_failed"] = out["failed"]
            pair[f"{side}_attempted"] = out["attempted"]
        print(f"{workload} seed {seed} pair {i}: "
              f"{pair['parent'].get('systems_per_s', 0):.1f} -> "
              f"{pair['change'].get('systems_per_s', 0):.1f} systems/s", file=sys.stderr)
        pairs.append(pair)
    return pairs


def spread(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list, better: dict) -> dict:
    out: dict = {
        "correct": all(p["parent_correct"] and p["change_correct"] for p in pairs),
        "failed": sum(p["parent_failed"] + p["change_failed"] for p in pairs),
        "attempted": sum(p["parent_attempted"] + p["change_attempted"] for p in pairs),
    }
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        if direction == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        stats = {"parent": spread(parent), "change": spread(change)}
        ratio = stats["change"]["median"] / stats["parent"]["median"] if stats["parent"]["median"] else None
        out[name] = {**stats, "change_wins": f"{wins} of {len(pairs)}", "ratio_change_over_parent": ratio}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD", help="revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=20260823)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--other-seed", type=int, default=4001)
    args = ap.parse_args()

    here = os.getcwd()
    if not os.path.isfile(os.path.join(here, *RUN)):
        raise SystemExit("run from the root of a filippov-planar source checkout")
    with open(os.path.join(here, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        rev = export_rev(args.parent, sides["parent"])
        # empty when the tree has no changes to tracked files
        export_rev(git("stash", "create") or "HEAD", sides["change"])
        machine: dict = {}
        pairs, summary = {}, {}
        for workload in workloads:
            pairs[workload] = run_pairs(sides, workload, args.seed, args.seconds, args.pairs, machine)
            summary[workload] = summarize(pairs[workload], better)
        traced = []
        for workload in workloads:
            if workload == "flp_cli":
                continue
            for side in ("parent", "change"):
                out = run_once(sides[side], workload, args.seed, args.seconds, 1)
                traced.append({"side": side, "workload": workload, "correct": out["correct"],
                               "metrics": out["metrics"]})
        other = run_pairs(sides, OTHER_WORKLOAD, args.other_seed, args.seconds,
                          OTHER_PAIRS, machine)

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} [--trace 1]",
        "note": f"parent = commit {rev[:7]}, change = the tracked files of the tree "
                "tools/bench_pairs.py ran in, each side exported to a fresh directory; "
                f"{args.pairs} pairs per workload, one run at a time, alternating which "
                "side runs first; then one traced run per side of each census workload.",
        "machine": machine,
        "caller_set_PYTHONDONTWRITEBYTECODE": "PYTHONDONTWRITEBYTECODE" in os.environ,
        "summary": summary,
        "pairs": pairs,
        "traced_runs": traced,
        "other_seed": {
            "command": f"python3 perfbench/run.py --workload {OTHER_WORKLOAD} "
                       f"--seed {args.other_seed} --seconds {args.seconds:g}",
            "summary": summarize(other, better),
            "pairs": other,
        },
    }
    path = os.path.join(here, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
