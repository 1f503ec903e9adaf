"""duality-lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact-duality --seed 0 --seconds 15 --trace 0

Run from the repository root. The program is built from ``src/`` (byte
compilation), set-up is timed in ``SETUP_PROBES`` fresh processes plus the
measuring one, and the measuring process (``worker.py``) runs the workload's
configs through ``dualitylab.cli.main``. With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones, from spans and counters the benchmark wraps around each module. Each
metric is printed by name with its unit, then a correctness line, then one
JSON object as the last line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(result: dict, load, setups: list) -> tuple[dict, list]:
    warm = result["passes"][1:]
    ref = {n: statistics.median(p["ref"][n] for p in warm) for n in warm[0]["ref"]}
    wall = {n: statistics.median(p["times"][n] for p in warm) for n in warm[0]["times"]}
    sweep = [i.name for i in load.instances if i.sweep]
    values = {
        "wall_s": statistics.median(sum(p["ref"].values()) for p in warm),
        "largest_s": ref[load.largest],
        "size_slope": slope([(result["sizes"][n], ref[n]) for n in sweep]),
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    cold = result["passes"][0]
    notes = [
        f"passes: 1 cold + {len(warm)} warm; medians over the warm passes; times in "
        "reference-speed seconds (speed.py), uncorrected wall time in brackets",
        f"pass: cold {sum(cold['ref'].values()):.4f} s [{sum(cold['times'].values()):.4f}], "
        f"warm {values['wall_s']:.4f} s "
        f"[{statistics.median(sum(p['times'].values()) for p in warm):.4f}]",
        f"size_slope sweep, size = {load.size_variable}: " + ", ".join(
            f"{n} {result['sizes'][n]} -> {ref[n]:.4f} s" for n in sweep),
        "setup s: " + " ".join(f"{s['setup_ref_s']:.4f} [{s['setup_s']:.4f}]" for s in setups),
    ]
    notes += [f"instance {n}: {ref[n]:.4f} s [{wall[n]:.4f}]" for n in ref]
    return values, notes


CALLS, TOTAL, SELF = range(3)   # fields of a pass's "stats" entries (spans.Stat)


def _layer_pass(p: dict) -> dict:
    def stat(name, field):
        return p["stats"].get(name, (0, 0.0, 0.0))[field]

    def total(name):
        return stat(name, TOTAL)

    scalars = [k for k in p["stats"] if k.startswith("scalars.")]
    counts = p["counts"]
    explore = total("length.explore_ball")
    settled = counts.get("length.settled", 0)
    return {
        "scalars.calls": sum(stat(k, CALLS) for k in scalars),
        "scalars.mul_calls": stat("scalars.mul", CALLS),
        "scalars.add_calls": stat("scalars.add", CALLS),
        "scalars.self_s": sum(stat(k, SELF) for k in scalars),
        "hopf.check_linear_hom_s": total("hopf.check_linear_hom"),
        "hopf.unitarity_check_s": total("hopf.unitarity_check"),
        "hopf.duality_cycle_self_s": stat("hopf.duality_cycle", SELF),
        "hopf.check_hopf_axioms_s": total("hopf.check_hopf_axioms"),
        "hopf.group_part_s": total("hopf.group_part"),
        "hopf.product_iso_check_s": total("hopf.product_iso_check"),
        "hopf.build_s": total("hopf.build"),
        "hopf.structure_nnz": counts.get("hopf.structure_nnz", 0),
        "groups.mul_calls": stat("groups.mul", CALLS),
        "groups.mul_self_s": stat("groups.mul", SELF),
        "length.explore_ball_s": explore,
        "length.settled": settled,
        "length.settled_per_s": settled / explore if explore else 0.0,
        "length.subadditivity_s": total("length.subadditivity"),
        "length.sphere_bound_s": total("length.sphere_bound"),
        "length.summability_s": total("length.summability"),
        "length.nuclearity_witness_s": total("length.nuclearity_witness"),
        "semichar.build_s": total("semichar.build"),
        "semichar.submultiplicativity_s": total("semichar.submultiplicativity"),
        "weighted.property_trials_s": total("weighted.property_trials"),
        "weighted.seminorm_checks_s": total("weighted.seminorm_checks"),
        "weighted.trials": counts.get("weighted.trials", 0),
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.runner_self_s": stat("cli.runner", SELF),
        "reports.write_s": total("reports.write"),
        "reports.bytes_written": counts.get("reports.bytes_written", 0),
    }


def per_layer(result: dict) -> tuple[dict, list]:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [sum(p["times"].values()) for p in passes[1:] if not p["traced"]]
    layers = [_layer_pass(p) for p in traced]
    values = {}
    for name in layers[0]:
        samples = [v[name] for v in layers]
        exact = all(isinstance(x, int) for x in samples)   # counts repeat exactly
        values[name] = statistics.median_low(samples) if exact else statistics.median(samples)
    traced_wall = statistics.median(sum(p["times"].values()) for p in traced)
    untraced_wall = statistics.median(untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["cache.first_pass_extra_s"] = sum(passes[0]["times"].values()) - untraced_wall
    notes = [f"passes: 1 cold untraced + {len(traced)} (untraced, traced) pairs; "
             f"traced wall {traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s"]
    return values, notes


def _worker(args, work: Path, extra: list, budget: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT), "--work", str(work),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="measuring window (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run only the two smallest sweep points (harness test)")
    args = p.parse_args(argv)
    started = time.monotonic()

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dualitylab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no duality-lab checkout at {ROOT}: src/dualitylab or configs/ is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    # build: byte-compile the package once, so no timed process compiles it
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("byte compilation of src/ failed", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    load = workloads.workload(args.workload, args.seed)
    if args.smoke:
        load = load.smallest()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            budget = TIME_LIMIT_S - (time.monotonic() - started)
            setups.append(_worker(args, work, ["--setup-only"], budget))
        result = _worker(args, work, [], TIME_LIMIT_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result)

    if args.trace:
        values, notes = per_layer(result)
    else:
        values, notes = end_to_end(result, load, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1

    failures = result["failures"]
    attempted = result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"(python {sys.version.split()[0]}, nproc {os.cpu_count()})")
    for line in notes:
        print(f"  {line}")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} instance runs)")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    correct = not failures
    print(f"correctness: {'PASS' if correct else 'FAIL'} "
          "(exit codes, verdicts, golden digests, bytes equal across passes"
          f"{', traced equals untraced' if args.trace else ''})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
