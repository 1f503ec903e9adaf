"""One benchmark process: set up, then run a workload's configs pass after pass.

Started by ``run.py`` in a fresh interpreter, so each run pays the import and
cache warm-up a CLI user pays. Every config goes through
``dualitylab.cli.main`` in this single process; its outputs are checked
against ``golden.json`` and against the first pass. Pass 0 is cold and kept
out of the medians. Untraced runs then repeat untraced passes for
``--seconds``; traced runs repeat (untraced, traced) pairs. The last line of
standard output is a JSON record that ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
SETUP_SPEED_SAMPLES = 10   # probes right after set-up, to correct set-up time


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def verdicts(out_dir: Path) -> list:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return [[c["name"], c["passed"]] for c in report["checks"]]


def _plain_timer(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, wall


class Runner:
    """Runs instances through the CLI and checks what they wrote.

    ``timer(fn, *args)`` returns (result, wall seconds, reference seconds);
    ``exact_bytes`` says whether seeded instances must match the golden bytes.
    """

    def __init__(self, root: Path, work: Path, workload, golden: dict, exact_bytes: bool,
                 timer=_plain_timer):
        from dualitylab import cli

        self.cli = cli
        self.timer = timer
        self.workload = workload
        self.golden = golden
        self.exact_bytes = exact_bytes
        self.paths = {}
        self.outs = {}
        for inst in workload.instances:
            if inst.committed:
                self.paths[inst.name] = root / "configs" / inst.committed
            else:
                path = work / "configs" / f"{inst.name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(inst.config, indent=2), encoding="utf-8")
                self.paths[inst.name] = path
            self.outs[inst.name] = work / "out" / inst.name
        self.first: dict[str, dict] = {}   # digests of pass 0
        self.rc: dict[str, int] = {}       # last exit code per instance
        self.failures: list[str] = []
        self.attempted = 0

    def _main(self, argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(argv)

    def run(self, inst) -> tuple[float, float]:
        """Run one instance; returns (wall seconds, reference seconds)."""
        out = self.outs[inst.name]
        if out.exists():
            for p in out.iterdir():
                p.unlink()
        argv = ["--config", str(self.paths[inst.name]), "--out", str(out)]
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            rc, wall, ref = self.timer(self._main, argv)
        except Exception as exc:   # a crash is a failed instance, not a dead benchmark
            self.failures.append(f"{inst.name}: raised {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            return wall, wall
        self.rc[inst.name] = rc
        problem = self.check(inst, rc, out)
        if problem:
            self.failures.append(f"{inst.name}: {problem}")
        return wall, ref

    def check(self, inst, rc: int, out: Path) -> str:
        want = self.golden.get(inst.name)
        if want is None:
            return "no golden entry"
        if rc != want["rc"]:
            return f"exit code {rc}, expected {want['rc']}"
        got = digests(out)
        if sorted(got) != sorted(want["files"]):
            return f"wrote {sorted(got)}, expected {sorted(want['files'])}"
        if verdicts(out) != want["checks"]:
            return "verdicts differ from the golden run"
        if (self.exact_bytes or not inst.seeded) and got != want["files"]:
            return "bytes differ from the golden digests"
        first = self.first.setdefault(inst.name, got)
        if got != first:
            return "bytes differ from the first pass"
        return ""

    def run_pass(self) -> dict:
        runs = {inst.name: self.run(inst) for inst in self.workload.instances}
        return {"traced": False,
                "times": {name: wall for name, (wall, _) in runs.items()},
                "ref": {name: ref for name, (_, ref) in runs.items()}}

    def sizes(self) -> dict:
        key = self.workload.size_key
        out = {}
        for inst in self.workload.instances:
            if inst.sweep:
                report = json.loads((self.outs[inst.name] / "report.json").read_text(encoding="utf-8"))
                out[inst.name] = report["results"][key]
        return out


def traced_pass(runner: Runner, tracer, number: int) -> dict:
    tracer.reset()
    tracer.install()
    try:
        times = {}
        for inst in runner.workload.instances:
            tracer.request = f"pass{number}/{inst.name}"
            times[inst.name] = runner.run(inst)[0]
    finally:
        tracer.uninstall()
    return {
        "traced": True,
        "times": times,
        "stats": {k: [s.calls, s.total_s, s.self_s] for k, s in tracer.stats.items()},
        "counts": dict(tracer.counts),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--spawned", required=True, type=float, help="time.monotonic() at spawn")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # set-up: everything between process start and the first timed call
    sys.path.insert(0, str(args.root / "src"))
    import workloads

    load = workloads.workload(args.workload, args.seed)
    if args.smoke:
        load = load.smallest()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload, {})
    # spans and the speed probe's timer interrupts must not meet: probe untraced runs only
    timer = _plain_timer if args.trace else speed.SpeedProbe().measure
    runner = Runner(args.root, args.work, load, golden, args.seed == workloads.DEFAULT_SEED, timer)
    setup_s = time.monotonic() - args.spawned
    setup_ref_s = setup_s * speed.factor([speed.probe() for _ in range(SETUP_SPEED_SAMPLES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    tracer = None
    passes = [runner.run_pass()]
    sizes = runner.sizes()
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    deadline = time.monotonic() + args.seconds
    while True:
        start = time.monotonic()
        passes.append(runner.run_pass())
        if tracer is not None:
            passes.append(traced_pass(runner, tracer, len(passes)))
        # stop when another round would mostly run past the window
        if time.monotonic() + (time.monotonic() - start) / 2 >= deadline:
            break

    if tracer is not None:
        trace_file = args.work.parent / f"trace-{args.workload}-seed{args.seed}.json"
        fields = ("request", "name", "start", "duration", "self", "parent")
        trace_file.write_text(
            json.dumps([dict(zip(fields, r)) for r in tracer.records]), encoding="utf-8")

    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "sizes": sizes,
        "attempted": runner.attempted,
        "failures": runner.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
