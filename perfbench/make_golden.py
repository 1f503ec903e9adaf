"""Regenerate golden.json: exit code, verdicts and SHA-256 of every output file.

Runs each workload's instances once, untraced, at the default seed. Run it
from the repository root only when a change is meant to alter report bytes:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import GOLDEN, Runner, digests, verdicts  # noqa: E402


def main() -> int:
    golden = {}
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=ROOT))
    try:
        for name in workloads.NAMES:
            load = workloads.workload(name, workloads.DEFAULT_SEED)
            runner = Runner(ROOT, work / name, load, {}, exact_bytes=True)
            entries = {}
            for inst in load.instances:
                runner.run(inst)
                out = runner.outs[inst.name]
                entries[inst.name] = {
                    "rc": runner.rc[inst.name],
                    "checks": verdicts(out),
                    "files": digests(out),
                }
                print(f"{name}/{inst.name}: exit {runner.rc[inst.name]}", flush=True)
            golden[name] = entries
    finally:
        shutil.rmtree(work)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
