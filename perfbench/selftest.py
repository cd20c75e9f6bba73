"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at horizon T=20 and
checks that the result line carries exactly the workload and metric names
(and units) that BENCHMARK.json declares, with every output check passing.
Then checks that the benchmark refuses to run, without a result line, in
a copy that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--t", "20"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        problems.append(f"workloads {declared} != implemented {sorted(WORKLOADS)}")
    for workload in declared:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result.get("correct") or result.get("failed"):
                problems.append(f"{workload} trace {trace}: output checks failed\n"
                                + "\n".join(lines[:-1]))
            print(f"{workload} trace {trace}: {len(got)} metrics, "
                  f"{result.get('attempted')} operations, correct {result.get('correct')}")

    bare = BENCH_DIR / "_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("_runs"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, declared[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/ the benchmark exited {proc.returncode}: {proc.stdout}")
    else:
        print(f"without src/: exit {proc.returncode}, no result line")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
