"""Benchmark of the mtdgame payoff grid, best-response training and
double-oracle solve.

    python3 perfbench/run.py --workload {grid,train,oracle} --seed N \
        --seconds S --trace {0,1}

Each repetition is a fresh process (worker.py) that runs one `mtdgame`
command in-process with `--jobs 1`; repetitions follow one another (a
closed loop with one client) until `--seconds` have passed, at least
three of them.  Repetition r runs the command with seed 1000 * N + r.
The artifacts of every repetition are checked.  With `--trace 0` the
end-to-end metrics are the medians over the repetitions, with times in
reference seconds that divide out the shared host's speed (refclock.py);
with `--trace 1` each repetition is run untraced and then traced, and the
per-layer metrics come from the traced repetition with the median wall
time.

Human-readable metrics go to stdout, the run record (machine, commit,
every repetition, result fingerprints) to perfbench/_runs/, and the last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import host_speed, reference_seconds
from workloads import BENCH_DIR, HORIZON, WORKLOADS, Outcome

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"
MIN_REPS = 3
MIN_SETUP_SAMPLES = 16   # set-up-only runs top short runs up to this
REP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "env_steps_per_s": "1/s",
                    "oracle_call_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("calls", "oracle_calls", "iterations"):
        return "count"
    if "ratio" in last:
        return "ratio"
    tokens = last.split("_")
    return "us" if "us" in tokens else "ms" if "ms" in tokens else "s"


def spawn_worker(wl, rep_dir: Path, seed: int, traced: bool, refclock: bool,
                 setup_only: bool = False):
    """Run worker.py once; returns its result and the time it was started.
    With `refclock` the worker samples the host's speed."""
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    job = {"src": str(SRC), "argv": wl.argv(rep_dir / "out", seed), "entry": wl.entry,
           "trace": traced, "refclock": refclock, "setup_only": setup_only,
           "run_id": rep_dir.name,
           "result": str(result_path), "spans": str(rep_dir / "spans.csv")}
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
                                cwd=ROOT, stdout=so, stderr=se)
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if not result_path.exists():
        return {"exit_code": f"worker exit {proc.returncode}"}, spawn_ns
    return json.loads(result_path.read_text()), spawn_ns


def setup_probe(wl, rep_dir: Path, seed: int) -> float:
    """Set-up time, in reference seconds, of a run stopped at its first
    call into the workload."""
    res, spawn_ns = spawn_worker(wl, rep_dir, seed, traced=False, refclock=True,
                                 setup_only=True)
    shutil.rmtree(rep_dir)
    first = res.get("first_call_ns")
    return reference_seconds(res["ref_samples"], spawn_ns, first) if first else float("nan")


def run_repetition(wl, rep_dir: Path, seed: int, traced: bool, refclock: bool) -> dict:
    """Run one repetition in a fresh process and check what it wrote."""
    res, spawn_ns = spawn_worker(wl, rep_dir, seed, traced, refclock)
    out = rep_dir / "out"
    code = res["exit_code"]
    try:
        oc = wl.check(out, code)
    except Exception as exc:  # a missing or malformed artifact fails the repetition
        oc = Outcome(attempted=1, failed=1, problems=[f"check raised {exc!r}"])
    if res.get("error"):
        oc.fail("exception in the program: " + res["error"].strip().splitlines()[-1])
    first = res.get("first_call_ns")
    nan = float("nan")
    samples = res.get("ref_samples")
    timed = first is not None and samples is not None
    return {
        "rep": rep_dir.name, "cli_seed": seed, "traced": traced, "exit_code": code,
        "setup_s": reference_seconds(samples, spawn_ns, first) if timed else nan,
        "wall_s": reference_seconds(samples, first, res["end_ns"]) if timed else nan,
        "host_setup_s": (first - spawn_ns) / 1e9 if first else nan,
        "host_wall_s": (res["end_ns"] - first) / 1e9 if first else nan,
        "host_speed": host_speed(samples) if samples else nan,
        "steps": oc.steps, "units": oc.units,
        "peak_rss_mb": res.get("maxrss_kb", 0) / 1024,
        "attempted": oc.attempted, "failed": oc.failed, "problems": oc.problems,
        "fingerprints": oc.fingerprints, "layers": res.get("layers"),
    }


def run_record(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the layout of show_config differs across numpy versions
        blas = f"unknown ({exc!r})"
    git = {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=30)
            git = {"commit": lines[1], "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "horizon": args.t,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items()
                       if re.search(r"THREAD|^OMP_|^MKL_|^OPENBLAS_", k)},
        "git": git,
    }


def end_to_end(reps: list[dict], probes: list[float]) -> dict[str, list[float]]:
    """Per-repetition values of each end-to-end metric."""
    return {
        "setup_s": [r["setup_s"] for r in reps] + [p for p in probes if math.isfinite(p)],
        "wall_s": [r["wall_s"] for r in reps],
        "env_steps_per_s": [r["steps"] / r["wall_s"] for r in reps],
        "oracle_call_s": [r["wall_s"] / r["units"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], str]:
    """Layer metrics of the traced repetition with the median wall time,
    so that its self times still add up; plus the tracing overhead."""
    if not traced:
        return {}, None
    chosen = sorted(traced, key=lambda r: r["host_wall_s"])[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    plain_wall = {r["cli_seed"]: r["host_wall_s"] for r in plain}
    ratios = [t["host_wall_s"] / plain_wall[t["cli_seed"]] for t in traced
              if t["cli_seed"] in plain_wall]
    metrics["tracing.overhead_ratio"] = statistics.median(ratios) if ratios else float("nan")
    return metrics, chosen["rep"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t", type=int, default=HORIZON,
                    help="horizon; smaller than the paper's 1000 only for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "mtdgame" / "__init__.py").is_file():
        print(f"error: no mtdgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC, quiet=1)
    # Load numpy and the package once, untimed, so the first repetition
    # does not pay for a cold file cache.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import mtdgame.cli"], cwd=ROOT, check=True, timeout=REP_TIMEOUT_S)

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](run_dir, args.t)
    plain, traced, probes = [], [], []
    deadline = time.monotonic() + args.seconds
    r = 0
    while r < MIN_REPS or time.monotonic() < deadline:
        seed = 1000 * args.seed + r
        # A traced run compares untraced and traced host wall times, so
        # neither samples the host's speed.
        plain.append(run_repetition(wl, run_dir / f"rep{r:03d}", seed, False,
                                    refclock=not args.trace))
        if args.trace:
            traced.append(run_repetition(wl, run_dir / f"rep{r:03d}-traced", seed, True,
                                         refclock=False))
        elif len(plain) + len(probes) < MIN_SETUP_SAMPLES:
            probes.append(setup_probe(wl, run_dir / f"setup{r:03d}", seed))
        r += 1

    reps = plain + traced
    attempted = sum(x["attempted"] for x in reps)
    failed = sum(x["failed"] for x in reps)
    timed = [x for x in plain if math.isfinite(x["host_wall_s"])]
    spread, values = {}, {}
    if args.trace:
        metrics, chosen = per_layer(timed, [x for x in traced if x["layers"]])
        units = {k: layer_unit(k) for k in metrics}
    else:
        chosen = None
        values = end_to_end(timed, probes) if timed else {}
        metrics = {k: statistics.median(v) for k, v in values.items()}
        spread = {k: statistics.quantiles(v, n=4) for k, v in values.items() if len(v) > 1}
        units = END_TO_END_UNITS
    # Keep the first repetition's artifacts and the chosen traced
    # repetition's spans as examples; the rest only feed the record.
    for x in reps:
        if x["rep"] not in ("rep000", chosen):
            shutil.rmtree(run_dir / x["rep"])
    record = run_record(args)
    record.update(workload_params={"argv": wl.argv(Path("<out>"), 1000 * args.seed)},
                  repetitions=reps, setup_probes_s=probes, metrics=metrics, layers_from=chosen,
                  attempted=attempted, failed=failed,
                  error_rate=failed / attempted if attempted else float("nan"))
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} repetitions"
          f"{f' (+ traced, layers from {chosen})' if args.trace else ''}")
    for x in reps:
        if x["problems"]:
            print(f"  {x['rep']}: FAILED {'; '.join(x['problems'])}")
    first = plain[0]["fingerprints"]
    for name, digest in first.items():
        print(f"  sha256 {name} (seed {plain[0]['cli_seed']}): {digest}")
    for name, value in metrics.items():
        q = spread.get(name)
        extra = f"  (n={len(values[name])}, q1 {q[0]:.6g}, q3 {q[2]:.6g})" if q else ""
        print(f"  {name:42s} {value:14.6g} {units[name]}{extra}")
    if timed and not args.trace:
        host = {k: statistics.median(x[k] for x in timed)
                for k in ("host_setup_s", "host_wall_s", "host_speed")}
        print(f"  host clock: setup {host['host_setup_s']:.6g} s, wall {host['host_wall_s']:.6g} s,"
              f" speed {host['host_speed']:.4g} x nominal (medians)")
    print(f"  error_rate {failed}/{attempted}; record: {run_dir / 'record.json'}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
