"""Run one repetition of a benchmark workload in a fresh process.

Usage: python3 worker.py '<job json>'.  `run.py` builds the job: the
`mtdgame` command line, the name in `mtdgame.cli` whose first call ends
set-up, whether to trace, and where to write the result.  The command runs
in-process through `mtdgame.cli.main`, or, for a set-up-only run, up to
its first call into the workload.  Only what the timing needs is imported
before the program, so set-up time is the program's own.  A run that
times the end-to-end metrics samples the host's speed throughout
(refclock.py) and returns the samples.
"""

import json
import resource
import sys
import time
import traceback


class SetupDone(Exception):
    """Stops a set-up-only run at the first call into the workload."""


def main() -> int:
    job = json.loads(sys.argv[1])
    clock = None
    if job["refclock"]:
        from refclock import RefClock

        clock = RefClock()
        clock.start()
    sys.path.insert(0, job["src"])
    import mtdgame.cli as cli

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    marks = []
    entry = getattr(cli, job["entry"])

    def first_call(*args, **kwargs):
        if not marks:
            marks.append(time.monotonic_ns())
            if job["setup_only"]:
                raise SetupDone
        return entry(*args, **kwargs)

    setattr(cli, job["entry"], first_call)
    run_main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    code, error = None, None
    try:
        code = run_main(job["argv"])
    except SetupDone:
        pass
    except SystemExit as exc:
        code = exc.code
    except Exception:
        error = traceback.format_exc()
    end = time.monotonic_ns()
    if clock is not None:
        clock.stop()
    result = {
        "exit_code": code,
        "error": error,
        "first_call_ns": marks[0] if marks else None,
        "end_ns": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ref_samples": clock.samples if clock is not None else None,
    }
    if tracer is not None and marks:
        result["layers"] = tracer.layer_metrics(marks[0], end)
        tracer.write_spans(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
