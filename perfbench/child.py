"""One cold repetition, run in a fresh interpreter by run.py.

    python3 perfbench/child.py setup
    python3 perfbench/child.py cli <trace 0|1> <stdout file> <cli args...>

Both modes print one JSON line.  `import_done` is the CLOCK_MONOTONIC time at
which `import faadibruno` completed; the parent subtracts its spawn time.  In
`setup` mode the child adds one sample of the machine's slowdown.  In
`cli` mode the child also reports the wall time of `cli.main(args)` (from the
call until the command's output is written and flushed), its exit code and
the process's peak resident set size; with trace 0 it adds the machine
slowdowns sampled during the call (calibrate.py) and the time the sampling
took, and with trace 1 the span summary.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import faadibruno  # noqa: E402

IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import json  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident set of this process image.  getrusage's ru_maxrss
    would also count the parent's memory, which Linux carries across the
    spawn's fork and exec into the child's figure."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(trace: bool, stdout_path: str, args: list[str]) -> dict:
    from faadibruno import cli

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate

    tracer = sampler = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = calibrate.Sampler()
        sampler.samples.append(calibrate.sample())
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        if sampler:
            sampler.start()
        start = time.perf_counter()
        virtual_start = tracer.clock() if tracer else 0.0
        try:
            code = cli.main(args)
            out.flush()
        finally:
            wall = time.perf_counter() - start
            if sampler:
                sampler.stop()
        virtual = tracer.clock() - virtual_start if tracer else wall
    result = {"import_done": IMPORT_DONE, "exit_code": code, "wall_s": wall,
              "maxrss_kb": peak_rss_kb()}
    if tracer:
        result["trace"] = tracer.summary(virtual)
    else:
        result["calibration"] = sampler.samples
        result["calibration_spent_s"] = sampler.spent
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import calibrate

        print(json.dumps({"import_done": IMPORT_DONE, "slowdown": calibrate.sample()}))
        return 0
    if len(argv) >= 3 and argv[0] == "cli":
        print(json.dumps(run_cli(argv[1] == "1", argv[2], argv[3:])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
