"""Benchmark of the bmech command line.

    python3 bench/run.py --workload classical|propagator|semiclassical \
        --seed N --seconds S --trace 0|1

One closed-loop client in one process: each task is one ``bmech`` CLI call
made in-process through ``bmech.cli.main(argv)``, one at a time with no
think time, on inputs generated from ``--seed``.  After each call the report
and CSV dumps are read back and checked (checks.py); a task fails on a
non-zero exit code or any failed check.  Whole rounds of tasks run until the
calls have taken ``--seconds``.  The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# fresh interpreters timed per run, half before and half after the tasks so
# that set-up samples the machine at both ends of the run
SETUP_STARTS = 3

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Task, Workload  # noqa: E402

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import bmech.cli
from bmech import sysdsl
for path in sys.argv[2:]:
    with open(path, "rb") as fh:
        sysdsl.parse(fh.read().decode("utf-8"))
print("ready", flush=True)
"""


def import_cli():
    """bmech.cli from this checkout's source tree, never an installed copy."""
    if not (SRC / "bmech" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import bmech.cli
    if Path(bmech.cli.__file__).resolve().parent != SRC / "bmech":
        raise SystemExit(f"bench: imported bmech from {bmech.cli.__file__}, "
                         f"not from {SRC}")
    return bmech.cli


def time_setup(spec_paths):
    """Seconds from launching a fresh interpreter until bmech.cli is
    imported and the system files are parsed."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), *spec_paths],
                          stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or ready.strip() != "ready":
        raise SystemExit(f"bench: set-up child failed ({child.returncode})")
    return elapsed


def invoke(main, argv):
    """Exit code of one CLI call; a crash counts as a failed call."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - any crash is one failed task
        traceback.print_exc()
        return -1


def warm_up(main, workload):
    """One untimed call of the workload's subcommand at a tiny size, so lazy
    imports and first-call costs stay out of the timed part."""
    spec = next(iter(workload.spec_paths.values()))
    task = Task("warmup", "", [], os.path.join(workload.workdir, "warmup"))
    argv = {"classical": ["quantize-check", "--grid=16"],
            "propagator": ["propagator", "--T=0.5", "--grid=32", "--slices=8"],
            "semiclassical": ["semiclassical", "--T=0.5", "--grid=32",
                              "--slices=8", "--classical-slices=8"]}[workload.name]
    rc = invoke(main, [*argv, f"--spec={spec}", "--threads=1", f"--out={task.out}"])
    if rc != 0:
        raise SystemExit(f"bench: warm-up call failed with exit code {rc}")
    for path in task.files():
        os.remove(path)


def run_tasks(main, workload, seconds, mangle=None):
    """Run whole rounds, at least one, and stop at the round boundary where
    the calls' summed time comes nearest to ``seconds``.

    Returns (durations, failed, bytes_written).  ``mangle(task)``, if
    given, is applied to a task's outputs before they are checked.
    """
    durations, failed, written = [], 0, 0
    state = {}
    rounds = 0
    while not rounds or sum(durations) * (1 + 0.5 / rounds) < seconds:
        rounds += 1
        for task in workload.next_round():
            t0 = time.perf_counter()
            rc = invoke(main, task.argv)
            durations.append(time.perf_counter() - t0)
            written += sum(os.path.getsize(path) for path in task.files())
            if mangle is not None:
                mangle(task)
            problems = ([f"exit code {rc}"] if rc != 0 else
                        checks.check(task, workload.systems, state))
            if problems:
                failed += 1
                print(f"bench: FAILED {' '.join(task.argv)}: {'; '.join(problems)}",
                      file=sys.stderr)
            for path in task.files():
                os.remove(path)
    return durations, failed, written


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = Workload(args.workload, args.seed, str(workdir))
        specs = list(workload.spec_paths.values())
        tracer = None
        main_call = cli.main
        setups = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            main_call = tracer.wrap("cli.main", cli.main)
        else:
            time_setup(specs)  # not counted: warms the file cache
            setups += [time_setup(specs) for _ in range(SETUP_STARTS)]
        warm_up(cli.main, workload)
        durations, failed, written = run_tasks(main_call, workload, args.seconds)
        if not args.trace:
            setups += [time_setup(specs) for _ in range(SETUP_STARTS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(durations)
    timed = sum(durations)
    print(f"bench: {args.workload} seed {args.seed} trace {args.trace}: {n} tasks "
          f"in {timed:.2f} s, {failed} failed, median {statistics.median(durations):.4f} s",
          file=sys.stderr)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = tracer.per_layer(n, written)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "tasks_per_s": {"value": n / timed, "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
