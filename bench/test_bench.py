"""Tests of the benchmark itself: corrupted outputs count as failed tasks,
seeds fix the inputs, and tracing leaves the package as it found it.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import Task, Workload  # noqa: E402

CLI = run.import_cli()


def run_one(workload, task, mangle=None):
    """Failed-task count of one task run through the benchmark loop."""
    workload.next_round = lambda: [task]
    durations, failed, _ = run.run_tasks(CLI.main, workload, 1e-9, mangle)
    assert len(durations) == 1
    return failed


def first(workload, kind, system):
    return next(t for t in workload.next_round()
                if t.kind == kind and t.system == system)


def test_classical_report_with_flipped_p_f_fails(tmp_path):
    wl = Workload("classical", 3, str(tmp_path))
    task = first(wl, "classical", "osc")
    assert run_one(wl, task) == 0

    def flip(t):
        with open(t.out, encoding="utf-8") as fh:
            report = json.load(fh)
        report["result"]["p_f"] = [-p for p in report["result"]["p_f"]]
        with open(t.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)

    assert run_one(wl, task, mangle=flip) == 1


def test_kernel_csv_perturbed_by_1e_2_fails(tmp_path):
    wl = Workload("propagator", 3, str(tmp_path))
    task = first(wl, "propagator", "free")
    assert run_one(wl, task) == 0

    def perturb(t):
        path = t.stem + ".absK.csv"
        np.savetxt(path, np.loadtxt(path, delimiter=",") + 1e-2, delimiter=",")

    assert run_one(wl, task, mangle=perturb) == 1


def test_pendulum_action_off_by_a_phase_fails(tmp_path):
    wl = Workload("semiclassical", 3, str(tmp_path))
    # a small semiclassical call, so the test runs in about a second
    T = 0.85
    task = Task("semiclassical", "pend",
                ["semiclassical", f"--spec={wl.spec_paths['pend']}", f"--T={T}",
                 "--grid=48", "--window=-1,1", "--slices=64",
                 "--classical-slices=60", "--threads=1",
                 f"--out={tmp_path / 'small.json'}"],
                str(tmp_path / "small"),
                {"T": T, "grid": 48, "window": (-1.0, 1.0), "classical_slices": 60,
                 "pair_fractions": np.array([[0.1, 0.9], [0.5, 0.5], [0.8, 0.2]])})
    assert run_one(wl, task) == 0

    def shift_phase(t):
        path = t.stem + ".measure_arg.csv"
        np.savetxt(path, np.loadtxt(path, delimiter=",", ndmin=2) + 0.01,
                   delimiter=",")

    assert run_one(wl, task, mangle=shift_phase) == 1


def test_nonzero_exit_counts_as_failed(tmp_path):
    wl = Workload("classical", 3, str(tmp_path))
    task = first(wl, "classical", "free")
    task.argv = [a if not a.startswith("--xf=") else "--xf=9.0" for a in task.argv]
    assert run_one(wl, task) == 1   # outside the declared domain: exit 1


@pytest.mark.parametrize("name", ["classical", "propagator", "semiclassical"])
def test_seed_alone_fixes_the_inputs(tmp_path, name):
    def inputs(seed, folder):
        folder.mkdir()
        wl = Workload(name, seed, str(folder))
        argv = [[a.replace(str(folder), "") for a in t.argv]
                for _ in range(2) for t in wl.next_round()]
        files = {k: Path(p).read_text() for k, p in wl.spec_paths.items()}
        return argv, files

    assert inputs(5, tmp_path / "a") == inputs(5, tmp_path / "b")
    assert inputs(5, tmp_path / "a2") != inputs(6, tmp_path / "c")


def test_tracer_records_layers_and_restores_the_package(tmp_path):
    from bmech import bqm, classical, cli, quantize, sysdsl
    before = (cli.solve_classical, bqm.solve_classical, classical.solve_classical,
              bqm.derivative_matrix, quantize.derivative_matrix,
              sysdsl.SystemSpec.lagrangian_derivs, bqm.make_action_evaluator)
    wl = Workload("classical", 4, str(tmp_path))
    tasks = [t for t in wl.next_round() if t.kind in ("classical", "brackets")][:3]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve_classical is bqm.solve_classical is classical.solve_classical
        assert cli.solve_classical is not before[0]
        main = tracer.wrap("cli.main", cli.main)
        for task in tasks:
            assert main(task.argv) == 0
    finally:
        tracer.uninstall()
    after = (cli.solve_classical, bqm.solve_classical, classical.solve_classical,
             bqm.derivative_matrix, quantize.derivative_matrix,
             sysdsl.SystemSpec.lagrangian_derivs, bqm.make_action_evaluator)
    assert all(a is b for a, b in zip(before, after))

    totals = tracer.totals()
    assert totals["cli.main"][0] == len(tasks)
    for calls, total, self_s in totals.values():
        assert calls > 0 and 0.0 <= self_s <= total + 1e-12
    # every span hangs below one cli.main root per task
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == len(tasks) and all(s[0] == "cli.main" for s in roots)
    metrics = tracer.per_layer(len(tasks), 0)
    assert [m for m, _ in PER_LAYER] == list(metrics)
    assert metrics["classical.solve_classical.calls"]["value"] >= 1
    assert metrics["classical.hessian_evals_per_solve"]["value"] >= 2


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "tasks_per_s", "task_p50_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
