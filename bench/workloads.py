"""Seeded task mixes.  A workload is an endless sequence of rounds; every
round has the same make-up (task kinds, systems, sizes) and only the seeded
values (boundary points, times, parameters) change, so any whole number of
rounds has the same mix.

Comma lists are passed as ``--opt=value``: the CLI's argparse reads a
separate leading-negative value such as ``--xf -0.2,0.8`` as an option.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from systems import make_systems, oscillator_discrete_momenta

WORKLOADS = ("classical", "propagator", "semiclassical")
SYSTEMS_USED = {"classical": ("free", "osc", "pend", "duo"),
                "propagator": ("free", "osc", "pend"),
                "semiclassical": ("osc", "pend")}

# classical: single solves (system, slices), then one scan, one brackets
# table and one quantize-check per round.  Five oscillator solves of one
# size sit in the middle of the cost range, so the median of a run always
# falls inside that group, whose cost does not depend on the seeded values
CLASSICAL_SINGLES = (("osc", 600), ("free", 200), ("osc", 600), ("pend", 300),
                     ("osc", 600), ("duo", 300), ("osc", 600), ("free", 800),
                     ("osc", 600), ("pend", 600), ("duo", 600))
SCAN_SLICES, SCAN_COUNT = 200, 6
BRACKET_SLICES = 800
QUANTIZE_GRID = 128
# propagator and semiclassical at the README sizes
KERNEL_GRID, KERNEL_SLICES = 256, 512
SEMI_GRID, SEMI_SLICES, SEMI_CLASSICAL_SLICES = 128, 256, 200
SEMI_WINDOW = (-2.0, 2.0)
# T in [0.80, 0.92] keeps the window at 25 ring points (625 solves) for
# every seed, so the work per call does not depend on the seed
SEMI_T = (0.80, 0.92)
# three oscillator calls to one pendulum call: the median (mean of the 2nd
# and 3rd of 4) is always taken over oscillator calls
SEMI_ROUND = ("osc", "osc", "pend", "osc")
ACTION_PAIRS = 6         # sampled window pairs on the pendulum
SUBCOMMAND = {"scan": "classical", "quantize": "quantize-check"}


@dataclass
class Task:
    """One CLI call with what its checks need to know."""

    kind: str
    system: str
    argv: list
    stem: str                      # output path without extension
    expect: dict = field(default_factory=dict)

    @property
    def out(self):
        return self.stem + ".json"

    def files(self):
        """Paths of the report and every dump the call wrote."""
        folder, base = os.path.split(self.stem)
        return [os.path.join(folder, name) for name in os.listdir(folder)
                if name.startswith(base + ".")]


def _csv(values):
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


class Workload:
    """System files and the task sequence of one workload for one seed."""

    def __init__(self, name, seed, workdir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        every = make_systems(self.rng)
        self.systems = {k: every[k] for k in SYSTEMS_USED[name]}
        self.spec_paths = {}
        for key, system in self.systems.items():
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(system.text())
            self.spec_paths[key] = path
        self._count = 0

    def _task(self, kind, system, args, expect):
        stem = os.path.join(self.workdir, f"t{self._count:05d}")
        self._count += 1
        argv = [SUBCOMMAND.get(kind, kind), f"--spec={self.spec_paths[system]}", *args,
                "--threads=1", f"--out={stem}.json"]
        return Task(kind, system, argv, stem, expect)

    def _u(self, lo, hi, size=None):
        return self.rng.uniform(lo, hi, size)

    def next_round(self):
        return {"classical": self._classical_round,
                "propagator": self._propagator_round,
                "semiclassical": self._semiclassical_round}[self.name]()

    # ------------------------------------------------------------------
    def _classical_round(self):
        tasks = []
        for key, N in CLASSICAL_SINGLES:
            n = self.systems[key].dim
            reach, (t_lo, t_hi) = ((1.0, (0.8, 1.6)) if key == "duo"
                                   else (1.5, (0.6, 2.0)))
            x_f, x_i = self._u(-reach, reach, n), self._u(-reach, reach, n)
            T = float(self._u(t_lo, t_hi))
            tasks.append(self._task(
                "classical", key,
                [f"--xf={_csv(x_f)}", f"--xi={_csv(x_i)}", "--ti=0",
                 f"--tf={T!r}", f"--slices={N}"],
                {"x_f": x_f, "x_i": x_i, "T": T, "N": N}))

        x_f, x_i = self._u(-1.5, 1.5, 1), self._u(-1.5, 1.5, 1)
        start, stop = float(self._u(0.5, 0.8)), float(self._u(2.0, 2.4))
        tasks.append(self._task(
            "scan", "osc",
            [f"--xf={_csv(x_f)}", f"--xi={_csv(x_i)}", f"--tf={stop!r}",
             f"--scan={start!r}:{stop!r}:{SCAN_COUNT}", f"--slices={SCAN_SLICES}"],
            {"x_f": x_f, "x_i": x_i, "N": SCAN_SLICES,
             "scan": (start, stop, SCAN_COUNT)}))

        # brackets at an exactly on-shell point of the discrete oscillator
        osc = self.systems["osc"].params
        x_f, x_i = (float(v) for v in self._u(-1.5, 1.5, 2))
        T = float(self._u(0.8, 2.0))
        p_f, p_i = oscillator_discrete_momenta(osc["m"], osc["w"], x_f, x_i, T,
                                               BRACKET_SLICES)
        tasks.append(self._task(
            "brackets", "osc",
            [f"--at={_csv([x_f, p_f, x_i, p_i])}",
             "--pairs=F:x1~F:x2;F:x1^2~G:1,0", f"--tf={T!r}",
             f"--slices={BRACKET_SLICES}",
             f"--seed={int(self.rng.integers(2**31))}"],
            {"x_f": x_f, "T": T, "N": BRACKET_SLICES}))

        gamma = float(self._u(0.1, 0.5))
        tasks.append(self._task("quantize", "osc",
                                [f"--grid={QUANTIZE_GRID}", f"--gamma={gamma!r}"], {}))
        return tasks

    def _propagator_round(self):
        tasks = []
        for key in ("free", "osc", "pend"):
            T = float(self._u(0.7, 1.1))
            pair = f"{key}-{self._count}"
            for method in ("cn", "trotter"):
                tasks.append(self._task(
                    "propagator", key,
                    [f"--T={T!r}", f"--grid={KERNEL_GRID}", f"--method={method}",
                     f"--slices={KERNEL_SLICES}"],
                    {"T": T, "pair": pair}))
        return tasks

    def _semiclassical_round(self):
        tasks = []
        lo, hi = SEMI_WINDOW
        for key in SEMI_ROUND:
            T = float(self._u(*SEMI_T))
            tasks.append(self._task(
                "semiclassical", key,
                [f"--T={T!r}", f"--grid={SEMI_GRID}", f"--window={lo!r},{hi!r}",
                 "--method=trotter", f"--slices={SEMI_SLICES}",
                 f"--classical-slices={SEMI_CLASSICAL_SLICES}"],
                {"T": T, "grid": SEMI_GRID, "window": SEMI_WINDOW,
                 "classical_slices": SEMI_CLASSICAL_SLICES,
                 "pair_fractions": self._u(0.0, 1.0, (ACTION_PAIRS, 2))}))
        return tasks
