"""The three workloads. Each is one closed-loop client in one process.

A workload turns ``--seed`` into an endless, reproducible stream of inputs
(``inputs``), runs one operation per input inside the timed region
(``run``), and checks the operation's output outside it (``check``).
``points`` is the number of operating points an operation solves; the
end-to-end metrics are per solved point so that operations of different
sizes can share one distribution.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import time
from dataclasses import replace
from pathlib import Path

import gate
from stats import LogHistogram

GOLDEN = Path(__file__).resolve().parent / "golden"


class SweepDense:
    """API users mapping the response: sweep_detuning or sweep_alignment
    plus find_extrema on calibrated_params().

    Grid sizes are log-uniform over [401, 20001], drawn in cycles of
    STRATA shuffled strata of the log range so that the mix of sizes is
    the same from seed to seed. The first sweep of every stream has the
    largest grid, so peak memory is always taken at that size.
    """

    name = "sweep-dense"
    gate_every = 1
    STRATA = 6
    D_RANGE = (-20.0, 20.0)
    P_RANGE = (0.0, 0.999999)
    ALIGNMENT_DETUNING = 1e-16
    SAMPLES_PER_SWEEP = 2

    def __init__(self, sg, workdir, sizes=(401, 20001)):
        self.sg = sg
        self.sizes = sizes
        self.base = sg.calibrate.calibrated_params()
        self.alignment_base = replace(self.base, delta_p=self.ALIGNMENT_DETUNING)

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = (math.log(s) for s in self.sizes)

        def sweep(steps):
            p = rng.uniform(0.0, 0.999) if rng.random() < 0.5 else None
            samples = tuple(rng.randrange(steps) for _ in range(self.SAMPLES_PER_SWEEP))
            return ("detuning" if p is not None else "alignment", steps, p, samples)

        yield sweep(self.sizes[1])
        while True:
            strata = list(range(self.STRATA))
            rng.shuffle(strata)
            for k in strata:
                yield sweep(int(round(math.exp(lo + (k + rng.random()) / self.STRATA * (hi - lo)))))

    def points(self, inp) -> int:
        return inp[1]

    def run(self, inp):
        axis, steps, p, _ = inp
        sweep = self.sg.sweep
        if axis == "detuning":
            table = sweep.sweep_detuning(replace(self.base, p_align=p), *self.D_RANGE, steps)
        else:
            table = sweep.sweep_alignment(self.alignment_base, *self.P_RANGE, steps)
        return table, sweep.find_extrema(table)

    def check(self, inp, result) -> list:
        axis, steps, p, samples = inp
        table, extrema = result
        if axis == "detuning":
            params, field = replace(self.base, p_align=p), "delta_p"
        else:
            params, field = self.alignment_base, "p_align"
        problems = []
        if len(table.grid) != steps:
            problems.append(f"{len(table.grid)} grid points, asked for {steps}")
        problems += gate.check_table(table)
        problems += gate.check_extrema(table, extrema)
        problems += gate.check_records(
            self.sg, params, field, ((g, r) for g, r in zip(table.grid, table.records) if r is not None))
        for i in samples:
            point = replace(params, **{field: table.grid[i]})
            problems += gate.check_steady_sample(self.sg, point, table.records[i])
        return problems


class PointStream:
    """Interactive response_at calls, one point at a time.

    Every tenth point uses the paper's literal equations; about half of
    those raise NonPhysicalState, the expected outcome, which the gate
    checks like any other answer.
    """

    name = "point-stream"
    gate_every = 2000
    P_RANGE = (-0.999, 0.999)
    D_RANGE = (-20.0, 20.0)
    PAPER_EVERY = 10
    STEADY_SAMPLE_EVERY = 50

    def __init__(self, sg, workdir):
        self.sg = sg
        self.base = sg.calibrate.calibrated_params()
        self.variants = (sg.params.EquationVariant.CORRECTED,
                         sg.params.EquationVariant.PAPER_LITERAL)

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        for i in itertools.count():
            yield (rng.uniform(*self.P_RANGE), rng.uniform(*self.D_RANGE),
                   i % self.PAPER_EVERY == self.PAPER_EVERY - 1,
                   i % self.STEADY_SAMPLE_EVERY == 0)

    def points(self, inp) -> int:
        return 1

    def run(self, inp):
        p, d, paper, _ = inp
        params = replace(self.base, p_align=p, delta_p=d, equation_variant=self.variants[paper])
        try:
            return params, self.sg.response.response_at(params)
        except self.sg.steady.NonPhysicalState as exc:
            return params, exc

    def check(self, inp, result) -> list:
        _, _, paper, sample = inp
        params, outcome = result
        if isinstance(outcome, self.sg.steady.NonPhysicalState):
            if not paper:
                return [f"{params.p_align}, {params.delta_p}: NonPhysicalState from the corrected equations"]
            return gate.check_nonphysical(self.sg, params, outcome)
        problems = gate.check_records(self.sg, params, None, [(None, outcome)])
        if sample:
            problems += gate.check_steady_sample(self.sg, params, outcome)
        return problems


class CliReadme:
    """The README's five commands, in-process through sgcvapor.cli.main.

    Each command runs in a directory of its own, so no command overwrites
    another's output before the gate reads it, and every sidecar records
    the same relative ``out`` as the README command. The commands are
    fixed so that their outputs can be compared byte for byte; the seed
    is recorded but not used.
    """

    name = "cli-readme"
    gate_every = 1
    SWEEP_COMMANDS = slice(0, 4)   # all but the --oracle command
    ORACLE_COMMAND = 4

    def __init__(self, sg, workdir):
        self.sg = sg
        self.golden = json.loads((GOLDEN / "readme_commands.json").read_text())["commands"]
        self.dirs = []
        shutil.rmtree(workdir, ignore_errors=True)
        for i, _ in enumerate(self.golden):
            d = workdir / f"cmd{i + 1}"
            d.mkdir(parents=True)
            self.dirs.append(d)
        shutil.copy(GOLDEN / "run.conf", self.dirs[3] / "run.conf")
        self.home = Path.cwd()
        self.bytes_written = 0
        self.sweep_cmds_s = LogHistogram(1e-3, 1e3)
        self.oracle_cmd_s = LogHistogram(1e-3, 1e3)

    def inputs(self, seed):
        return itertools.repeat(None)

    def points(self, inp) -> int:
        return sum(c["sidecar"]["points_total"] for c in self.golden)

    def run(self, inp):
        main = self.sg.cli.main
        seconds, codes = [], []
        try:
            for d, command in zip(self.dirs, self.golden):
                os.chdir(d)
                t0 = time.perf_counter()
                codes.append(main(list(command["argv"])))
                seconds.append(time.perf_counter() - t0)
        finally:
            os.chdir(self.home)
        return seconds, codes

    def check(self, inp, result) -> list:
        seconds, codes = result
        self.sweep_cmds_s.add(sum(seconds[self.SWEEP_COMMANDS]))
        self.oracle_cmd_s.add(seconds[self.ORACLE_COMMAND])
        problems = []
        for d, command, code in zip(self.dirs, self.golden, codes):
            name = " ".join(command["argv"])
            if code != 0:
                problems.append(f"{name}: exit status {code}")
                continue
            out = d / command["out"]
            csv = out.read_bytes()
            sidecar = out.with_name(out.name + ".meta.json").read_bytes()
            self.bytes_written += len(csv) + len(sidecar)
            problems += gate.check_csv(csv, command["csv_sha256"], name)
            problems += gate.check_sidecar(sidecar, command["sidecar"], name)
        return problems


WORKLOADS = {w.name: w for w in (SweepDense, PointStream, CliReadme)}
