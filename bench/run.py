"""sgcvapor benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. ``--trace 0`` measures the end-to-end
metrics with tracing off, with the reference kernel and the set-up
interpreters spread over the measured run. ``--trace 1`` alternates 1 s blocks without and
with every layer's public functions wrapped in spans, and reports the
per-layer metrics plus the tracing overhead. ``--workload all`` runs the
three workloads one after another, each in a fresh interpreter.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Full
results with the environment go to ``.bench_work/results/`` and the spans
of a traced run to ``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
# the unit of rescaled set-up time: about one start-up interpreter (Python
# start plus numpy import) on the shared Intel Xeon this was built on
REF_START_S = 0.2
# README values of the calibrated dipoles (11 significant digits)
CALIBRATED_D42 = 4.7513729269e-25
CALIBRATED_MU23 = 4.2990704147e-27
# a run stops measuring at --seconds of timed work or at this many times
# --seconds of wall time, whichever comes first
WALL_CAP = 4.0
# The CPUs of a shared machine run slow for a few seconds after idling;
# below this much warm-up the first CLI passes were 20-40% slower.
WARMUP_SECONDS = 3.0
TRACE_BLOCK_SECONDS = 1.0

START_CODE = "import numpy"
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sgcvapor.cli
t1 = time.perf_counter()
cal = sgcvapor.calibrate.calibrate_dipoles()
t2 = time.perf_counter()
import json
print(json.dumps({"file": sgcvapor.__file__, "import_s": t1 - t0,
                  "calibrate_ms": (t2 - t1) * 1e3, "d42": cal.d42, "mu23": cal.mu23}))
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package():
    if not (SRC / "sgcvapor" / "__init__.py").is_file():
        fail(f"no sgcvapor package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sgcvapor
    import sgcvapor.cli  # noqa: F401  (imports every layer)
    if not Path(sgcvapor.__file__).resolve().is_relative_to(SRC):
        fail(f"imported sgcvapor from {sgcvapor.__file__}, not from {SRC}")
    return sgcvapor


class Setup:
    """Fresh interpreters that import sgcvapor.cli and calibrate the dipoles.

    Each is followed at once by a start-up interpreter that only imports
    numpy. Both take most of their time starting a process and mapping
    shared libraries, which slows with the machine's state independently of
    the CPU speed the reference kernel sees; the ratio of the two, taken a
    moment apart, cancels that. ``rescaled_s`` is the median set-up time at
    the speed at which the start-up interpreter takes ``REF_START_S``.
    Work that sgcvapor adds to its import or calibration raises the set-up
    time and not the start-up one, so it shows in full.
    """

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempts = self.failed = 0
        self.runs, self.problems = [], []

    def _interpreter(self, code: str):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        return proc, time.perf_counter() - t0

    def once(self) -> None:
        """One set-up and start-up pair, up to ``repeats`` in all."""
        if self.attempts >= self.repeats:
            return
        self.attempts += 1
        proc, wall = self._interpreter(SETUP_CODE)
        start, start_s = self._interpreter(START_CODE)
        for name, p in (("setup", proc), ("start-up", start)):
            if p.returncode != 0:
                self.failed += 1
                self.problems.append(f"{name}: exit status {p.returncode}: {p.stderr.strip()[-300:]}")
                return
        child = json.loads(proc.stdout.splitlines()[-1])
        child.update(wall_s=wall, start_s=start_s)
        self.runs.append(child)
        found = []
        if not Path(child["file"]).resolve().is_relative_to(SRC):
            found.append(f"setup imported sgcvapor from {child['file']}")
        for key, want in (("d42", CALIBRATED_D42), ("mu23", CALIBRATED_MU23)):
            if abs(child[key] - want) > 1e-9 * want:
                found.append(f"setup: calibrated {key} = {child[key]!r}, README says {want}")
        self.failed += bool(found)
        self.problems += found

    def fill(self) -> None:
        while self.attempts < self.repeats:
            self.once()

    def median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.runs)

    def rescaled_s(self) -> float:
        return REF_START_S * statistics.median(r["wall_s"] / r["start_s"] for r in self.runs)


class Every:
    """Runs ``action`` between operations, once per ``period_ns`` of timed
    work, the first time after half a period."""

    def __init__(self, period_ns: float, action):
        self.period_ns = period_ns
        self.action = action
        self.owed = period_ns / 2

    def after(self, elapsed_ns: int) -> None:
        self.owed += elapsed_ns
        while self.owed >= self.period_ns:
            self.owed -= self.period_ns
            self.action()


def measure(workload, inputs, seconds: float, stats, tracer=None, every=()):
    """Closed loop: one operation at a time until ``seconds`` of timed work.

    Each operation's time and points go into ``stats`` (an OpStats, whose
    size does not grow with the number of operations). The schedules in
    ``every`` run their actions between operations, outside the timed
    region.

    Returns the number of ops that failed the gate or raised, and the first
    problems.
    """
    run = workload.run if tracer is None else tracer.op(workload.run)
    clock = time.perf_counter_ns
    budget = seconds * 1e9
    wall_end = time.perf_counter() + WALL_CAP * seconds
    pending, problems = [], []
    failed = timed = 0

    def flush():
        nonlocal failed
        if tracer is not None:
            tracer.paused[0] = True
        for inp, result in pending:
            found = ([f"{type(result).__name__}: {result}"] if isinstance(result, Exception)
                     else workload.check(inp, result))
            if found:
                failed += 1
                problems.extend(found[:max(0, 5 - len(problems))])
        pending.clear()
        if tracer is not None:
            tracer.paused[0] = False

    for inp in inputs:
        t0 = clock()
        try:
            result = run(inp)
        except Exception as exc:  # an unexpected error fails this op only
            result = exc
        elapsed = clock() - t0
        timed += elapsed
        stats.add(elapsed, workload.points(inp))
        pending.append((inp, result))
        del result   # the gate holds the only reference; peak memory is one table
        if len(pending) >= workload.gate_every:
            flush()
        for schedule in every:
            schedule.after(elapsed)
        if timed >= budget or time.perf_counter() >= wall_end:
            break
    flush()
    return failed, problems


def warm_up(workload, seed):
    """Fill caches and finish lazy set-up; results are neither timed nor kept."""
    end = time.perf_counter() + WARMUP_SECONDS
    for inp in workload.inputs(f"warm-up:{seed}"):
        workload.run(inp)
        if time.perf_counter() >= end:
            break


def end_to_end(workload, stats, reference, setup, rss_mb):
    """The end-to-end metrics, plus wall-clock numbers under per-workload names.

    ``us_per_point`` is total timed time over total solved points, rescaled
    to reference speed (see reference.py). Over a run the mean moved less
    than the median over operations did on a machine whose speed shifts for
    seconds at a time, and the rescaling removes most of the rest.
    ``setup_s`` is rescaled by the start-up interpreters instead (see
    Setup): set-up time did not follow the kernel's speed.
    """
    wall = stats.mean_ns_per_point() / 1e3
    metrics = {
        "us_per_point": (wall * reference.scale(), "us"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup.rescaled_s(), "s"),
    }
    notes = {
        "us_per_point": f"at reference speed; {wall:.4g} us by the wall clock over {stats.ops} ops",
        "peak_rss_mb": "maximum resident set of this process, read when measuring ends",
        "setup_s": (f"at reference start-up speed; median of {len(setup.runs)} fresh "
                    f"interpreters spread over the run"),
    }
    aliases = {
        "reference_kernel_us": (reference.ns / reference.count / 1e3, "us"),
        "setup_wall_s": (setup.median("wall_s"), "s"),
        "startup_interpreter_s": (setup.median("start_s"), "s"),
    }
    if workload.name == "sweep-dense":
        aliases["sweep_points_per_s"] = (1e6 / wall, "1/s")
    elif workload.name == "point-stream":
        aliases["point_latency_p50_us"] = (stats.us_per_point.quantile(0.5), "us")
        aliases["point_latency_p99_us"] = (stats.us_per_point.quantile(0.99), "us")
    else:
        aliases["cli_sweep_cmds_s"] = (workload.sweep_cmds_s.quantile(0.5), "s")
        aliases["cli_oracle_cmd_s"] = (workload.oracle_cmd_s.quantile(0.5), "s")
    return metrics, notes, aliases


def per_layer(workload, tracer, untraced, traced, setup):
    """Per-layer metrics from the spans of the traced blocks.

    ``untraced`` and ``traced`` are the OpStats of the operations measured
    without and with tracing.
    """
    s = tracer.summary()
    n_ops = max(traced.ops, 1)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def per_call(name, key, scale):
        c = calls(name)
        return s[name][key] / c / scale if c else 0.0

    untraced_ns_per_point = untraced.mean_ns_per_point()
    traced_ns_per_point = traced.mean_ns_per_point()
    layer_self = sum(v["self_ns"] for k, v in s.items() if k != "bench.op")
    sweep_self = sum(s.get(k, {}).get("self_ns", 0.0)
                     for k in ("sweep.sweep_detuning", "sweep.sweep_alignment"))
    points = tracer.sweep_points
    m = {
        "params.post_init_calls": (calls("params.post_init") / n_ops, "count/op"),
        "params.post_init_us": (per_call("params.post_init", "self_ns", 1e3), "us"),
        "model.build_generator_calls": (calls("model.build_generator") / n_ops, "count/op"),
        "model.build_generator_us": (per_call("model.build_generator", "self_ns", 1e3), "us"),
        "model.unvectorize_us": (per_call("model.unvectorize", "self_ns", 1e3), "us"),
        "steady.steady_state_calls": (calls("steady.steady_state") / n_ops, "count/op"),
        "steady.solve_self_us": (per_call("steady.steady_state", "self_ns", 1e3), "us"),
        "steady.nonphysical_count": (
            tracer.raised[("steady.steady_state", "NonPhysicalState")] / n_ops, "count/op"),
        "steady.evolve_calls": (calls("steady.evolve") / n_ops, "count/op"),
        "steady.evolve_s": (per_call("steady.evolve", "total_ns", 1e9), "s"),
        "steady.rk4_steps": (tracer.rk4_steps / n_ops, "count/op"),
        "response.response_at_calls": (calls("response.response_at") / n_ops, "count/op"),
        "response.map_self_us": (per_call("response.response_at", "self_ns", 1e3), "us"),
        "sweep.points": (points / n_ops, "count/op"),
        "sweep.points_ok_ratio": (tracer.sweep_points_ok / points if points else 0.0, "ratio"),
        "sweep.loop_self_us_per_point": (sweep_self / 1e3 / points if points else 0.0, "us"),
        "sweep.detect_bands_ms": (per_call("sweep.detect_bands", "total_ns", 1e6), "ms"),
        "sweep.find_extrema_ms": (per_call("sweep.find_extrema", "total_ns", 1e6), "ms"),
        "calibrate.calibrate_dipoles_ms": (setup.median("calibrate_ms"), "ms"),
        "setup.import_s": (setup.median("import_s"), "s"),
        "cli.parse_config_ms": (per_call("cli.parse_config", "total_ns", 1e6), "ms"),
        "cli.run_self_ms": (per_call("cli.run", "self_ns", 1e6), "ms"),
        "cli.bytes_written": (getattr(workload, "bytes_written", 0)
                              / (untraced.ops + traced.ops), "B/op"),
        "tail.us_per_point_p99": (untraced.us_per_point.quantile(0.99), "us"),
        "trace.overhead_frac": (traced_ns_per_point / untraced_ns_per_point - 1.0, "ratio"),
        "trace.layer_self_frac": (layer_self / traced.points / untraced_ns_per_point, "ratio"),
    }
    return m, s


def run_one(args) -> int:
    sg = load_package()
    import numpy as np
    import envinfo
    import workloads
    from reference import QUANTUM_NS, Reference
    from stats import OpStats
    from tracer import Tracer

    env = envinfo.environment(np)
    workload = workloads.WORKLOADS[args.workload](sg, WORK / args.workload)
    warm_up(workload, args.seed)
    setup = Setup(SETUP_REPEATS)
    inputs = workload.inputs(args.seed)

    if args.trace:
        # traced and untraced blocks alternate, so both see the same mix of
        # machine speed and their difference is the tracing overhead
        setup.fill()
        tracer = Tracer()
        phases = {False: OpStats(), True: OpStats()}
        failed, problems = 0, []
        while min(p.ns for p in phases.values()) < args.seconds / 2 * 1e9:
            traced = phases[True].ns < phases[False].ns
            if traced:
                tracer.install(sg)
            try:
                f, p = measure(workload, inputs, TRACE_BLOCK_SECONDS, phases[traced],
                               tracer if traced else None)
            finally:
                tracer.uninstall()
            failed += f
            problems += p
        n_ops = phases[False].ops + phases[True].ops
        if not setup.runs:
            fail("every setup run failed: " + "; ".join(setup.problems))
        metrics, spans = per_layer(workload, tracer, phases[False], phases[True], setup)
        notes, aliases = {}, {}
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz")
    else:
        reference = Reference()
        stats = OpStats()
        every = (Every(QUANTUM_NS, reference.burst),
                 Every(args.seconds * 1e9 / SETUP_REPEATS, setup.once))
        failed, problems = measure(workload, inputs, args.seconds, stats, every=every)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup.fill()   # only if the wall-clock cap ended the run early
        if not setup.runs:
            fail("every setup run failed: " + "; ".join(setup.problems))
        n_ops = stats.ops
        metrics, notes, aliases = end_to_end(workload, stats, reference, setup, rss_mb)
        spans = None

    attempted = n_ops + SETUP_REPEATS
    failed += setup.failed
    problems = setup.problems + problems
    env["loadavg_end"] = envinfo.loadavg()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops {n_ops}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit:9s} {note}")
    for name, (value, unit) in aliases.items():
        print(f"  {name:34s} {value:14.6g} {unit:9s} (wall clock)")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} {'ratio':9s} "
          f"{failed} of {attempted} operations failed the correctness gate")
    if spans is not None:
        print("  span                          calls   total_us/call    self_us/call")
        for name, v in spans.items():
            if v["calls"]:
                print(f"  {name:28s} {v['calls']:7d} {v['total_ns'] / v['calls'] / 1e3:15.3f} "
                      f"{v['self_ns'] / v['calls'] / 1e3:15.3f}")
    for p in problems[:5]:
        print(f"  problem: {p}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, setup=setup.runs, problems=problems[:20],
                  aliases={k: {"value": v, "unit": u} for k, (v, u) in aliases.items()},
                  spans=spans)
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("sweep-dense", "point-stream", "cli-readme"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with status {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-dense", "point-stream", "cli-readme", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
