"""Run the README's five commands through a given launcher and check their
golden bytes.

    python tools/readme_golden.py LAUNCHER...

LAUNCHER is the command that starts the CLI, to which each command's
arguments are appended: ``sgcvapor``, ``python -m sgcvapor.cli``, or that
pinned, ``taskset -c 0 python -m sgcvapor.cli``. The commands are the ones
of ``bench/golden/readme_commands.json``. Each runs in a directory of its
own, since its sidecar records its relative output path, with the
``run.conf`` its ``--config`` reads copied in, and has 120 s to finish. Its
CSV and sidecar are held to ``bench/gate.py``'s ``check_csv`` and
``check_sidecar``, the checks of the benchmark's correctness gate. The
exit status is 1 if any command fails, times out or writes other bytes.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden"
TIMEOUT_S = 120


def _gate():
    spec = importlib.util.spec_from_file_location("bench_gate", BENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def check(launcher: list) -> list:
    """The problems of the README's commands run through ``launcher``."""
    gate = _gate()
    commands = json.loads((GOLDEN / "readme_commands.json").read_text())["commands"]
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(commands, start=1):
            argv, name = command["argv"], " ".join(command["argv"])
            workdir = Path(tmp, f"readme{i}")
            workdir.mkdir()
            shutil.copy(GOLDEN / "run.conf", workdir)
            try:
                proc = subprocess.run([*launcher, *argv], cwd=workdir, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"{name}: not done after {TIMEOUT_S} s")
                continue
            if proc.returncode != 0:
                problems.append(f"{name}: exit status {proc.returncode}")
                continue
            out = workdir / command["out"]
            csv = out.read_bytes()
            problems += gate.check_csv(csv, command["csv_sha256"], name)
            problems += gate.check_sidecar(out.with_name(out.name + ".meta.json").read_bytes(),
                                           command["sidecar"], name)
            print(f"{name}: sha256 {gate.sha256(csv)}")
    return problems


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = check(argv)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
