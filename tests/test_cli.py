import dataclasses
import importlib.util
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgcvapor import (EquationVariant, Handedness, NonPhysicalState, ResponseRecord,
                     SystemParams, ValidationError, steady_state)
from sgcvapor import cli
from sgcvapor.cli import (CSV_COLUMNS, ParseError, RunConfig, config_mapping,
                          main, parse_config, run)
from sgcvapor.sweep import SweepAxis, SweepTable

from conftest import config_text

RUN_CONTROLS = ["mode", "d_min", "d_max", "p_min", "p_max", "steps", "out",
                "format", "oracle"]


class TestParseConfig:
    def test_empty_input_yields_pure_defaults(self):
        cfg = parse_config()
        assert cfg.params.gamma_unit == 1.0e8
        assert cfg.params.omega1_bare == 10.0
        assert cfg.params.omegap_bare == 0.2
        assert cfg.params.gamma2 == cfg.params.gamma3 == cfg.params.gamma4 == 0.8
        assert cfg.params.density_n == 5.0e24
        assert cfg.params.p_align == 0.5
        assert cfg.params.delta_p == 0.0
        assert cfg.params.equation_variant is EquationVariant.CORRECTED
        assert cfg.mode == "point"
        assert cfg.format == "csv"
        assert cfg.oracle is False

    def test_file_values_override_defaults(self):
        cfg = parse_config("p_align = 0.2\nsteps = 11\n# comment\n\nmode = sweep-p\n")
        assert cfg.params.p_align == 0.2
        assert cfg.steps == 11
        assert cfg.mode == "sweep-p"

    def test_flags_override_file(self):
        cfg = parse_config("p_align = 0.2\ndelta_p = 4", {"p_align": 0.3})
        assert cfg.params.p_align == 0.3
        assert cfg.params.delta_p == 4.0

    def test_none_flags_do_not_override(self):
        cfg = parse_config("p_align = 0.2", {"p_align": None, "steps": None})
        assert cfg.params.p_align == 0.2

    def test_alignment_bound_enforced(self):
        with pytest.raises(ValidationError, match="p_align"):
            parse_config("p_align = 1.5")

    def test_steps_bound_enforced(self):
        with pytest.raises(ValidationError, match="steps"):
            parse_config("steps = 0")

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("p_align = 0.2\nnonsense = 1\n")

    def test_bad_float_rejected(self):
        with pytest.raises(ParseError, match="delta_p"):
            parse_config("delta_p = fast")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            parse_config("mode = dance")

    @pytest.mark.parametrize("text,flags,error,message", [
        ("format = xml", None, ValidationError,
         "format must be one of ('csv', 'json'), got 'xml'"),
        ("oracle = yes", None, ParseError,
         "line 1: bad value for 'oracle': 'yes' (expected true or false)"),
        (None, {"nonsense": "1"}, ParseError, "flag: unknown key 'nonsense'"),
    ])
    def test_bad_input_rejected_naming_its_fault(self, text, flags, error, message):
        with pytest.raises(error) as info:
            parse_config(text, flags)
        assert type(info.value) is error and str(info.value) == message

    def test_round_trip_is_exact(self):
        cfg = parse_config(
            "p_align = 0.123456789012345\ndelta_p = -3.7e-5\nmode = sweep-detuning\n"
            "steps = 25\nformat = json\noracle = true\nout = table.json\n"
            "d42 = 4.7513729269096315e-25\nmu23 = 4.299070414743298e-27\n")
        assert parse_config(config_text(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = parse_config()
        assert parse_config(config_text(cfg)) == cfg

    def test_keys_are_system_params_fields_plus_run_controls(self):
        physical = [f.name for f in dataclasses.fields(SystemParams)]
        assert physical[-1] == "equation_variant"
        expected = physical[:-1] + ["equations"] + RUN_CONTROLS
        # out has no default, so it is absent until set
        assert list(config_mapping(parse_config())) == [k for k in expected if k != "out"]
        assert list(config_mapping(parse_config("out = x.csv"))) == expected

    def test_physical_defaults_come_from_system_params(self):
        mapping = config_mapping(parse_config())
        for f in dataclasses.fields(SystemParams):
            default = getattr(SystemParams(), f.name)
            if f.name == "equation_variant":
                assert mapping["equations"] == default.value
            else:
                assert mapping[f.name] == f"{default:.17g}"

    def test_each_key_parses_as_its_field_type(self):
        cfg = parse_config("gamma2 = 1\nsteps = 7\noracle = true\nequations = paper\n")
        assert cfg.params.gamma2 == 1.0 and type(cfg.params.gamma2) is float
        assert cfg.steps == 7 and type(cfg.steps) is int
        assert cfg.oracle is True
        assert cfg.params.equation_variant is EquationVariant.PAPER_LITERAL
        assert cfg == RunConfig(params=SystemParams(
            gamma2=1.0, equation_variant=EquationVariant.PAPER_LITERAL), steps=7, oracle=True)

    def test_unknown_equations_in_file_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^equations must be one of \('corrected', 'paper'\), got 'foo'$"):
            parse_config("equations = foo\n")


class TestRun:
    def test_point_mode_emits_one_row_with_header(self, tmp_path):
        out = tmp_path / "pt.csv"
        assert run(parse_config(f"out = {out}")) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[-1] == "NegEpsOnly"

    def test_output_path_required(self):
        with pytest.raises(ValidationError, match="output path"):
            run(parse_config())

    def test_metadata_sidecar_round_trips_the_config(self, tmp_path):
        out = tmp_path / "pt.csv"
        cfg = parse_config(f"out = {out}\np_align = 0.25\noracle = false")
        run(cfg)
        meta = json.loads((tmp_path / "pt.csv.meta.json").read_text())
        text = "".join(f"{k} = {v}\n" for k, v in meta["config"].items())
        assert parse_config(text) == cfg
        assert meta["code_version"]
        assert meta["points_failed"] == 0
        assert meta["constants"]["hbar_J_s"] == 1.054571817e-34

    def test_identical_configs_give_byte_identical_outputs(self, tmp_path):
        text = "mode = sweep-detuning\nd_min = -5\nd_max = 5\nsteps = 21\np_align = 0.4\n"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(parse_config(text + f"out = {out1}"))
        run(parse_config(text + f"out = {out2}"))
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "a.csv.meta.json").read_text()
        meta2 = (tmp_path / "b.csv.meta.json").read_text()
        assert meta1.replace("a.csv", "X") == meta2.replace("b.csv", "X")

    def test_floats_serialized_round_trip_exact(self, tmp_path):
        out = tmp_path / "pt.csv"
        run(parse_config(f"out = {out}\np_align = 0.3\ndelta_p = 1.1"))
        row = out.read_text().splitlines()[1].split(",")
        from sgcvapor import SystemParams, response_at
        rec = response_at(SystemParams(p_align=0.3, delta_p=1.1))
        assert float(row[1]) == rec.eps_r.real
        assert float(row[6]) == rec.n_index.imag

    def test_csv_rows_format_each_float_as_its_f_string(self):
        # signed zero, infinities, NaN, the smallest subnormal and normal,
        # the largest float, and values whose shortest repr differs
        values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 1e16, 0.1]
        records = []
        for i in range(len(values)):
            x = [values[(i + k) % len(values)] for k in range(11)]
            records.append(ResponseRecord(
                delta_p=x[0], p_align=0.5, rho24=complex(x[7], x[8]), rho32=complex(x[9], x[10]),
                gamma_e=0j, gamma_m=0j, eps_r=complex(x[1], x[2]), mu_r=complex(x[3], x[4]),
                n_index=complex(x[5], x[6]), handedness=list(Handedness)[i % 4]))
        table = SweepTable(SweepAxis.DETUNING, grid=tuple(r.delta_p for r in records),
                           records=tuple(records), bands=(), failures=())
        expected = [",".join(CSV_COLUMNS)] + [
            ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in cli._record_row(g, r))
            for g, r in table.ok_records()]
        assert cli._render_csv(table) == "\n".join(expected) + "\n"
        assert {"-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "2.2250738585072014e-308",
                "1.7976931348623157e+308", "10000000000000000",
                "0.10000000000000001"} <= set(",".join(expected).split(","))

    def test_json_format_matches_csv_fields(self, tmp_path):
        out = tmp_path / "pt.json"
        run(parse_config(f"out = {out}\nformat = json"))
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert set(rows[0]) == set(CSV_COLUMNS)
        assert rows[0]["handedness"] == "NegEpsOnly"

    def test_sweep_detuning_row_count(self, tmp_path):
        out = tmp_path / "sw.csv"
        run(parse_config(
            f"out = {out}\nmode = sweep-detuning\nd_min = -2\nd_max = 2\nsteps = 9"))
        assert len(out.read_text().splitlines()) == 10

    def test_failed_points_are_routed_to_the_sidecar(self, tmp_path):
        out = tmp_path / "lit.csv"
        run(parse_config(
            f"out = {out}\nmode = sweep-p\np_min = 0.4\np_max = 0.6\nsteps = 3\n"
            "equations = paper"))
        meta = json.loads((tmp_path / "lit.csv.meta.json").read_text())
        n_rows = len(out.read_text().splitlines()) - 1
        assert meta["points_failed"] > 0
        assert n_rows + meta["points_failed"] == 3
        assert all(f["kind"] == "NonPhysicalState" for f in meta["failures"])

    def test_oracle_cross_check_recorded(self, tmp_path):
        out = tmp_path / "pt.csv"
        run(parse_config(f"out = {out}\noracle = true"))
        meta = json.loads((tmp_path / "pt.csv.meta.json").read_text())
        checks = meta["oracle_checks"]
        assert len(checks) == 1
        # the README's `--mode point --oracle` point relaxes fast, so the
        # integration lands on the linear solve to roundoff, well inside
        # the oracle tolerance of 1e-6
        assert float(checks[0]["max_abs_diff"]) < 1e-11

    def test_oracle_checks_first_middle_and_last_points_of_a_sweep(self, tmp_path):
        out = tmp_path / "sw.csv"
        run(parse_config(f"out = {out}\nmode = sweep-detuning\nd_min = -2\nd_max = 2\n"
                         "steps = 5\noracle = true"))
        checks = json.loads((tmp_path / "sw.csv.meta.json").read_text())["oracle_checks"]
        assert [c["axis_value"] for c in checks] == ["-2", "0", "2"]
        assert all(float(c["max_abs_diff"]) < 1e-9 for c in checks)

    def test_oracle_skips_failed_points_and_records_divergence(self, tmp_path):
        # the paper's equations fail -10..10 and leave -20, -15, 15 and 20,
        # from each of which their integration diverges
        out = tmp_path / "lit.csv"
        run(parse_config(f"out = {out}\nmode = sweep-detuning\nsteps = 9\n"
                         "equations = paper\noracle = true"))
        meta = json.loads((tmp_path / "lit.csv.meta.json").read_text())
        assert [f["axis_value"] for f in meta["failures"]] == ["-10", "-5", "0", "5", "10"]
        checks = meta["oracle_checks"]
        assert [c["axis_value"] for c in checks] == ["-20", "15", "20"]
        assert all(set(c) == {"axis_value", "error"} for c in checks)
        assert all(c["error"].startswith("StepUnstable: integration diverged at t = ")
                   for c in checks)

    def test_oracle_writes_no_checks_without_a_successful_point(self, tmp_path):
        out = tmp_path / "none.csv"
        run(parse_config(f"out = {out}\nmode = sweep-detuning\nsteps = 5\n"
                         "omegap_bare = 0\noracle = true"))
        meta = json.loads((tmp_path / "none.csv.meta.json").read_text())
        assert meta["points_failed"] == 5
        assert "oracle_checks" not in meta
        assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_near_resonant_alignment_sweep_reproduces_reference_features(
            self, tmp_path, calibrated):
        out = tmp_path / "psweep.csv"
        run(parse_config(
            f"out = {out}\nmode = sweep-p\np_min = 0\np_max = 0.999999\n"
            f"steps = 501\ndelta_p = 1e-16\nd42 = {calibrated.d42:.17g}\n"
            f"mu23 = {calibrated.mu23:.17g}\n"))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        p_vals = [float(r[0]) for r in rows]
        re_eps = [float(r[1]) for r in rows]
        re_mu = [float(r[3]) for r in rows]
        assert max(re_eps) < 0.0
        downward = [(p_vals[i], p_vals[i + 1]) for i in range(len(rows) - 1)
                    if re_mu[i] > 0.0 >= re_mu[i + 1]]
        # first crossing sits at the calibrated alignment; a narrow
        # re-entrant window at the interference-protected resonance near
        # p ~ 0.99 contributes one more (see the acceptance notes)
        assert 0.53 <= downward[0][0] <= 0.57
        assert len(downward) == 2
        assert all(0.985 <= lo <= 0.995 for lo, _hi in downward[1:])

    def test_same_config_csv_then_json_share_metadata_axis(self, tmp_path):
        out = tmp_path / "sw.json"
        run(parse_config(
            f"out = {out}\nformat = json\nmode = sweep-p\np_min = 0\n"
            "p_max = 0.4\nsteps = 3"))
        meta = json.loads((tmp_path / "sw.json.meta.json").read_text())
        assert meta["axis"] == "alignment"
        assert meta["points_total"] == 3


class TestMain:
    def test_point_mode_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "pt.csv"
        assert main(["--mode", "point", "--p", "0.3", "--out", str(out)]) == 0
        assert out.exists()

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        code = main(["--p", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "p_align" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["point", "sweep-detuning"])
    def test_nan_alignment_exit_two(self, tmp_path, capsys, mode):
        out = tmp_path / "x.csv"
        assert main(["--mode", mode, "--p", "nan", "--out", str(out)]) == 2
        assert "|p_align| must be <= 1, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_d42_whose_square_overflows_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        config = tmp_path / "big.cfg"
        config.write_text("d42 = 1e160\nmode = sweep-detuning\n")
        assert main(["--config", str(config), "--out", str(out)]) == 2
        assert "d42 must have a finite square" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_exit_two(self, capsys):
        assert main(["--mode", "point"]) == 2

    def test_sidecar_bytes_do_not_depend_on_numpy_print_options(self, tmp_path):
        # a NonPhysicalState's message, which the sidecar records for each
        # failed point, formats its populations under numpy's defaults
        out = tmp_path / "lit.csv"
        sidecar = tmp_path / "lit.csv.meta.json"
        literal = SystemParams(equation_variant=EquationVariant.PAPER_LITERAL)

        def outputs():
            assert main(["--equations", "paper", "--mode", "sweep-detuning",
                         "--steps", "41", "--out", str(out)]) == 0
            with pytest.raises(NonPhysicalState) as info:
                steady_state(literal)
            return out.read_bytes(), sidecar.read_bytes(), str(info.value)

        expected = outputs()
        assert json.loads(expected[1])["points_failed"] > 0
        options = np.get_printoptions()
        with np.printoptions(precision=3, linewidth=20, suppress=True, sign="+",
                             floatmode="fixed", nanstr="NaN", infstr="Inf",
                             formatter={"float": "{:.2f}".format}):
            assert outputs() == expected
        assert np.get_printoptions() == options

    def test_fatal_point_error_exit_one(self, tmp_path, capsys):
        # PAPER_LITERAL fixed point is unphysical: fatal in point mode
        code = main(["--mode", "point", "--equations", "paper",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "NonPhysicalState" in capsys.readouterr().err

    def test_out_naming_a_directory_exit_one_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["--mode", "point", "--out", str(out)]) == 1
        assert "IsADirectoryError" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    def test_outputs_take_the_mode_open_gives_under_the_umask(self, tmp_path):
        # a new file and one that replaces a file of another mode alike
        out, meta = tmp_path / "pt.csv", tmp_path / "pt.csv.meta.json"
        meta.touch(mode=0o600)
        previous = os.umask(0o022)
        try:
            assert main(["--mode", "point", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert [stat.S_IMODE(path.stat().st_mode) for path in (out, meta)] == [0o644, 0o644]

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("mode = sweep-detuning\nd_min = -2\nd_max = 2\n"
                       "steps = 5\np_align = 0.2\n")
        out = tmp_path / "sw.csv"
        assert main(["--config", str(cfg), "--steps", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_calls_in_one_process_write_what_each_writes_alone(self, tmp_path):
        # the parser is built once per process; a flag of one call leaves
        # nothing behind for the next
        calls = [["--mode", "point", "--oracle", "--out", "a.csv"],
                 ["--mode", "point", "--out", "b.csv"],
                 ["--mode", "sweep-detuning", "--steps", "5", "--format", "json",
                  "--out", "c.csv"],
                 ["--mode", "point", "--p", "0.3", "--out", "d.csv"]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        together, alone = tmp_path / "together", tmp_path / "alone"
        together.mkdir()
        alone.mkdir()
        code = ("import sys\nfrom sgcvapor import cli\n"
                f"codes = [cli.main(argv) for argv in {calls!r}]\n"
                "assert cli._parser() is cli._parser()\n"
                "sys.exit(max(codes))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=together, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "sgcvapor.cli", *argv], cwd=alone,
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        names = sorted(path.name for path in alone.iterdir())
        assert len(names) == 2 * len(calls)
        assert sorted(path.name for path in together.iterdir()) == names
        for name in names:
            assert (together / name).read_bytes() == (alone / name).read_bytes(), name
        assert "oracle_checks" in (together / "a.csv.meta.json").read_text()
        assert "oracle_checks" not in (together / "b.csv.meta.json").read_text()

    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "pt.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sgcvapor.cli", "--mode", "point",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"
README_COMMANDS = json.loads((GOLDEN / "readme_commands.json").read_text())["commands"]


@pytest.fixture(scope="module")
def gate():
    """The benchmark's correctness gate, ``bench/gate.py``, whose checks the
    golden files are held to."""
    spec = importlib.util.spec_from_file_location("bench_gate", GOLDEN.parent / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


class TestReadmeCommands:
    """The README's five commands write the bytes recorded in bench/golden."""

    @pytest.mark.parametrize("command", README_COMMANDS,
                             ids=[" ".join(c["argv"]) for c in README_COMMANDS])
    def test_outputs_match_the_golden_files(self, command, gate, tmp_path, monkeypatch):
        # each command in a directory of its own, so the sidecar records
        # the README's relative output path
        if "run.conf" in command["argv"]:
            shutil.copy(GOLDEN / "run.conf", tmp_path / "run.conf")
        monkeypatch.chdir(tmp_path)
        assert main(list(command["argv"])) == 0
        out = tmp_path / command["out"]
        name = " ".join(command["argv"])
        assert gate.check_csv(out.read_bytes(), command["csv_sha256"], name) == []
        sidecar = out.with_name(out.name + ".meta.json").read_bytes()
        assert gate.check_sidecar(sidecar, command["sidecar"], name) == []
