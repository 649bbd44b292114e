import dataclasses
import json
import subprocess
import sys

import pytest

from sgcvapor import EquationVariant, SystemParams, ValidationError
from sgcvapor.cli import (CSV_COLUMNS, ParseError, RunConfig, config_mapping,
                          config_text, main, parse_config, run)

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

    def test_missing_out_exit_two(self, capsys):
        assert main(["--mode", "point"]) == 2

    def test_fatal_point_error_exit_one(self, tmp_path, capsys):
        # PAPER_LITERAL fixed point is unphysical: fatal in point mode
        code = main(["--mode", "point", "--equations", "paper",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "NonPhysicalState" in capsys.readouterr().err

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("mode = sweep-detuning\nd_min = -2\nd_max = 2\n"
                       "steps = 5\np_align = 0.2\n")
        out = tmp_path / "sw.csv"
        assert main(["--config", str(cfg), "--steps", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "pt.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sgcvapor.cli", "--mode", "point",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
