"""Command-line interface tests: option resolution, outputs, exit codes."""
import csv
import io
import json

import pytest

from msdsim.cli import (EXIT_CONFIG, EXIT_OK, ConfigError, main,
                        read_config_file)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_parse(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# sweep\nprotocol = 15to1\np-in = 0.05 0.1\nshots=123\n")
        opts = read_config_file(str(f))
        assert opts == {"protocol": "15to1", "p_in": "0.05 0.1", "shots": "123"}

    def test_bad_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("shots 123\n")
        with pytest.raises(ConfigError):
            read_config_file(str(f))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_config_file("/nonexistent/path.cfg")

    def test_flags_override_config(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("protocol=15to1\np_in=0.5\n")
        code, out, _ = run_cli(capsys, "analytic", "--config", str(f),
                               "--p-in", "0.01")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["protocol"] == "FifteenToOne"   # from config
        assert float(row["p_in"]) == 0.01          # flag wins


class TestExitCodes:
    def test_bad_protocol(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--protocol", "9to1")
        assert code == EXIT_CONFIG and "unknown protocol" in err

    def test_bad_config_value(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("shots=many\n")
        code, _, err = run_cli(capsys, "analytic", "--config", str(f))
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("volume=9\n")
        code, _, _ = run_cli(capsys, "analytic", "--config", str(f))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [("logical", "--p-in", "1.5"),
                                      ("logical", "--p-in", "-0.1"),
                                      ("distill", "--p-circuit", "2"),
                                      ("logical", "--max-iters", "0"),
                                      ("memory", "--rounds", "0"),
                                      ("analytic", "--p-in", "1.5"),
                                      ("cost", "--d", "4"),
                                      ("distill", "--seed", "-1")])
    def test_out_of_range_values(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--shots", "10")
        assert code == EXIT_CONFIG and out == "" and "error:" in err

    def test_oracle_consistency_passes(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "oracle", "--p-in", "0.1",
                             "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "pattern,accepted,output_error"
        assert len(lines) == 129


class TestOutputs:
    def test_analytic_values(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--protocol", "7to1",
                               "--p-in", "0.01")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["p_out"]) == pytest.approx(7.214219e-06, rel=1e-4)
        assert float(row["discard_ratio"]) == pytest.approx(0.0679, abs=2e-4)

    def test_logical_json(self, capsys):
        code, out, _ = run_cli(capsys, "logical", "--p-in", "0.2",
                               "--shots", "2000", "--seed", "3",
                               "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)
        assert row["experiment"] == "logical" and row["shots"] == 2000

    def test_cost_table(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--protocol", "15to1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "protocol,d,qubit_cycles"
        assert lines[1] == "FifteenToOne,3,999"

    def test_cost_given_d_prints_one_row(self, capsys, tmp_path):
        """A given d prints its row alone, also when it is the default d."""
        code, out, _ = run_cli(capsys, "cost", "--d", "3")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["protocol,d,qubit_cycles", "SevenToOne,3,423"]
        f = tmp_path / "run.cfg"
        f.write_text("d=3\n")
        code, out, _ = run_cli(capsys, "cost", "--config", str(f))
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["protocol,d,qubit_cycles", "SevenToOne,3,423"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "res.csv"
        code, out, _ = run_cli(capsys, "analytic", "--p-in", "0.1",
                               "--out", str(path))
        assert code == EXIT_OK and out == ""
        assert path.read_text().startswith("experiment,")


class TestSweeps:
    def test_distill_sweep_equals_single_points(self, capsys):
        """Each point of a multi-p_in sweep is built for its own p_in: the
        sweep's rows equal the single-point runs row for row."""
        def rows(*p_ins):
            argv = ["distill", "--shots", "1000", "--seed", "1", "--format", "json"]
            for p in p_ins:
                argv += ["--p-in", p]
            code, out, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
            return [{k: v for k, v in r.items() if k != "seconds"}
                    for r in json.loads(out)]

        sweep = rows("0.3", "0.01")
        assert sweep == rows("0.3") + rows("0.01")
        assert sweep[0]["accepted"] != sweep[1]["accepted"]
