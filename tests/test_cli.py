import json
import subprocess
import sys

import pytest

from torusperc import bands
from torusperc.cli import _band_check, main
from torusperc.estimators import EstimateReport, Row


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run_cli(["estimate", "vertex-long-cycle", "--r", "4"],
                               capsys)
        assert code == 1
        assert err.startswith("ERROR[usage]:")

    def test_unknown_pc_row_exits_2(self, capsys):
        code, _, err = run_cli(["estimate", "cluster-size", "--d", "3",
                                "--model", "spread-out", "--L", "20",
                                "--r", "4", "--pc-ref", "--seed", "1"], capsys)
        assert code == 2
        assert err.startswith("ERROR[runtime]:")

    def test_box_estimate_with_spread_out_model_exits_2(self, capsys):
        code, out, err = run_cli(["estimate", "two-point", "--d", "2", "--r", "7",
                                  "--model", "spread-out", "--L", "2", "--p", "0.3",
                                  "--seed", "1", "--replicas", "2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("ERROR[runtime]: ValueError:")

    def test_p_and_pcref_conflict(self, capsys):
        code, _, err = run_cli(["sample", "--d", "2", "--r", "3", "--p", "0.5",
                                "--pc-ref", "--seed", "1"], capsys)
        assert code == 1

    def test_estimate_p_and_pcref_conflict(self, capsys):
        code, _, err = run_cli(["estimate", "cluster-size", "--d", "2", "--r", "4",
                                "--p", "0.3", "--pc-ref", "--replicas", "2",
                                "--seed", "1"], capsys)
        assert code == 1 and "mutually exclusive" in err

    def test_replicas_below_one_exits_1(self, capsys):
        for replicas in ("0", "-3"):
            code, _, err = run_cli(["estimate", "cluster-size", "--d", "2",
                                    "--r", "4", "--p", "0.45", "--replicas", replicas,
                                    "--seed", "1"], capsys)
            assert code == 1
            assert err.startswith("ERROR[usage]:") and "--replicas" in err

    def test_budget_zero_is_used_and_negative_exits_1(self, capsys):
        args = ["estimate", "vertex-long-cycle", "--d", "2", "--r", "4", "--p", "0.45",
                "--replicas", "2", "--seed", "1", "--format", "jsonl"]
        code, out, _ = run_cli(args + ["--budget", "0"], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[0])["meta"]["budget"] == 0
        code, _, err = run_cli(args + ["--budget", "-1"], capsys)
        assert code == 1 and "--budget" in err

    def test_no_subcommand(self, capsys):
        assert run_cli([], capsys)[0] == 1

    def test_threads_below_one_exits_1(self, capsys, no_pool):
        for threads in ("0", "-2"):
            code, _, err = run_cli(["estimate", "cluster-size", "--d", "2",
                                    "--r", "4", "--p", "0.45", "--replicas", "2",
                                    "--seed", "1", "--threads", threads], capsys)
            assert code == 1
            assert err.startswith("ERROR[usage]:") and "--threads" in err


SAMPLE = ["--d", "2", "--r", "5", "--p", "0.3", "--seed", "1"]
ESTIMATE = ["--d", "2", "--p", "0.3", "--seed", "1", "--replicas", "2"]
TWO_SIZES = ["--d", "2", "--r", "5,9", "--p", "0.3", "--seed", "1"]

USAGE_ERRORS = {
    # flags the subcommand does not read
    "couple-model": ["couple"] + SAMPLE + ["--model", "spread-out", "--L", "1"],
    "couple-budget": ["couple"] + SAMPLE + ["--budget", "10"],
    "sample-threads": ["sample"] + SAMPLE + ["--threads", "2"],
    "sample-budget": ["sample"] + SAMPLE + ["--budget", "10"],
    "sample-format": ["sample"] + SAMPLE + ["--format", "jsonl"],
    "explore-threads": ["explore"] + SAMPLE + ["--threads", "2"],
    "explore-no-header-meta": ["explore"] + SAMPLE + ["--no-header-meta"],
    # flags of another estimate quantity
    "cluster-size-foreign-flags": ["estimate", "cluster-size", "--r", "4", "--eps", "0.1",
                                   "--k-schedule", "3", "--n-list", "9",
                                   "--origins", "7"] + ESTIMATE,
    "cluster-size-budget": ["estimate", "cluster-size", "--r", "4", "--budget", "10"] + ESTIMATE,
    "two-point-delta": ["estimate", "two-point", "--r", "5", "--delta", "1"] + ESTIMATE,
    "ball-boundary-r": ["estimate", "ball-boundary", "--r", "4,q", "--n-list", "2"] + ESTIMATE,
    # not an abbreviation of --replicas
    "ball-boundary-one-r": ["estimate", "ball-boundary", "--r", "4", "--n-list", "2"] + ESTIMATE,
    # malformed lists
    "r": ["estimate", "cluster-size", "--r", "4,q"] + ESTIMATE,
    "n-list": ["estimate", "ball-boundary", "--n-list", "2,x"] + ESTIMATE,
    "k-schedule": ["estimate", "cycle-length", "--r", "8", "--k-schedule", "2,y"] + ESTIMATE,
    "delta": ["estimate", "cycle-cut", "--r", "5", "--delta", "0.5,z"] + ESTIMATE,
    "eps": ["estimate", "long-cycle-tail", "--r", "8", "--eps", "1,w"] + ESTIMATE,
    "delta-empty": ["estimate", "cycle-cut", "--r", "5", "--delta", ","] + ESTIMATE,
    "k-grid-one-end": ["couple"] + SAMPLE + ["--k-grid", "3"],
    "k-grid-bad-end": ["couple"] + SAMPLE + ["--k-grid", "0:x"],
    # more than one size for a single-size command
    "two-point-sizes": ["estimate", "two-point", "--r", "5,9"] + ESTIMATE,
    "cycle-length-sizes": ["estimate", "cycle-length", "--r", "8,9",
                           "--k-schedule", "2"] + ESTIMATE,
    "long-cycle-tail-sizes": ["estimate", "long-cycle-tail", "--r", "8,9"] + ESTIMATE,
    "sample-sizes": ["sample"] + TWO_SIZES,
    "explore-sizes": ["explore"] + TWO_SIZES,
    "couple-sizes": ["couple"] + TWO_SIZES,
}


class TestFlags:
    """Each subcommand accepts only the flags it reads, and every list flag
    goes through one parser: a malformed list, or more than one size for a
    single-size command, is a usage error that writes no output."""

    @pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_usage_error_exits_1(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("ERROR[usage]:")


class TestEstimateQuantities:
    @pytest.mark.parametrize("args, column, values", [
        (["cycle-cut", "--r", "5"], "quantity",
         {f"cycle-cut-zero-prob[delta={x}]" for x in ("0.5", "1", "2")}),
        (["long-cycle-tail", "--r", "5"], "quantity",
         {f"long-cycle-tail-count[eps={x}]" for x in ("0.5", "1", "2")}),
        (["cycle-length", "--r", "5", "--k-schedule", "3"], "replicas", {8}),
    ])
    def test_defaulted_flags_apply_unpassed(self, args, column, values, capsys):
        # --delta, --eps and --origins keep their defaults (0.5,1,2 and 4
        # origins per replica) when they are not passed
        code, out, _ = run_cli(["estimate"] + args + ESTIMATE + ["--format", "jsonl"],
                               capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert values <= {row[column] for row in rows if "quantity" in row}

    def test_config_key_of_another_quantity_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps=0.5\n")
        code, _, err = run_cli(["estimate", "cluster-size", "--config", str(cfg),
                                "--r", "4"] + ESTIMATE, capsys)
        assert code == 1 and "unknown config key" in err


class TestSubcommands:
    def test_sample_p0(self, capsys):
        code, out, _ = run_cli(["sample", "--d", "2", "--r", "3", "--p", "0",
                                "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["open_edges"] == [] and payload["num_edges"] == 18

    def test_explore_outputs_partition(self, capsys):
        code, out, _ = run_cli(["explore", "--d", "2", "--r", "5", "--p", "0.4",
                                "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        s1, s2 = payload["stage1"], payload["stage2"]
        assert s2["valid"]
        assert sorted(s2["probed_edges"] + s2["special_edges"]) == \
            s1["surplus_edges"]

    def test_couple_reports_inclusion(self, capsys):
        code, out, _ = run_cli(["couple", "--d", "2", "--r", "3", "--p", "0.3",
                                "--seed", "5", "--K", "2", "--k-grid", "0:5"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["inclusion_applicable"] is True
        assert all(v == [] for v in payload["inclusion_violations"].values())

    def test_pc_listing(self, capsys):
        code, out, _ = run_cli(["pc", "--d", "7"], capsys)
        assert code == 0 and "0.07867523" in out

    def test_oracle_fixtures(self, capsys):
        code, out, _ = run_cli(["oracle"], capsys)
        assert code == 0 and "FAIL" not in out

    def test_estimate_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code, _, _ = run_cli(["estimate", "cluster-size", "--d", "2",
                              "--r", "4,5", "--p", "0.45", "--replicas", "10",
                              "--seed", "1", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("quantity,")
        assert len(data) == 1 + 4 + 1      # header, rows, slope

    def test_estimate_jsonl(self, capsys):
        code, out, _ = run_cli(["estimate", "cluster-size", "--d", "2",
                                "--r", "4", "--p", "0.45", "--replicas", "5",
                                "--seed", "1", "--format", "jsonl"], capsys)
        assert code == 0
        for line in out.strip().splitlines():
            json.loads(line)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nr=4\np=0.45\nreplicas=5\nseed=9\n")
        code, out, _ = run_cli(["estimate", "cluster-size", "--config",
                                str(cfg), "--replicas", "7",
                                "--no-header-meta"], capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("cluster-size-mean")][0]
        assert line.split(",")[5] == "7"     # flag beat the config file

    def test_abbreviated_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nr=4\np=0.45\nreplicas=5\nseed=9\nno-header-meta=yes\n")
        code, out, _ = run_cli(["estimate", "cluster-size", "--config", str(cfg),
                                "--rep", "7"], capsys)
        assert code == 0 and not out.startswith("#")
        line = [l for l in out.splitlines() if l.startswith("cluster-size-mean")][0]
        assert line.split(",")[5] == "7"

    @pytest.mark.parametrize("text", [
        "d=2\nr=4\np=0.45\nseed=9\nreplicas=x\n",     # bad value
        "d=2\nr=4\np=0.45\nseed=9\nrep=5\n",          # abbreviations are no keys
        "d=2\nr=4\np=0.45\nseed=9\nbogus=1\n",        # unknown key
        "d=2\nr=4\np=0.45\nseed=9\nmodel=other\n",    # not among the choices
        "d=2\nr=4\np=0.45\nseed=9\nreplicas\n",       # no key=value line
    ])
    def test_bad_config_file_exits_1(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(["estimate", "cluster-size", "--config", str(cfg)],
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith("ERROR[usage]:")

    def test_config_key_of_another_subcommand_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        code, _, err = run_cli(["sample", "--config", str(cfg)] + SAMPLE, capsys)
        assert code == 1 and "unknown config key" in err

    def test_check_failure_exits_3(self, capsys):
        # d=2 at this probability has slope far outside the 1/3 band
        code, _, err = run_cli(["estimate", "vertex-long-cycle", "--d", "2",
                                "--r", "4,6,8", "--p", "0.5", "--replicas",
                                "40", "--seed", "1", "--check",
                                "--out", "/dev/null"], capsys)
        assert code == 3
        assert "ERROR[check]" in err


class TestDeterministicOutput:
    def test_byte_identical_across_thread_counts(self, tmp_path, capsys):
        outputs = []
        for threads in (1, 4, 8):
            out_file = tmp_path / f"t{threads}.csv"
            code, _, _ = run_cli(["estimate", "cluster-size", "--d", "3",
                                  "--r", "4,5", "--p", "0.2487", "--replicas",
                                  "16", "--seed", "11", "--threads",
                                  str(threads), "--no-header-meta",
                                  "--out", str(out_file)], capsys)
            assert code == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "torusperc.cli", "pc"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout


class TestBandCheck:
    def test_cut_span_ignores_zero_cells(self):
        # a zero cell must not switch the factor-5 check off: the span is
        # taken over the positive cells, 10 / 1 here
        report = EstimateReport(rows=[
            Row(f"cycle-cut-scaled[delta={delta:g}]", 7, 4, None, 0.08, 30, 0,
                mean, 0.1) for delta, mean in ((0.5, 0.0), (1.0, 1.0), (2.0, 10.0))])
        failures = _band_check("cycle-cut", report)
        assert len(failures) == 1 and "span 10.00 > 5" in failures[0]

    def test_bands_hold_their_values(self):
        assert bands.COUNT_SLOPE == (1 / 3 - 0.2, 1 / 3 + 0.2)
        assert bands.ZERO_CUT_PROB == (0.05, 0.999)
        assert (bands.CLUSTER_SIZE_FACTOR, bands.CUT_SCALED_FACTOR,
                bands.BALL_BOUNDARY_FACTOR) == (3, 5, 3)
