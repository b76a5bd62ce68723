"""Command line interface tests, driven through main() directly."""

import json
import subprocess
import sys
from importlib import resources

import pytest

from ledgerstack import cli


def bundled_path(tmp_path, name):
    text = (resources.files("ledgerstack") / "scenarios" / name).read_text()
    path = tmp_path / name
    path.write_text(text)
    return path


class TestChainCommands:
    def test_init_verify_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "chain.jsonl"
        assert cli.main(["chain", "init", "--out", str(out)]) == 0
        assert out.exists()
        assert cli.main(["chain", "verify", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_init_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cli.main(["chain", "init", "--out", str(a)])
        cli.main(["chain", "init", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_export_is_canonical(self, tmp_path):
        src = tmp_path / "chain.jsonl"
        cli.main(["chain", "init", "--out", str(src)])
        # whitespace padding survives the file but not the re-export
        padded = tmp_path / "padded.jsonl"
        padded.write_text(src.read_text() + "\n\n")
        out = tmp_path / "round.jsonl"
        assert cli.main(["chain", "export", "--in", str(padded), "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_verify_rejects_corruption(self, tmp_path, capsys):
        path = tmp_path / "chain.jsonl"
        cli.main(["chain", "init", "--out", str(path)])
        line = json.loads(path.read_text().splitlines()[0])
        line["wall_time"] = 999
        path.write_text(json.dumps(line) + "\n")
        assert cli.main(["chain", "verify", str(path)]) == 1

    def test_verify_names_the_line_of_a_bad_header_field(self, tmp_path, capsys):
        path = tmp_path / "chain.jsonl"
        cli.main(["chain", "init", "--out", str(path)])
        line = json.loads(path.read_text().splitlines()[0])
        line["height"] = 0.0
        path.write_text(json.dumps(line) + "\n")
        capsys.readouterr()
        # before: a struct.error traceback
        assert cli.main(["chain", "verify", str(path)]) == 1
        assert capsys.readouterr().out.startswith("import failed: line 1:")

    def test_verify_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not a chain\n")
        assert cli.main(["chain", "verify", str(path)]) == 1

    def test_import_summarizes(self, tmp_path, capsys):
        path = tmp_path / "chain.jsonl"
        cli.main(["chain", "init", "--out", str(path)])
        capsys.readouterr()
        assert cli.main(["chain", "import", str(path)]) == 0
        out = capsys.readouterr().out
        assert "height 0" in out

    def test_wrong_seed_fails_verification(self, tmp_path):
        # a bare genesis carries no approvals, so the operator only shows
        # once a real block is sealed
        from ledgerstack import tsa

        led = tsa.TsaLedger(operator_seed=bytes.fromhex("11" * 32))
        led.open_account("m", tsa.KIND_MAIN)
        led.day_close()
        path = tmp_path / "chain.jsonl"
        led.chain.export_jsonl(str(path))
        assert cli.main(["chain", "verify", str(path), "--seed", "11" * 32]) == 0
        assert cli.main(["chain", "verify", str(path), "--seed", "22" * 32]) == 1

    def test_verify_of_a_large_chain_exits_and_releases_its_output(self, tmp_path, child_env):
        from ledgerstack import crypto, tsa

        led = tsa.TsaLedger(operator_seed=bytes.fromhex("11" * 32))
        led.open_account("m", tsa.KIND_MAIN)
        for i in range(crypto.PARALLEL_MIN):
            led.record_receipt("m", 1, memo=str(i))
        led.day_close()
        path = tmp_path / "chain.jsonl"
        led.chain.export_jsonl(str(path))
        # two CPUs whatever the host has, so one child verifies a share
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from ledgerstack.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('forks:', len(forks), file=sys.stderr)\n"
            "sys.exit(code)"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "chain", "verify", str(path), "--seed", "11" * 32],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env,
        )
        try:
            # a child left running would hold the pipes open past the timeout
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert out.startswith(f"valid: height 1, {crypto.PARALLEL_MIN + 2} tx(s)")
        assert err == "forks: 1\n"


class TestScenarioCommands:
    def test_run_bundled_day_cycle(self, tmp_path, capsys):
        path = bundled_path(tmp_path, "tsa_day_cycle.jsonl")
        assert cli.main(["scenario", "run", str(path)]) == 0
        assert "26" in capsys.readouterr().out

    def test_run_writes_report(self, tmp_path):
        path = bundled_path(tmp_path, "tsa_day_cycle.jsonl")
        report_dir = tmp_path / "reports"
        assert cli.main(["scenario", "run", str(path), "--report", str(report_dir)]) == 0
        report = report_dir / "tsa_day_cycle.report.json"
        assert report.exists()
        assert json.loads(report.read_text())["summary"]["op_count"] == 26

    def test_report_dir_from_environment(self, tmp_path, monkeypatch):
        path = bundled_path(tmp_path, "escrow_paths.jsonl")
        report_dir = tmp_path / "env_reports"
        monkeypatch.setenv(cli.REPORT_DIR_ENV, str(report_dir))
        assert cli.main(["scenario", "run", str(path)]) == 0
        assert (report_dir / "escrow_paths.report.json").exists()

    def test_failed_assertion_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"op": "tsa_init"}\n'
            '{"op": "open", "id": "m", "kind": "main", "expected": {"kind": "zba"}}\n'
        )
        assert cli.main(["scenario", "run", str(path)]) == 1
        assert "line 2" in capsys.readouterr().out

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "time_travel"}\n')
        assert cli.main(["scenario", "run", str(path)]) == 1
        assert "unknown op" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("scenario", '{"op": "tsa_init"}\n{"op": "fund", "name": "ghost", "amount": 5}\n', "line 2: no key named 'ghost'"),
            ("scenario", '{"op": "keygen", "name": ["a"], "seed": "%s"}\n' % ("01" * 32), "line 1: name must be text"),
            ("tsa", '{"op": "tsa_init"}\n{"op": "sweep", "agency": "north"}\n', "line 2: no treasury ledger"),
            ("tsa", '{"op": "tsa_init"}\n{"op": "open", "id": "m", "kind": "nope"}\n', "line 2: expected"),
        ],
    )
    def test_any_scenario_failure_exits_1_naming_its_line(self, tmp_path, capsys, command, text, message):
        # before: a traceback for a run-state error or a field of the wrong type
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        argv = ["scenario", "run", str(path)] if command == "scenario" else ["tsa", "day-cycle", str(path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out.startswith(f"scenario failed: {message}")

    def test_tsa_day_cycle_summary(self, tmp_path, capsys):
        path = bundled_path(tmp_path, "tsa_day_cycle.jsonl")
        assert cli.main(["tsa", "day-cycle", str(path)]) == 0
        out = capsys.readouterr().out
        assert "day 0" in out
        assert "consolidated 1805" in out


class TestContractsCommand:
    def test_list_shows_the_whole_catalog(self, capsys):
        assert cli.main(["contracts", "list"]) == 0
        out = capsys.readouterr().out
        for code_id in (
            "conditional_payment",
            "counter",
            "escrow",
            "ifrs9_classify",
            "net",
            "settle",
            "zba_sweep",
        ):
            assert code_id in out


class TestSettleCommand:
    def test_run_over_sample_trades(self, tmp_path, capsys):
        csv_path = tmp_path / "trades.csv"
        csv_path.write_text(
            (resources.files("ledgerstack") / "scenarios" / "trades_sample.csv").read_text()
        )
        report_dir = tmp_path / "reports"
        assert cli.main(
            ["settle", "run", str(csv_path), "--lag", "1", "--report", str(report_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "exposure" in out
        report = json.loads((report_dir / "trades.report.json").read_text())
        assert report["instruction_counts"]["settled"] > 0
        assert report["instruction_counts"].get("failed", 0) == 0

    def test_modes_accepted(self, tmp_path):
        csv_path = tmp_path / "trades.csv"
        csv_path.write_text(
            (resources.files("ledgerstack") / "scenarios" / "trades_sample.csv").read_text()
        )
        for mode in ("bilateral", "ccp", "consortium"):
            assert cli.main(["settle", "run", str(csv_path), "--mode", mode]) == 0

    def test_bad_csv_exits_1(self, tmp_path, capsys):
        csv_path = tmp_path / "trades.csv"
        csv_path.write_text("id,buyer\nT1,alice\n")
        assert cli.main(["settle", "run", str(csv_path)]) == 1


class TestInputErrors:
    """Bad flags are parser errors (exit 2) and an unreadable input file is
    one printed line (exit 1); neither ends in a traceback."""

    @pytest.mark.parametrize("seed", ["zz", "abcd", "2a" * 31, "2a" * 33, "2a" * 31 + " a", ""])
    @pytest.mark.parametrize("command", [["chain", "init", "--out", "x.jsonl"], ["chain", "verify", "x.jsonl"]])
    def test_seed_that_is_not_64_hex_characters_is_a_parser_error(self, command, seed, capsys, monkeypatch, tmp_path):
        # before: "zz" raised ValueError and "abcd" BadSeed
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--seed", seed])
        assert exc.value.code == 2
        assert "--seed: must be 64 hex characters" in capsys.readouterr().err

    @pytest.mark.parametrize("lag", ["-1", "x", "1.5"])
    def test_lag_that_is_not_a_non_negative_int_is_a_parser_error(self, tmp_path, lag, capsys):
        # before: -1 raised a SettlementError traceback
        csv_path = tmp_path / "trades.csv"
        csv_path.write_text("id,buyer,seller,asset,quantity,price,day\nT1,a,b,BOND,1,100,0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["settle", "run", str(csv_path), "--lag", lag])
        assert exc.value.code == 2
        assert "--lag: must be an int >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["chain", "verify", "{}"],
            ["chain", "import", "{}"],
            ["chain", "export", "--in", "{}", "--out", "out.jsonl"],
            ["settle", "run", "{}"],
            ["scenario", "run", "{}"],
            ["tsa", "day-cycle", "{}"],
        ],
    )
    def test_missing_input_file_exits_1(self, tmp_path, command, capsys):
        missing = str(tmp_path / "missing")
        assert cli.main([arg.format(missing) for arg in command]) == 1
        assert capsys.readouterr().out == f"cannot read {missing}: No such file or directory\n"

    def test_input_file_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "chain.jsonl"
        path.write_bytes(b"\xff\n")
        assert cli.main(["chain", "verify", str(path)]) == 1
        assert capsys.readouterr().out.startswith(f"cannot read {path}: ")

    def test_trade_day_out_of_range_names_its_row(self, tmp_path, capsys):
        # before: a ChainError traceback from the cycle's chain
        csv_path = tmp_path / "trades.csv"
        csv_path.write_text("id,buyer,seller,asset,quantity,price,day\nT1,a,b,BOND,1,100,-5\n")
        assert cli.main(["settle", "run", str(csv_path)]) == 1
        assert capsys.readouterr().out.startswith("bad trades file: trades row 2: trade day must be an int")


class TestEscrowCommand:
    def test_demo_runs_and_reports(self, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        assert cli.main(["escrow", "demo", "--report", str(report_dir)]) == 0
        out = capsys.readouterr().out
        assert "released" in out
        assert "refunded" in out
        assert "arbitrated" in out
        assert (report_dir / "escrow_paths.report.json").exists()

    def test_demo_failure_exits_1_naming_its_line(self, monkeypatch, capsys):
        def fail(text, name):
            raise cli.engine.EngineError("no escrow 'e'", 4)

        monkeypatch.setattr(cli.engine, "run_scenario", fail)
        assert cli.main(["escrow", "demo"]) == 1
        assert capsys.readouterr().out == "scenario failed: line 4: no escrow 'e'\n"
