"""Command line front end.

Subcommands:
  chain init|verify|export|import   file-based chain round trips
  scenario run FILE                 run a JSON-lines scenario
  contracts list                    print the contract catalog
  tsa day-cycle FILE                run a treasury scenario, print day closes
  settle run TRADES.CSV             run a settlement cycle over a trade file
  escrow demo                       run the bundled escrow walkthrough

Reports land in --report DIR when given, else $LEDGERSTACK_REPORT_DIR,
else they are not written. Report bytes are deterministic for a given
input file.
"""

from __future__ import annotations

import argparse
import os
import string
import sys
from importlib import resources
from pathlib import Path

from . import chain as chain_mod
from . import contracts as contracts_mod
from . import engine
from . import settlement
from .crypto import SEED_LEN, keygen

DEFAULT_SEED = bytes.fromhex("2a" * 32)

REPORT_DIR_ENV = "LEDGERSTACK_REPORT_DIR"


def _seed(text: str) -> bytes:
    """The --seed type: 64 hex characters, read as the 32-byte seed."""
    if len(text) != 2 * SEED_LEN or not set(text) <= set(string.hexdigits):
        raise argparse.ArgumentTypeError(f"must be {2 * SEED_LEN} hex characters, got {text!r}")
    return bytes.fromhex(text)


def _lag(text: str) -> int:
    """The --lag type: an int >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {text!r}")
    return int(text)


def _read_text(path: str) -> str | None:
    """The file's UTF-8 text, or None once the failure is printed."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
        return None


def _chain_config(seed: bytes | None) -> chain_mod.ChainConfig:
    operator = keygen(seed or DEFAULT_SEED)
    return chain_mod.ChainConfig(
        mode="quorum", validators=(operator.public,), quorum_m=1
    )


def _write_report(flag_value: str | None, stem: str, payload: bytes) -> None:
    """Write the report into --report DIR, else $LEDGERSTACK_REPORT_DIR, else nowhere."""
    raw = flag_value or os.environ.get(REPORT_DIR_ENV)
    if raw:
        Path(raw).mkdir(parents=True, exist_ok=True)
        out = Path(raw) / f"{stem}.report.json"
        out.write_bytes(payload)
        print(f"report written to {out}")


# ---------------------------------------------------------------------------
# chain


def _cmd_chain_init(args: argparse.Namespace) -> int:
    config = _chain_config(args.seed)
    chain = chain_mod.Chain(config)
    chain.export_jsonl(args.out)
    print(f"initialized chain with {len(chain.blocks)} block(s) at {args.out}")
    return 0


def _load_chain(path: str, seed: bytes | None) -> chain_mod.Chain | None:
    """The chain in the file, or None once the refusal is printed."""
    text = _read_text(path)
    if text is None:
        return None
    try:
        return chain_mod.Chain.from_jsonl(text, _chain_config(seed))
    except (chain_mod.BadImport, chain_mod.EmptyChain) as exc:
        print(f"import failed: {exc}")
        return None


def _cmd_chain_verify(args: argparse.Namespace) -> int:
    chain = _load_chain(args.file, args.seed)
    if chain is None:
        return 1
    result = chain.verify()
    if result.valid:
        print(f"valid: height {chain.height}, {len(chain.tx_ids)} tx(s)")
        return 0
    print(f"invalid at height {result.first_bad_height}: {result.reason}")
    return 1


def _cmd_chain_export(args: argparse.Namespace) -> int:
    chain = _load_chain(args.infile, args.seed)
    if chain is None:
        return 1
    chain.export_jsonl(args.out)
    print(f"exported {len(chain.blocks)} block(s) to {args.out}")
    return 0


def _cmd_chain_import(args: argparse.Namespace) -> int:
    chain = _load_chain(args.file, args.seed)
    if chain is None:
        return 1
    result = chain.verify()
    status = "valid" if result.valid else f"INVALID ({result.reason})"
    print(
        f"imported {len(chain.blocks)} block(s), height {chain.height}, "
        f"{len(chain.tx_ids)} tx(s): {status}"
    )
    return 0 if result.valid else 1


# ---------------------------------------------------------------------------
# scenarios


def _run_scenario(text: str, name: str, report_flag: str | None) -> dict | None:
    """Run a scenario and write its report; None once the failure is printed."""
    try:
        report = engine.run_scenario(text, name=name)
    except engine.EngineError as exc:
        print(f"scenario failed: {exc}")
        return None
    _write_report(report_flag, name, engine.report_bytes(report))
    return report


def _run_scenario_file(path: str, report_flag: str | None) -> dict | None:
    text = _read_text(path)
    return None if text is None else _run_scenario(text, Path(path).stem, report_flag)


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    report = _run_scenario_file(args.file, args.report)
    if report is None:
        return 1
    print(f"{report['scenario']}: {report['summary']['op_count']} op(s) ok")
    return 0


def _cmd_tsa_day_cycle(args: argparse.Namespace) -> int:
    report = _run_scenario_file(args.file, args.report)
    if report is None:
        return 1
    for op in report["ops"]:
        if op["op"] == "sweep":
            moved = sum(t["amount"] for t in op["result"]["transfers"])
            print(
                f"sweep: {len(op['result']['transfers'])} transfer(s), "
                f"{moved} moved, main balance {op['result']['main_balance']}"
            )
        elif op["op"] == "day_close":
            print(
                f"day {op['result']['day']} closed: consolidated "
                f"{op['result']['consolidated']}, block height {op['result']['height']}"
            )
        elif op["op"] == "buffer_check":
            state = "ok" if op["result"]["ok"] else f"SHORT by {op['result']['gap']}"
            print(
                f"buffer check: need {op['result']['required']}, "
                f"have {op['result']['available']}: {state}"
            )
    return 0


def _cmd_contracts_list(args: argparse.Namespace) -> int:
    rows = contracts_mod.contract_listing()
    width = max(len(r["code_id"]) for r in rows)
    for row in rows:
        print(f"{row['code_id']:<{width}}  {row['cost_note']:<34}  {row['description']}")
    return 0


def _cmd_settle_run(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    if text is None:
        return 1
    try:
        trades = settlement.trades_from_csv(text)
    except settlement.SettlementError as exc:
        print(f"bad trades file: {exc}")
        return 1
    config = settlement.CycleConfig(
        lag_days=args.lag,
        mode=args.mode,
        leg_mode=settlement.FOP if args.fop else settlement.DVP,
    )
    report = settlement.run_cycle(trades, config)
    print(f"mode {report.mode}, lag {report.lag_days} day(s), {len(trades)} trade(s)")
    for row in report.days:
        print(
            f"day {row['day']}: {row['trades']} trade(s), "
            f"{row['settled']} settled, {row['pending_eod']} pending, "
            f"exposure {row['exposure_eod']}"
        )
    print(f"exposure series: {report.exposure_series}")
    print(f"cumulative exposure: {report.exposure_total}")
    print(
        f"gross obligations {report.gross_obligations}, "
        f"net {report.net_obligations}"
    )
    for row in report.unpaid_deliveries:
        print(f"unpaid: {row['payer']} owes {row['payee']} {row['amount']} ({row['id']})")
    _write_report(args.report, Path(args.file).stem, engine.report_bytes(report.to_obj()))
    return 0


def _cmd_escrow_demo(args: argparse.Namespace) -> int:
    text = (
        resources.files("ledgerstack")
        .joinpath("scenarios/escrow_paths.jsonl")
        .read_text(encoding="utf-8")
    )
    report = _run_scenario(text, "escrow_paths", args.report)
    if report is None:
        return 1
    for op in report["ops"]:
        result = op["result"]
        if op["op"] == "open_escrow":
            print(f"opened escrow {result['escrow']}")
        elif op["op"] == "escrow_sign" and result.get("status") not in (None, "open"):
            payouts = ", ".join(
                f"{who} gets {amt}" for who, amt in result["payouts"].items()
            )
            print(f"resolved {result['status']}: {payouts}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerstack",
        description="deterministic ledger engine and banking scenario toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chain = sub.add_parser("chain", help="chain file operations")
    chain_sub = p_chain.add_subparsers(dest="chain_command", required=True)

    p = chain_sub.add_parser("init", help="write a fresh chain file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, help="operator seed (64 hex chars)")
    p.set_defaults(func=_cmd_chain_init)

    p = chain_sub.add_parser("verify", help="verify a chain file")
    p.add_argument("file")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_chain_verify)

    p = chain_sub.add_parser("export", help="canonical re-export of a chain file")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_chain_export)

    p = chain_sub.add_parser("import", help="import a chain file and summarize")
    p.add_argument("file")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=_cmd_chain_import)

    p_scenario = sub.add_parser("scenario", help="scenario runner")
    scenario_sub = p_scenario.add_subparsers(dest="scenario_command", required=True)
    p = scenario_sub.add_parser("run", help="run a JSON-lines scenario file")
    p.add_argument("file")
    p.add_argument("--report", help="directory for the report file")
    p.set_defaults(func=_cmd_scenario_run)

    p_contracts = sub.add_parser("contracts", help="contract catalog")
    contracts_sub = p_contracts.add_subparsers(dest="contracts_command", required=True)
    p = contracts_sub.add_parser("list", help="list deployable contracts")
    p.set_defaults(func=_cmd_contracts_list)

    p_tsa = sub.add_parser("tsa", help="treasury account structure")
    tsa_sub = p_tsa.add_subparsers(dest="tsa_command", required=True)
    p = tsa_sub.add_parser("day-cycle", help="run a treasury day scenario")
    p.add_argument("file")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_tsa_day_cycle)

    p_settle = sub.add_parser("settle", help="settlement cycles")
    settle_sub = p_settle.add_subparsers(dest="settle_command", required=True)
    p = settle_sub.add_parser("run", help="run a cycle over a trades csv")
    p.add_argument("file")
    p.add_argument("--lag", type=_lag, default=2)
    p.add_argument(
        "--mode",
        choices=(
            settlement.MODE_BILATERAL,
            settlement.MODE_CCP,
            settlement.MODE_CONSORTIUM,
        ),
        default=settlement.MODE_BILATERAL,
    )
    p.add_argument("--fop", action="store_true", help="asset leg only")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_settle_run)

    p_escrow = sub.add_parser("escrow", help="escrow flows")
    escrow_sub = p_escrow.add_subparsers(dest="escrow_command", required=True)
    p = escrow_sub.add_parser("demo", help="run the bundled escrow walkthrough")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_escrow_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
