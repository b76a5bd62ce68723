"""Command line front end.

Subcommands, one per job:
  chain init --out FILE    write a fresh chain file
  chain verify FILE        import a chain file and verify it; a file that is
                           not in the one byte form to_jsonl writes is refused
  scenario run FILE        run a JSON-lines scenario
  contracts list           print the contract catalog
  settle run TRADES.CSV    run a settlement cycle over a trade file

scenario run and settle run write their report into --report DIR when it
is given, else nowhere. Report bytes are deterministic for a given input
file.
"""

from __future__ import annotations

import argparse
import string
import sys
from pathlib import Path

from . import chain as chain_mod
from . import contracts as contracts_mod
from . import engine
from . import settlement
from .crypto import SEED_LEN, keygen

DEFAULT_SEED = bytes.fromhex("2a" * 32)


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
    return chain_mod.ChainConfig(validators=(keygen(seed or DEFAULT_SEED).public,))


def _write_report(report_dir: str | None, stem: str, payload: bytes) -> None:
    """Write the report into --report DIR, if given."""
    if report_dir:
        Path(report_dir).mkdir(parents=True, exist_ok=True)
        out = Path(report_dir) / f"{stem}.report.json"
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


def _cmd_chain_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    if text is None:
        return 1
    try:
        chain = chain_mod.Chain.from_jsonl(text, _chain_config(args.seed))
    except (chain_mod.BadImport, chain_mod.EmptyChain) as exc:
        print(f"import failed: {exc}")
        return 1
    result = chain.verify()
    if result.valid:
        print(f"valid: height {chain.height}, {len(chain.tx_ids)} tx(s)")
        return 0
    print(f"invalid at height {result.first_bad_height}: {result.reason}")
    return 1


# ---------------------------------------------------------------------------
# scenarios


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    if text is None:
        return 1
    name = Path(args.file).stem
    try:
        report = engine.run_scenario(text, name=name)
    except engine.EngineError as exc:
        print(f"scenario failed: {exc}")
        return 1
    _write_report(args.report, name, engine.report_bytes(report))
    print(f"{report['scenario']}: {report['summary']['op_count']} op(s) ok")
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
    config = settlement.CycleConfig(
        lag_days=args.lag,
        mode=args.mode,
        leg_mode=settlement.FOP if args.fop else settlement.DVP,
    )
    try:
        trades = settlement.trades_from_csv(text)
        report = settlement.run_cycle(trades, config)
    except settlement.SettlementError as exc:
        print(f"bad trades file: {exc}")
        return 1
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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
