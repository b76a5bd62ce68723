"""Write one audit-workload chain as JSONL on stdout.

    python3 perfbench/chain_writer.py SEED ROUND

The chain is a treasury chain built through `TsaLedger`, the operator
write path, with account and day inputs taken from SEED and an operator
key taken from SEED and ROUND. It runs as its own process, so the process
that verifies the chain has never verified one of its signatures.
"""

import sys

from run import use_checkout_source


def main(seed: int, round_no: int) -> None:
    use_checkout_source()
    from ledgerstack import tsa

    import workloads

    inputs = workloads.audit_chain_inputs(seed)
    ledger = tsa.TsaLedger(operator_seed=workloads.audit_operator_seed(seed, round_no))
    workloads.open_accounts(ledger, inputs)
    for ops, requirement in inputs.days:
        workloads.business_day(ledger, ops, requirement)
    sys.stdout.write(ledger.chain.to_jsonl())


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
