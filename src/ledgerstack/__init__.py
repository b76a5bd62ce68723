"""ledgerstack: a deterministic permissioned-ledger engine for banking scenarios.

Layers, bottom up:

- crypto: double SHA-256, Merkle trees, Ed25519 keys
- chain: transactions, 92-byte block headers, quorum / proof-of-work append,
  period stamps as header-only blocks
- integrity: Clark-Wilson enforcement composed with Biba level checks
- contracts: step-metered deterministic contract catalog
- tsa: treasury single account ledger with end-of-day sweeps
- bank_ledger: prime entry books, double-entry GL, IFRS 9 helpers
- settlement: matching, novation, netting, DvP/FoP settlement cycles
- escrow: 2-of-3 multisignature escrow state machine
- engine / cli: JSON-lines scenario runner and command line front end
"""

__version__ = "0.1.0"
