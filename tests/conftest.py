"""Shared fixtures."""

import os
from pathlib import Path

import pytest

from ledgerstack import crypto


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(n): make crypto.verify_many see n CPUs (1 forces the inline path)."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(crypto.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout."""
    src = str(Path(crypto.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
