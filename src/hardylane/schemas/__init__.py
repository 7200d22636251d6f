"""Versioned JSON schemas for the machine-readable output records."""

import json
from importlib import resources

SCHEMA_VERSION = "2"

_KINDS = ("classify", "iterate", "verify", "plot")


def load_schema(kind: str) -> dict:
    if kind not in _KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    ref = resources.files(__package__).joinpath(f"{kind}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))
