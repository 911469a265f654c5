"""Exact answers each benchmark command must reproduce.

Only the fields that carry the answer are compared, so later versions may add
output fields freely. Long lists are compared through a digest of their exact
JSON form; short values are stored as they are.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()[:16]


def answer(kind: str, result: dict) -> dict:
    """The checked fields of one command's `result` block."""
    if kind == "simulate":
        return {
            "decode_ok": result.get("decode_ok"),
            "measured_rate": result.get("measured_rate"),
            "formula_rate": result.get("formula_rate"),
            "demands_checked": result.get("demands_checked"),
            "allocation": result.get("allocation"),
            "stack_demands_checked": (result.get("stack") or {}).get("demands_checked"),
        }
    if kind == "tradeoff":
        return {"corners": digest(result.get("corners")), "exact": result.get("exact")}
    if kind in ("allocate", "oracle"):
        fields = {"rate": result.get("rate"), "allocation": digest(result.get("allocation"))}
        if kind == "oracle":
            oracle = result.get("oracle") or {}
            fields["oracle_rate"] = oracle.get("rate")
            fields["oracle_allocation"] = digest(oracle.get("allocation"))
        return fields
    if kind == "sweep":
        return {"segments": digest(result.get("segments")), "minimum": result.get("minimum")}
    if kind == "converse":
        return {key: result.get(key) for key in ("achievable", "converse", "gap", "status")}
    raise ValueError(f"unknown command kind {kind!r}")


def check(kind: str, result: dict, expected: dict) -> list[str]:
    """Mismatches between a command's result and its stored answer; empty when exact."""
    got = answer(kind, result)
    return [
        f"{field}: got {got.get(field)!r}, stored {want!r}"
        for field, want in expected.items()
        if got.get(field) != want
    ]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["answers"]
