"""``docs/API.md`` is the public API contract.

Every name in ``repro.__all__`` and ``repro.obs.__all__`` and every
public member of :class:`repro.Session` has exactly one table row, and
every row names something public.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
import repro.obs

DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"
ROW = re.compile(r"^\|\s*`((?:repro(?:\.obs)?|Session)\.\w+)`\s*\|", re.M)


def documented(text: str) -> list[str]:
    return ROW.findall(text)


def public_api() -> list[str]:
    members = [
        name
        for name, value in vars(repro.Session).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, property))
    ]
    return (
        [f"repro.{name}" for name in repro.__all__]
        + [f"repro.obs.{name}" for name in repro.obs.__all__]
        + [f"Session.{name}" for name in members]
    )


def disagreements(rows: list[str], api: list[str]) -> list[str]:
    problems = [
        f"public but not in the table: {n}" for n in sorted(set(api) - set(rows))
    ]
    problems += [
        f"in the table but not public: {n}" for n in sorted(set(rows) - set(api))
    ]
    problems += [
        f"listed more than once: {n}"
        for n in sorted({n for n in rows if rows.count(n) > 1})
    ]
    return problems


def test_table_and_code_agree():
    rows = documented(DOC.read_text(encoding="utf-8"))
    assert disagreements(rows, public_api()) == []


def test_every_listed_name_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name), name


def test_missing_row_fails():
    rows = documented("| `repro.connect` | x |\n| `Session.close` | y |\n")
    api = ["repro.connect", "Session.close", "Session.top"]
    assert disagreements(rows, api) == [
        "public but not in the table: Session.top"
    ]


def test_stale_and_duplicate_rows_fail():
    rows = documented(
        "| `repro.connect` | x |\n"
        "| `Session.health` | gone |\n"
        "| `repro.connect` | again |\n"
        "| `session.health()` | prose, not a row of the contract |\n"
    )
    assert disagreements(rows, ["repro.connect"]) == [
        "in the table but not public: Session.health",
        "listed more than once: repro.connect",
    ]
