"""``docs/observability.md`` lists exactly the metric families the code
registers: one table row per family, none missing and none retired."""

from __future__ import annotations

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
PAGE = SRC.parents[1] / "docs" / "observability.md"
FAMILY = re.compile(r"repro_[a-z0-9_]*[a-z0-9]")


def registered_families():
    """Every ``repro_*`` metric name spelled as a string in ``src/repro``
    (a shared-memory segment prefix like ``repro_shm_`` is no name)."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if FAMILY.fullmatch(node.value):
                    names.add(node.value)
    return names


def documented_families():
    """The family named in the first cell of each table row."""
    text = PAGE.read_text(encoding="utf-8")
    return set(re.findall(r"^\| `(repro_[a-z0-9_]+)` \|", text, re.MULTILINE))


def test_the_page_lists_every_registered_family_and_no_other():
    registered, documented = registered_families(), documented_families()
    assert registered, "no metric family found under src/repro"
    assert sorted(registered - documented) == [], "registered but not documented"
    assert sorted(documented - registered) == [], "documented but not registered"


def test_the_wal_and_ipc_label_values_match_the_code():
    from repro.system.procpool import _IPC_OPS
    from repro.system.wal import RECORD_TYPES

    rows = {
        name: row
        for name, row in re.findall(
            r"^\| `(repro_[a-z0-9_]+)` \|(.*)$", PAGE.read_text(encoding="utf-8"), re.MULTILINE
        )
    }
    assert f"kind ∈ {{{', '.join(RECORD_TYPES)}}}" in rows["repro_wal_appends_total"]
    assert f"op ∈ {{{', '.join(_IPC_OPS)}}}" in rows["repro_procpool_ipc_seconds"]
