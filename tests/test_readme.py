"""Every burgerslab name the README quotes still exists.

A backticked `module.name` whose module is a burgerslab module must be an
attribute of that module, and a `section.key` of the config schema must be
a row of that section, so deleting or renaming a name cannot leave the
README pointing at nothing.
"""

import importlib
import re
from pathlib import Path

import burgerslab
from burgerslab import cli

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = {name: importlib.import_module(f"burgerslab.{name}")
           for name in ("averaging", "cli", "coefficients", "core", "ldp", "ratefn", "solver")}
MODULES["burgerslab"] = burgerslab

SECTIONS = {
    "grid": cli._GRID,
    "mesh": cli._MESH,
    "coefficients": cli._COEFFICIENTS,
    "scheme": cli._SCHEME,
    "u0": cli._U0,
    "params": [row for rows in cli._PARAMS.values() for row in rows],
}

# a dotted name right after a backtick, ending at the closing backtick or a call's "("
QUOTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]")


def _resolves(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    if head in SECTIONS and len(rest) == 1 and any(row[0] == rest[0] for row in SECTIONS[head]):
        return True
    obj = MODULES.get(head)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj is not None


def test_quoted_names_resolve():
    quoted = {name for name in QUOTED.findall(README.read_text())
              if name.split(".")[0] in MODULES.keys() | SECTIONS.keys()}
    assert {"solver.CHECK_EVERY", "coefficients.beta", "burgerslab.solver"} <= quoted
    assert sorted(name for name in quoted if not _resolves(name)) == []


def test_a_missing_name_does_not_resolve():
    assert not _resolves("solver.no_such_name")
    assert not _resolves("scheme.no_such_key")
    assert _resolves("grid.m") and _resolves("params.n_samples")
