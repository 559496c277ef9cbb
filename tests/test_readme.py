"""Every burgerslab name the README quotes still exists.

A backticked `module.name` whose module is a burgerslab module must be an
attribute of that module, and a `section.key` of the config schema must be
a row of that section.  A backticked bare call `name(` and a backticked
ALL_CAPS name must be an attribute of some burgerslab module, except the
environment variables listed here.  So deleting or renaming a name cannot
leave the README pointing at nothing.
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
# a bare name right after a backtick: any name called, or an ALL_CAPS name alone
BARE = re.compile(r"`(?:([A-Za-z_]\w*)\(|([A-Z][A-Z0-9_]*)`)")
# ALL_CAPS names the README quotes that are not burgerslab's
ENVIRONMENT = {"PYTHONDONTWRITEBYTECODE"}


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


def _bare_resolves(name: str) -> bool:
    return any(hasattr(module, name) for module in MODULES.values())


def test_bare_names_resolve():
    bare = {call or caps for call, caps in BARE.findall(README.read_text())} - ENVIRONMENT
    assert {"sample_noise", "solve_batch", "MAX_M", "PER_PANEL"} <= bare
    assert sorted(name for name in bare if not _bare_resolves(name)) == []


def test_a_missing_bare_name_does_not_resolve():
    assert not _bare_resolves("no_such_function")
    assert not _bare_resolves("NO_SUCH_CONSTANT")
    assert _bare_resolves("sample_noise") and _bare_resolves("MAX_M")
