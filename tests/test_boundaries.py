"""Import boundaries between the shipped modules, read from their source.

The oracles must stay independent of the coder they check, core is the
bottom of the import graph, and the reference transitions stay out of
the shipped import graph except for the two names the encoder still
calls.
"""

import ast
from pathlib import Path

import padc

SRC = Path(padc.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def padc_imports(module):
    """{padc module: imported names, or None for the whole module} for every
    import of a padc module anywhere in module's source."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "padc":
                    found[alias.name.partition(".")[2] or "__init__"] = None
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.split(".")[0] != "padc":
                    continue
                name = name.partition(".")[2]
            if name:
                names = found.setdefault(name, set())
                names.update(alias.name for alias in node.names)
            else:  # from . import x: each name is a module
                for alias in node.names:
                    found[alias.name] = None
    return found


def test_modules_found():
    assert {"codec", "core", "oracles", "reference"} <= set(MODULES)


def test_oracles_import_nothing_from_padc():
    assert padc_imports("oracles") == {}


def test_core_imports_no_other_padc_module():
    assert padc_imports("core") == {}


def test_reference_imports_core_alone():
    assert set(padc_imports("reference")) == {"core"}


def test_only_codec_imports_the_reference_and_only_two_names():
    users = {
        m: padc_imports(m)["reference"]
        for m in MODULES
        if m != "reference" and "reference" in padc_imports(m)
    }
    assert users == {"codec": {"renorm_prefix", "straddle_flush"}}


def top_level_names(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_reference_definitions_live_only_there():
    moved = top_level_names("reference")
    for m in MODULES:
        if m != "reference":
            assert not top_level_names(m) & moved, m
    assert not moved & set(padc.__all__)
