"""Import boundaries between the shipped modules, read from their source.

The test oracles must stay independent of the coder they check, core is
the bottom of the import graph, and the reference transitions stay out
of the shipped import graph except for the two names the encoder still
calls.  Both coding directions set up their session in one place, and
the decoder checks its read budget in one place.  The
container's byte layout stays in digitio, the one module that imports
struct, where digit strings take one path for every P.  The CLI builds
its models in one place.  No model names its kind, and the coder asks a
model for nothing past the contract in codec's docstring.  A model's
code and decode see offsets within a width, so the ring wrap lives in
codec alone.  The model cap P**(N-2) is derived in core alone, and the
CLI leaves the Kraft sum to HuffmanModel's own tiling check.  No module
builds a tuple from a generator.  Importing
the CLI loads neither dataclasses nor inspect: that chain (ast, dis,
tokenize) would add about 1 MiB to every start-up.
"""

import ast
import subprocess
import sys
from pathlib import Path

import padc

SRC = Path(padc.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def padc_imports(module, root=SRC):
    """{padc module: imported names, or None for the whole module} for every
    import of a padc module anywhere in module's source under root."""
    tree = ast.parse((root / f"{module}.py").read_text())
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
    assert {"codec", "core", "reference"} <= set(MODULES)


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
        "before = set(sys.modules); import padc.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    added = set(run.stdout.split())
    assert "padc.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_oracles_import_nothing_from_padc():
    assert padc_imports("oracles", TESTS) == {}


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


def imported_modules(module):
    """Top-level names of every absolute import in module's source."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_digitio_imports_struct():
    assert [m for m in MODULES if "struct" in imported_modules(m)] == ["digitio"]


def functions_comparing_with_two(module, names):
    """Names of the functions in module's source that compare a name or
    attribute in names with the constant 2."""

    def is_name(node):
        return getattr(node, "id", getattr(node, "attr", None)) in names

    def is_two(node):
        return isinstance(node, ast.Constant) and node.value == 2

    found = set()
    for f in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(f, ast.FunctionDef):
            for node in ast.walk(f):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(map(is_name, sides)) and any(map(is_two, sides)):
                        found.add(f.name)
    return found


def test_digitio_branches_on_binary_only_in_the_chunk_and_container_calls():
    # Digit strings go through the block tables at every P.  Only the coder's
    # per-chunk calls keep a P=2 byte path, and the container functions the
    # format's rule that huffman is P=2 only.
    assert functions_comparing_with_two("digitio", ("P", "p")) == {
        "push_number",
        "value",
        "write_container",
        "read_container",
    }


def calls(tree, names):
    """Every call in tree of a name or attribute in names."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]


def test_codec_sets_up_a_session_in_one_place():
    # Encoder and Decoder build on one session base: the model is checked
    # and the width floor taken once, and width_floor alone rejects a grid
    # below level 2.
    tree = ast.parse((SRC / "codec.py").read_text())
    assert len(calls(tree, {"validate_for_coding"})) == 1
    assert len(calls(tree, {"width_floor"})) == 1
    assert functions_comparing_with_two("codec", ("N",)) == {"width_floor"}


def test_decoder_checks_its_read_budget_in_one_place():
    # Folds and refills leave c + m - pending unchanged, so only a prefix
    # shift can take the reads past the budget (see Decoder.run): one
    # check there, and none that lets pending folds widen the budget.
    tree = ast.parse((SRC / "codec.py").read_text())
    (decoder,) = [n for n in tree.body if getattr(n, "name", None) == "Decoder"]
    (run,) = [f for f in decoder.body if getattr(f, "name", None) == "run"]
    assert len(calls(run, {"_exhausted"})) == 1
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            sides = {getattr(node.left, "id", None), getattr(node.right, "id", None)}
            assert sides != {"budget", "pending"}, f"codec.py:{node.lineno}"


def test_cli_builds_models_only_from_the_header():
    # The encoder and decoder get their model from one factory, so both
    # ends of a container build the same model: only the model builders of
    # the _KINDS rows construct models, and only _model_from_header calls
    # a row's builder.
    kinds = {"AdaptiveModel", "StaticModel", "HuffmanModel", "UnaryModel"}
    tree = ast.parse((SRC / "cli.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    (table,) = [
        n.value
        for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["_KINDS"]
    ]
    builders = [row.args[1] for row in table.values]  # _Kind(payload, model, ...)
    builders = [defs[b.id] if isinstance(b, ast.Name) else b for b in builders]
    built = [c for b in builders for c in calls(b, kinds)]
    assert {c.func.id for c in built} == kinds
    assert len(built) == len(calls(tree, kinds))
    named = {b.name for b in builders if isinstance(b, ast.FunctionDef)}
    assert not calls(tree, named)
    assert [name for name, f in defs.items() if calls(f, {"model"})] == [
        "_model_from_header"
    ]


def test_the_model_cap_is_derived_in_core_alone():
    # GridParams.cap is the one P**(N-2): cli, codec and models read it and
    # index nothing, powers or an alias of it, with N - 2.
    def is_n_minus_two(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and getattr(node.left, "id", getattr(node.left, "attr", None)) == "N"
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
        )

    for m in ("cli", "codec", "models"):
        for node in ast.walk(ast.parse((SRC / f"{m}.py").read_text())):
            if isinstance(node, ast.Subscript):
                assert not is_n_minus_two(node.slice), f"{m}.py:{node.lineno}"


def test_cli_sums_no_powers():
    # A Huffman table's Kraft sum is HuffmanModel's to check, as the tiling
    # of its cells; the CLI makes no copy of it.
    for call in calls(ast.parse((SRC / "cli.py").read_text()), {"sum"}):
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(call)}
        assert "powers" not in names, f"cli.py:{call.lineno}"


def test_models_carry_no_kind_tag_and_codec_probes_none():
    # A model kind is declared in the CLI's and the container's tables
    # alone: no model class names its kind, and the coder asks a model
    # only for what the contract lists, without getattr probes.
    tree = ast.parse((SRC / "models.py").read_text())
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        # methods and properties, class attributes and self.<name> = ...
        names = {n.name for n in ast.walk(cls) if isinstance(n, ast.FunctionDef)}
        for stmt in cls.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names.update(getattr(t, "id", None) for t in ast.walk(stmt))
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        assert "kind" not in names, cls.name
    codec = ast.parse((SRC / "codec.py").read_text())
    assert not calls(codec, {"getattr"})


def test_models_leave_the_ring_to_the_coder():
    # code and decode work on offsets within the width the coder passes:
    # no % (the wrap mod P**N) and no params (the grid) in any of them.
    tree = ast.parse((SRC / "models.py").read_text())
    methods = [
        f
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name in ("code", "decode")
    ]
    assert len(methods) == 6  # static, adaptive, unary; huffman inherits
    for f in methods:
        for node in ast.walk(f):
            where = f"models.py:{getattr(node, 'lineno', f.lineno)}"
            assert not isinstance(getattr(node, "op", None), ast.Mod), where
            name = getattr(node, "id", getattr(node, "attr", None))
            assert name != "params", where


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


def test_no_tuple_of_a_generator():
    # tuple() of a generator allocates for ten items and resizes, so the
    # block ends on the free list of its final size, which the next such
    # tuple never draws from: repeated calls grow that list up to its cap.
    # A list first gives the tuple its final size.
    for m in MODULES:
        tree = ast.parse((SRC / f"{m}.py").read_text())
        for call in calls(tree, {"tuple"}):
            assert not any(isinstance(a, ast.GeneratorExp) for a in call.args), (
                f"{m}.py:{call.lineno}"
            )
