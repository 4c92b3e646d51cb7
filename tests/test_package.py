import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import ertkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(ertkit.__all__) == len(set(ertkit.__all__))
    for name in ertkit.__all__:
        assert getattr(ertkit, name) is not None, name


def test_readme_imports_run():
    lines = re.findall(r"^from ertkit import .*$", README.read_text(), re.M)
    assert len(lines) == 2
    for line in lines:
        exec(line, {})


SRC = Path(__file__).resolve().parent.parent / "src" / "ertkit"


def _unused_imports(source: str) -> list:
    """Names a module imports but never loads: not as a name, not as the
    base of an attribute, not in a quoted annotation and not in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations, such as a forward reference "Program"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            loaded.update(
                n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in loaded
    )


# the package's modules but __init__.py, which imports names to re-export
# them, and the tests' helper modules
CHECKED = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + [
    p for p in sorted((SRC.parent.parent / "tests").glob("*.py"))
    if not p.name.startswith(("test_", "conftest"))
]


def test_no_unused_imports():
    # the test modules as well, so that no removed test leaves a dead import
    found = {}
    for path in sorted(set(CHECKED) | set((ROOT / "tests").glob("*.py"))):
        unused = _unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_no_module_reads_the_environment():
    # every input of a report is then in its argv or in a file named there
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno) for n in names if n in readers]
    assert found == []


def _identifiers(tree: ast.Module):
    """(line, name) of every name the module binds or reads: functions,
    classes, parameters, attributes, keyword arguments, variables, fields
    and imports, and every option string given to `add_argument`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.lineno, node.arg
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for a in node.args:
                if isinstance(a, ast.Constant) and isinstance(a.value, str):
                    yield a.lineno, a.value


def test_no_mutation_switch_in_the_package():
    # mutants are monkeypatches in tests/test_mutants.py; the package
    # carries no switch, option or field that turns one on
    found = [
        "%s:%d:%s" % (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
        if "mutant" in name.lower() or "mutation" in name.lower()
    ]
    assert found == []


ROOT = SRC.parent.parent


def _module_level_names(tree: ast.Module) -> list:
    """The names a module binds at its top level by `def`, `class` or
    assignment, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_no_unreferenced_module_names():
    # a top-level name that appears only where it is defined is dead code
    words = Counter(
        word
        for folder in ("src/ertkit", "tests", "perfbench")
        for p in sorted((ROOT / folder).glob("*.py"))
        for word in re.findall(r"\w+", p.read_text(encoding="utf-8"))
    )
    found = []
    for path in CHECKED:
        for name in _module_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            if words[name] < 2:
                found.append("%s:%s" % (path.name, name))
    assert found == []


def _container_sizes(modules) -> dict:
    """The len() of each dict, list and set a module holds at its top
    level, and of each one such a top-level object holds as an attribute,
    so that a cache kept inside a module-level object is counted too; and
    the size of each `functools` cache on a top-level function."""
    containers = (dict, list, set)
    sizes = {}
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, types.ModuleType):
                continue
            if hasattr(value, "cache_info"):
                sizes[module.__name__, name, "cache"] = value.cache_info().currsize
            if isinstance(value, containers):
                sizes[module.__name__, name] = len(value)
                continue
            attrs = getattr(value, "__dict__", {})
            slots = [s for c in type(value).__mro__ for s in getattr(c, "__slots__", ())]
            attrs = {**attrs, **{s: getattr(value, s, None) for s in slots if isinstance(s, str)}}
            for attr, inner in attrs.items():
                if isinstance(inner, containers):
                    sizes[module.__name__, name, attr] = len(inner)
    return sizes


def test_library_calls_leave_no_module_state():
    # library calls leave no process-wide side effects behind: no table,
    # cache or registry at module level grows
    from ertkit import corpus, invariants, kernel, mdp, props, semantics, syntax, transformer
    from test_cycles import CALLS

    modules = (transformer, semantics, kernel, props, mdp, syntax, invariants, corpus)
    before = _container_sizes(modules)
    assert ("ertkit.transformer", "_RULES") in before
    for call in CALLS.values():
        call()
    assert _container_sizes(modules) == before


def test_syntax_nodes_share_the_slotted_base():
    # a node declared as a dataclass, or without its own __slots__, would
    # add import time and a per-instance __dict__
    from ertkit import syntax
    from ertkit.kernel import Record

    classes = [
        c for c in vars(syntax).values()
        if isinstance(c, type) and c.__module__ == syntax.__name__
    ]
    assert classes
    for cls in classes:
        assert issubclass(cls, Record), cls
        assert "__slots__" in cls.__dict__, cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls
        assert not dataclasses.is_dataclass(cls), cls


def test_no_class_is_a_dataclass_and_every_record_shares_the_base():
    # dataclass generation at import costs several times what the slotted
    # base does
    from ertkit.kernel import Record
    from test_records import RECORDS

    classes = [
        c for path in sorted(SRC.glob("*.py")) if path.stem not in ("__init__", "__main__")
        for c in vars(importlib.import_module("ertkit." + path.stem)).values()
        if isinstance(c, type) and c.__module__ == "ertkit." + path.stem
    ]
    assert len(classes) > 60
    for cls in classes:
        assert not dataclasses.is_dataclass(cls), cls
    for cls in RECORDS:
        assert issubclass(cls, Record), cls
        assert "__slots__" in cls.__dict__, cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ertkit, ertkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_model_node_is_one_object():
    # a frozen dataclass node would carry a per-instance __dict__, a second
    # object per node of a model for the cyclic collector to track
    from ertkit.mdp import MdpNode

    node = MdpNode("sink")
    assert not hasattr(node, "__dict__")
    assert not dataclasses.is_dataclass(MdpNode)
    assert node == MdpNode(kind="sink", program=None, state=None)
    assert repr(node) == "MdpNode(kind='sink', program=None, state=None)"
    with pytest.raises(AttributeError):
        node.kind = "exec"


# the package's modules that the transformer and the model may both use; a
# defect in one of them is invisible to a comparison that computes through
# it on both sides
SHARED_BY_DESIGN = {"kernel", "semantics", "syntax"}


def _package_imports(tree: ast.Module) -> set:
    """(module, function) for each import of a module of the package in
    `tree`: the module's name and the name of the function around the
    import, None for an import at module level."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = ".".join(filter(None, ["ertkit" * child.level, child.module]))
                names = [base + "." + a.name for a in child.names] if base == "ertkit" else [base]
            found.update(
                (name.split(".")[1], function) for name in names if name.startswith("ertkit.")
            )
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(tree, None)
    return found


def test_the_three_legs_stay_independent():
    # the transformer and the model check each other only while neither
    # evaluates through the other; the step counter is the third leg.  Only
    # `cross_check` loads the transformer, to compare the two.
    transformer = ast.parse((SRC / "transformer.py").read_text(encoding="utf-8"))
    mdp = ast.parse((SRC / "mdp.py").read_text(encoding="utf-8"))
    assert {m for m, _ in _package_imports(transformer)} <= SHARED_BY_DESIGN
    assert {
        (m, function) for m, function in _package_imports(mdp) if m not in SHARED_BY_DESIGN
    } == {("transformer", "cross_check")}
    # the step counter may use only its own definitions in the module, so
    # every other top-level name of the module, present or future, is the
    # engine's
    defined = set()
    for node in transformer.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    own = {
        "det_step_count", "_det_support", "_det_guard",
        "FuelExhausted", "NotDeterministic", "STEP_BUDGET",
    }
    assert own <= defined
    engine = defined - own
    assert {"_Engine", "_Cont", "ZERO_CONT", "expected_runtime"} <= engine
    counter = [
        node for node in transformer.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("det_step_count", "_det_support", "_det_guard")
    ]
    assert len(counter) == 3
    for function in counter:
        loaded = {
            n.id for n in ast.walk(function)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        assert loaded & engine == set(), function.name


def test_only_the_pair_format_and_the_model_solver_take_a_gcd():
    # `kernel` holds the int-pair format that the transformer and the
    # run-time evaluator share; the model's solver keeps its own sum, so
    # that a defect in the shared one shows in the cross-check
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "gcd" for a in node.names):
                users.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "gcd":
                users.add(path.name)
    assert users == {"kernel.py", "mdp.py"}
