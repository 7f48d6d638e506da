"""Every module of the package uses each name it imports, every top-level name is read, and none loads scipy or jsonschema."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fusionpid

PACKAGE = Path(fusionpid.__file__).resolve().parent
# (module, name) imported but not used, with the reason it stays
KEPT = {("cli", "encode"): "perfbench's COUNTED table counts the calls made through `cli.encode`"}


def unused_imports(source):
    """Names bound by the imports of `source` that no `Name` node reads.

    An attribute chain such as `np.linalg.solve` reads its root `np` as a
    `Name`, so the walk sees the roots of attributes too.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    found = {(path.stem, name) for path in modules for name in unused_imports(path.read_text())}
    assert found - set(KEPT) == set()
    # an exception that is no longer imported is a stale entry
    assert set(KEPT) <= found


# (module, top-level name) that no module of the package reads, with the reason it stays
KEPT_UNREAD = {
    ("synth", "DOMINANT"): "the acceptance tests' table of each gate's dominant component",
    ("pid", "feasible_initial"): "perfbench traces it as `pid.initial`, and the tests take it as q0's reference",
}


def top_level_names(source):
    """Names bound by the top-level definitions and assignments of `source`.

    A decorated definition counts as read: its decorator takes it (a click
    command registers itself so).
    """
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    return names


def names_read(sources):
    """(module, name) for each name a module reads itself or imports from a sibling, per module stem."""
    read = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read |= {(node.module or "__init__", alias.name) for alias in node.names}
    return read


def test_every_top_level_name_is_read_by_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    defined = {(module, name) for module, source in sources.items() for name in top_level_names(source)}
    unread = defined - names_read(sources)
    assert unread - set(KEPT_UNREAD) == set()
    # an exception that is read, or no longer defined, is a stale entry
    assert set(KEPT_UNREAD) <= unread


def test_names_read_sees_own_reads_and_sibling_imports():
    sources = {
        "a": "X = 1\nY = 2\ndef f():\n    return X\n@f\ndef g():\n    pass\nclass C:\n    pass\n",
        "b": "from .a import C\nZ = C\n",
    }
    defined = {(module, name) for module, source in sources.items() for name in top_level_names(source)}
    assert defined - names_read(sources) == {("a", "Y"), ("b", "Z")}


def test_unused_imports_sees_names_and_attribute_roots():
    source = "import numpy as np\nimport os.path\nfrom .info import Joint3, Extra\nx = np.log(os.path.sep)\nJoint3\n"
    assert unused_imports(source) == {"Extra"}


def test_package_top_level_holds_only_the_docstring_and_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [target.id for target in version.targets] == ["__version__"]


def loaded(imports, names):
    """Those of `names` in `sys.modules` after `imports` in a fresh interpreter (pytest's own has loaded them)."""
    code = f"import sys\n{imports}\nprint([name for name in {names!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return done.stdout.strip()


def test_no_module_loads_scipy_or_jsonschema():
    # `pip install fusionpid` brings numpy and click only (jsonschema is in the `test` extra)
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    imports = f"import importlib\nfor m in {modules!r}: importlib.import_module('fusionpid.' + m)"
    assert loaded(imports, ("scipy", "jsonschema")) == "[]"


def test_sampling_loads_no_parser():
    # the sampler's TripleDataset lives beside the joint it counts, away from the file parsers;
    # it holds a label count, so neither the sampler nor the solver loads a label space
    for module in ("fusionpid.synth", "fusionpid.pid"):
        assert loaded(f"import {module}", ("fusionpid.dataset", "fusionpid.label_space", "csv", "json")) == "[]"
