"""Every module of the package uses each name it imports."""

import ast
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


def test_unused_imports_sees_names_and_attribute_roots():
    source = "import numpy as np\nimport os.path\nfrom .info import Joint3, Extra\nx = np.log(os.path.sep)\nJoint3\n"
    assert unused_imports(source) == {"Extra"}


def test_package_top_level_holds_only_the_docstring_and_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [target.id for target in version.targets] == ["__version__"]
