"""Every name a module of `src/mmulrv` or `tests` imports is used in it.

No linter runs with the suite, and a deletion can leave an import behind.
A module uses a name when the name appears in its code, or when its
`__all__` lists it (`conftest` re-exports helpers that way).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/mmulrv/*.py"), *ROOT.glob("tests/*.py")])


def _unused_imports(source):
    """The names that `source` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("import os\nimport sys as system\nfrom a.b import c, d\n"
              "from e import f\n__all__ = ['f']\nprint(system, d)\n")
    assert _unused_imports(source) == ["os", "c"]


def test_no_module_imports_a_name_it_never_uses():
    assert MODULES
    unused = {str(path.relative_to(ROOT)): names for path in MODULES
              if (names := _unused_imports(path.read_text()))}
    assert unused == {}
