import ast
import importlib
import pkgutil
from pathlib import Path

import mubqpt


def test_export_lists_match_the_modules():
    # every __all__ entry exists, and the package imports only exported names,
    # so a deletion cannot leave a stale entry behind
    modules = {info.name: importlib.import_module(f"mubqpt.{info.name}")
               for info in pkgutil.iter_modules(mubqpt.__path__) if info.name != "__main__"}
    for name, mod in modules.items():
        for export in getattr(mod, "__all__", ()):
            assert hasattr(mod, export), f"mubqpt.{name}.__all__ names missing {export!r}"
    tree = ast.parse(Path(mubqpt.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = modules[node.module]
        exported = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        for alias in node.names:
            assert alias.name in exported, f"mubqpt imports {alias.name!r}, not in {node.module}"


def _module_names(tree) -> set:
    """The names a module's top-level statements bind, imports aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_private_name_is_used():
    # a private module-level name that no code in the package reads is dead
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(mubqpt.__file__).parent.glob("*.py")]
    private = {name for tree in trees for name in _module_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    assert private, "no private names found"
    assert sorted(private - loaded) == []
