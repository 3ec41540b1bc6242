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
