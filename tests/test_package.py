import ast
import pathlib
import sys

import oelab

_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "oelab"}


def test_modules_import_only_the_standard_library_and_numpy():
    # numpy is the one declared runtime dependency; scipy or networkx being
    # installed must not let an import of either slip into the package
    src = pathlib.Path(oelab.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [(path.name, n) for n in names if n.split(".")[0] not in _ALLOWED]
    assert not stray
