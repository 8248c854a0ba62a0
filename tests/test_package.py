import ast
import pathlib
import re
import sys

import oelab
from oelab import bsll, functional, groups, hyperbolicity

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


def test_readme_states_each_fixed_cap():
    # every README line naming a cap's constant states its current value
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    caps = {
        "DEFAULT_BALL_BUDGET": groups.DEFAULT_BALL_BUDGET,
        "DEFAULT_CARRY_BOUND": bsll.DEFAULT_CARRY_BOUND,
        "FOUR_POINT_MAX_CELLS": hyperbolicity.FOUR_POINT_MAX_CELLS,
        "DEFAULT_MATRIX_BUDGET_MB": hyperbolicity.DEFAULT_MATRIX_BUDGET_MB,
        "DEFAULT_PROFILE_BUDGET": functional.DEFAULT_PROFILE_BUDGET,
    }
    for name, value in caps.items():
        lines = [line for line in readme if f"`{name}`" in line]
        stated = re.compile(rf"(?<![\d,]){value:,}(?![\d,])")
        assert lines and all(stated.search(line) for line in lines), (name, lines)
