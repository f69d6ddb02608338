import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cind"


def test_package_imports_only_the_standard_library():
    # cind stays pure standard library: every module it imports is either
    # in the standard library or cind itself
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for stmt in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                names = [stmt.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"cind"}]
    assert outside == []
