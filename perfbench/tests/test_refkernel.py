import ast
import os

import refkernel

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reference_kernel_imports_nothing_from_the_program():
    with open(os.path.join(HERE, "refkernel.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "gc", "time"}


def test_reference_kernel_is_deterministic_and_restores_gc():
    import gc

    assert gc.isenabled()
    assert refkernel.run_reference() > 0.0
    assert gc.isenabled()
    assert refkernel._work() == refkernel.EXPECTED_TABLE_SIZE
