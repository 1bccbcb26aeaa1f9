"""Every kill point the engine declares is armed by some test, so a new or
renamed point fails here and cannot go untested. A test arms a point by
naming it in a string literal, as ``faults.arm`` or a parametrization does."""

import ast
import inspect
from pathlib import Path

import forge

SOURCES = Path(inspect.getfile(forge)).parent
TESTS = Path(__file__).parent


def _kill_points() -> set[str]:
    names = set()
    for path in SOURCES.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "kill_point":
                # a name worked out at run time could not be looked up below
                [arg] = node.args
                assert isinstance(arg, ast.Constant), f"{path}:{node.lineno}"
                names.add(arg.value)
    return names


def _test_strings() -> set[str]:
    strings = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return strings


def test_every_kill_point_is_armed_by_a_test():
    points = _kill_points()
    assert {"master.before_step", "log.after_snapshot_sync"} <= points
    assert sorted(points - _test_strings()) == []
