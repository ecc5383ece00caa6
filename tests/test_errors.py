"""The package raises only its own error classes.

Every `raise` in `src/zonecache` names a class of `errors` or re-raises
bare, so a caller that catches `SimError` sees every fault the package
raises, with the op index `harness.drive` adds. The one exception is a
config value parser, whose `ValueError` the config loader and the sweep
turn into `InvalidConfig`, as they do for `int` and `float`.
"""

import ast
import inspect
from pathlib import Path

from zonecache import errors

SRC = Path(errors.__file__).parent
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and issubclass(obj, errors.SimError)}
# (module, function) of each config value parser
VALUE_PARSERS = {("harness.py", "_parse_bool")}


def raises(tree):
    """Each `raise` in the tree, with the function that holds it."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Raise):
                yield child, function
            yield from walk(child, function)
    return walk(tree, None)


def raised_name(node):
    """`errors.X` or `X` of `raise errors.X(...)` or `raise X`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc)


def test_the_error_classes_are_the_ones_something_tells_apart():
    assert ERROR_CLASSES == {
        "SimError", "InvalidConfig", "ContractError", "ExperimentError",
        "InfeasibleRates", "NoWritableZone", "DeviceBusy", "GcStalled",
        "NothingToEvict"}


def test_every_raise_names_an_errors_class():
    strays = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node, function in raises(tree):
            if node.exc is None:
                continue  # a bare re-raise
            name = raised_name(node)
            if name.startswith("errors.") and name[7:] in ERROR_CLASSES:
                continue
            if (name == "ValueError"
                    and (path.name, function) in VALUE_PARSERS):
                continue
            strays.append(f"{path.name}:{node.lineno} raise {name}")
    assert strays == []
