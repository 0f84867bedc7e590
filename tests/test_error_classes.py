"""The package keeps an exception class only where something tells it apart:
an ``except`` in the package names it, ``verify.EXIT_CODES`` maps it to an
exit code, or a documented contract names it.  Every other failure is a
``kind`` of one of these classes, and error rows print that kind."""

import ast
import importlib
import pathlib

import stargroup
from stargroup import verify

SRC = pathlib.Path(stargroup.__file__).parent

KEPT = {"StarError", "ShapeError", "ConsistencyError", "Invalid",
        "NotComparable", "SearchBudgetExceeded", "BudgetInvalid",
        "OracleError", "BudgetExceeded", "UnknownFamily", "UnknownStatement",
        "InputError"}
# A malformed argument is a ShapeError (test_contracts.py), a broken
# cross-check a ConsistencyError, and the oracle keeps its own errors.
DOCUMENTED = {"ShapeError", "ConsistencyError", "OracleError",
              "BudgetExceeded", "UnknownFamily", "UnknownStatement"}


def _modules():
    """(module, syntax tree) of each source file of the package."""
    for path in sorted(SRC.glob("*.py")):
        name = "stargroup" if path.stem == "__init__" else \
            f"stargroup.{path.stem}"
        yield importlib.import_module(name), ast.parse(path.read_text())


def _value(module, node):
    return eval(compile(ast.Expression(node), module.__file__, "eval"),
                vars(module))


def _own(cls):
    return isinstance(cls, type) and cls.__module__.startswith("stargroup")


def _classes():
    """The exception classes the package defines, by name."""
    out = {}
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    out[node.name] = cls
    return out


def _raised():
    """The class of each ``raise`` of a new error in the package, by site."""
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                yield (f"{module.__name__}:{node.lineno}",
                       _value(module, node.exc.func))


def _caught():
    """The classes an ``except`` in the package names, a tuple's each."""
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                value = _value(module, node.type)
                yield from value if isinstance(value, tuple) else (value,)


def test_the_package_defines_exactly_the_kept_classes():
    classes = _classes()
    assert set(classes) == KEPT
    assert all(issubclass(cls, (stargroup.core.StarError,
                                stargroup.oracle.OracleError))
               for name, cls in classes.items() if name != "InputError")


def test_every_raise_of_a_package_error_raises_a_kept_class():
    kept = set(_classes().values())
    sites = list(_raised())
    assert sites
    for site, cls in sites:
        assert not _own(cls) or cls in kept, site


def test_every_kept_class_is_told_apart():
    told = {cls.__name__ for cls in (*_caught(), *verify.EXIT_CODES)}
    for name in KEPT:
        assert name in told or name in DOCUMENTED, name
