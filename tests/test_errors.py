"""One error type per kind of fault.

`mtpa.errors` defines six classes: the base, one for every rejected
input (with F's two failures below it), one for a failed numeric check
and one for a broken run invariant. Every `raise` in the package names
one of them, so a new check reuses a kind rather than adding a class.
"""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import mtpa
from mtpa import errors
from mtpa.errors import (BrokenRun, MtpaError, NoConvergence, NotIrreducible,
                         NotStochastic, ValidationError)

SRC = Path(mtpa.__file__).parent
# the lazy loader answers a missing attribute the way a module does
EXEMPT = {("__init__.py", "AttributeError")}


def test_errors_defines_the_six_classes():
    defined = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and value.__module__ == errors.__name__}
    assert defined == {"MtpaError", "ValidationError", "NotStochastic",
                       "NotIrreducible", "NoConvergence", "BrokenRun"}
    assert issubclass(NotStochastic, ValidationError)
    assert issubclass(NotIrreducible, ValidationError)
    for kind in (ValidationError, NoConvergence, BrokenRun):
        assert kind.__bases__ == (MtpaError,)


def raised_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_every_raise_names_an_mtpa_error():
    kinds = {"ValidationError", "NotStochastic", "NotIrreducible",
             "NoConvergence", "BrokenRun"}
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for name in raised_names(path):
            if (path.name, name) not in EXEMPT:
                assert name in kinds, f"{path.name} raises {name}"
                seen.add(name)
    assert seen == kinds
