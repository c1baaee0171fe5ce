"""Every annotation under ``src/repro/`` must actually resolve.

``from __future__ import annotations`` (used throughout the codebase)
defers annotation evaluation, so a missing import — ``Optional[int]``
with ``Optional`` never imported — survives the import of the module,
the full test suite, and deployment, then explodes the first time
anything calls :func:`typing.get_type_hints` (dataclass introspection,
schema generation, debugging tooling).  That exact bug shipped in
``repro.pdns.abuse``; this test makes the whole class impossible.  It
sweeps every class and function each module defines, private ones
included, and every method, property, static method and class method
of those classes, dunders too.

Names imported only under ``if TYPE_CHECKING:`` (the sanctioned pattern
for breaking import cycles, e.g. ``DomainTracker`` in
``repro.runtime.checkpoint``) are resolved by executing those guarded
blocks into the namespace handed to ``get_type_hints`` — they *are*
importable, just not at module import time.
"""

import ast
import importlib
import inspect
import pkgutil
import typing

import pytest

import repro


def _module_names():
    return sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )


def _type_checking_namespace(module):
    """Names bound inside the module's ``if TYPE_CHECKING:`` blocks."""
    source_file = getattr(module, "__file__", None)
    if not source_file:
        return {}
    with open(source_file, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    guarded = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test = node.test
            name = (
                test.id
                if isinstance(test, ast.Name)
                else test.attr if isinstance(test, ast.Attribute) else None
            )
            if name == "TYPE_CHECKING":
                guarded.extend(
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, (ast.Import, ast.ImportFrom))
                )
    namespace = {}
    for stmt in guarded:
        block = ast.fix_missing_locations(ast.Module(body=[stmt], type_ignores=[]))
        exec(compile(block, source_file, "exec"), namespace)  # noqa: S102
    namespace.pop("__builtins__", None)
    return namespace


def _defined_objects(module):
    """``(label, object)`` for every class and function the module defines
    (not re-exports), then each class's own methods and properties."""
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for member_name, member in sorted(vars(obj).items()):
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{member_name}", member


@pytest.mark.parametrize("module_name", _module_names())
def test_public_annotations_resolve(module_name):
    module = importlib.import_module(module_name)
    localns = _type_checking_namespace(module)
    problems = []
    for label, target in _defined_objects(module):
        # a function's annotations were written against this module's
        # globals, including methods a NamedTuple or dataclass generated
        # in a namespace of their own
        globalns = vars(module) if inspect.isfunction(target) else None
        try:
            typing.get_type_hints(target, globalns=globalns, localns=localns)
        except Exception as error:  # noqa: BLE001 - collecting for report
            problems.append(f"{module_name}.{label}: {error!r}")
    assert not problems, "unresolvable annotations:\n" + "\n".join(problems)


def test_walk_covers_the_known_regression():
    """The module that shipped the Optional bug must be in the sweep."""
    assert "repro.pdns.abuse" in _module_names()
