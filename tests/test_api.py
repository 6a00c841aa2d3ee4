import importlib
import inspect
import typing

import pytest

MODULES = ["cli", "density", "family", "modarith", "polyint", "predict",
           "sqsieve", "tate", "testfn"]


def _public_functions(mod):
    """The public functions of mod and the public methods of its public
    classes, each defined in mod."""
    for name, obj in vars(mod).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != mod.__name__):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, meth in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(meth):
                    yield f"{name}.{attr}", meth


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    # annotations are strings (from __future__ import annotations): each
    # must name something the module defines or imports at its top
    mod = importlib.import_module(f"lowlying.{name}")
    funcs = dict(_public_functions(mod))
    assert funcs
    unresolved = []
    for qual, fn in funcs.items():
        try:
            typing.get_type_hints(fn)
        except NameError as e:
            unresolved.append((qual, str(e)))
    assert unresolved == []
