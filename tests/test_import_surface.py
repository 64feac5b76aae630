"""Every name a package lists in ``__all__`` must resolve, and every error
type must be named by a module besides ``errors``, so a deletion cannot
leave a stale re-export or an error type nothing raises behind."""

import importlib
import pathlib
import re

import pytest


@pytest.mark.parametrize("package", ["diffsentry.ensembles", "diffsentry.wavegen"])
def test_star_import_resolves_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if name not in namespace] == []


def test_every_error_type_is_named_outside_its_module():
    # a class in ``errors`` that no other module names is raised nowhere
    errors = importlib.import_module("diffsentry.errors")
    home = pathlib.Path(errors.__file__)
    text = "".join(p.read_text() for p in home.parent.rglob("*.py") if p != home)
    types = [name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.DiffsentryError)]
    assert types
    assert [name for name in types if not re.search(rf"\b{name}\b", text)] == []
