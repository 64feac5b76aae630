"""Every name a package lists in ``__all__`` must resolve, so a deletion
cannot leave a stale re-export behind."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["diffsentry.ensembles", "diffsentry.wavegen"])
def test_star_import_resolves_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if name not in namespace] == []
