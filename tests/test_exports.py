"""Every name a ``dbmlab`` module exports through ``__all__`` exists."""
import importlib

import pytest

MODULES = ("chainpoly", "cli", "finite_volume_lab", "ghquad", "machine",
           "rs_solver", "sk_chain_bound")


@pytest.mark.parametrize("name", ("dbmlab",) + tuple(f"dbmlab.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
