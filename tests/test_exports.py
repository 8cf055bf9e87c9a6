"""Every name a ``dbmlab`` module exports through ``__all__`` exists, and
the package loads its finite-volume stack only on first use."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("chainpoly", "cli", "finite_volume_lab", "ghquad", "machine",
           "rs_solver", "sk_chain_bound")


@pytest.mark.parametrize("name", ("dbmlab",) + tuple(f"dbmlab.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_the_cli_import_leaves_the_finite_volume_stack_unloaded():
    # Only verify needs finite_volume_lab; the package loads it on first use.
    root = Path(__file__).resolve().parent.parent
    probe = ("import sys, dbmlab.cli; "
             "print('dbmlab.finite_volume_lab' in sys.modules); "
             "from dbmlab import finite_volume_lab; "
             "print(finite_volume_lab is sys.modules['dbmlab.finite_volume_lab'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
