"""Every exported name resolves, so a half-finished removal fails here and
not only on ``from refscan.numerics import *``."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["refscan.numerics"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
