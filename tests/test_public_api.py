"""Every name a module exports resolves: tools that walk ``__all__`` (the
benchmark's tracer among them) call ``getattr`` on each entry."""

import importlib

import pytest

MODULES = ("cli", "sds", "ssa", "stats", "plotting", "trajectory", "models", "kernels")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"dualsim.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
