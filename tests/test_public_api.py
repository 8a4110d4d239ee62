"""Every name a module exports resolves: tools that walk ``__all__`` (the
benchmark's tracer among them) call ``getattr`` on each entry.  The README's
Library examples run as written."""

import importlib
import math
import re
from pathlib import Path

import pytest

MODULES = ("cli", "sds", "ssa", "stats", "plotting", "trajectory", "models", "kernels")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"dualsim.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def library_blocks() -> list[str]:
    """The Python code blocks of the README's Library section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_the_readme_library_blocks_run_as_written(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    shape, _, influx_death_mean = capsys.readouterr().out.splitlines()
    assert shape == "(50, 101, 2)"
    assert abs(float(influx_death_mean) - 20 * (1 - math.exp(-5))) < 1.0  # 200 replicates: sd about 0.3
