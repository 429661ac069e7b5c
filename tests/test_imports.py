"""Every test module imports.

The suite runs with --continue-on-collection-errors, so a test module that
stops importing (say, after a private helper it uses moved) would show
only as a collection error while its tests left the pass count.  Here each
such break is a named failure.
"""

import importlib
from pathlib import Path

import pytest

MODULES = sorted(p.stem for p in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    importlib.import_module(module)
