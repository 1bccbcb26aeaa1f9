"""Every call the benchmark tracer wraps must still exist in the package, so
renaming a traced function or method fails here and not only in a traced
benchmark run. The target table is read from perfbench and not changed."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import TARGETS  # noqa: E402


@pytest.mark.parametrize("module_name,owner_name,attr",
                         sorted({t[:3] for t in TARGETS}, key=str),
                         ids=lambda v: str(v))
def test_trace_target_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    else:
        # the tracer swaps the attribute in the class's own __dict__
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(attr)), f"{module_name}.{owner_name}.{attr}"
