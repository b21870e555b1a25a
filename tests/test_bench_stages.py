"""Every stage the benchmark traces must name a function that exists.

The benchmark wraps the functions listed in ``bench/spans.py`` and reports a
renamed one only as absent; this test fails instead.
"""

import functools
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import STAGES  # noqa: E402


@pytest.mark.parametrize("module, path", [s[1:] for s in STAGES],
                         ids=[s[0] for s in STAGES])
def test_stage_resolves(module, path):
    target = functools.reduce(getattr, path.split("."), importlib.import_module(module))
    assert callable(target)
