"""The benchmark's traced layers name functions that exist in the engine.

``perfbench.spans.Tracer.installed`` skips a target whose attribute is
missing, so a renamed engine function would quietly report zero calls.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.harness import layer_targets  # noqa: E402


TARGETS = [(owner, attr) for _, owner, attr, _, _ in layer_targets()]


@pytest.mark.parametrize("owner, attribute", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_layer_target_exists(owner, attribute):
    assert attribute in vars(owner)
