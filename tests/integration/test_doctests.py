"""The docstring examples a reader copies first must run."""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.memory.controller


@pytest.mark.parametrize(
    "module", [repro, repro.memory.controller], ids=lambda m: m.__name__
)
def test_module_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
