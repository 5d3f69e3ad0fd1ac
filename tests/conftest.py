"""Shared test settings.

Property tests run under one derandomized hypothesis profile: the examples
are fixed by the test function, so tier-1 is deterministic, and no example
database is written.  Each property test sets its own deadline.

The fixture `built_fractions` records every FareyFraction built while a
test runs.
"""

import sys

import pytest
from hypothesis import settings

from fareymaps.arith import FareyFraction, farey_fractions

settings.register_profile("tier1", derandomize=True, database=None, print_blob=False)
settings.load_profile("tier1")


@pytest.fixture
def built_fractions(monkeypatch):
    """The labels of the FareyFractions built during the test, in order:
    through the constructor's __post_init__, and through
    arith.farey_fractions, which skips it, in every fareymaps module that
    imports it."""
    built = []
    post_init = FareyFraction.__post_init__

    def counting(self):
        built.append(str(self))
        post_init(self)

    def counting_list(nums, dens, n):
        out = farey_fractions(nums, dens, n)
        built.extend(map(str, out))
        return out

    monkeypatch.setattr(FareyFraction, "__post_init__", counting)
    for name, module in list(sys.modules.items()):
        if (name == "fareymaps" or name.startswith("fareymaps.")) and (
                getattr(module, "farey_fractions", None) is farey_fractions):
            monkeypatch.setattr(module, "farey_fractions", counting_list)
    return built
