"""Run the doctest examples embedded in the public-API docstrings."""

import doctest

import pytest

import repro.arrays
import repro.core.cplds
import repro.exact.dynamic
import repro.exact.hindex
import repro.exact.peeling
import repro.extensions.orientation
import repro.extensions.vertex_updates
import repro.graph.dynamic_graph
import repro.lds.lds
import repro.lds.plds
import repro.unionfind.atomics
import repro.unionfind.concurrent
import repro.unionfind.sequential

MODULES = [
    repro.arrays,
    repro.core.cplds,
    repro.exact.dynamic,
    repro.exact.hindex,
    repro.exact.peeling,
    repro.extensions.orientation,
    repro.extensions.vertex_updates,
    repro.graph.dynamic_graph,
    repro.lds.lds,
    repro.lds.plds,
    repro.unionfind.atomics,
    repro.unionfind.concurrent,
    repro.unionfind.sequential,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, attempted = doctest.testmod(
        module, verbose=False, raise_on_error=False
    )[0], None
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
