"""The traced service benchmark wraps names that still exist.

``svcbench/spans.py`` swaps functions and methods of the program for timing
wrappers during a traced run, by name.  Installing its tracer here fails on
a renamed or deleted name, so such a refactor fails this suite instead of
the traced run; uninstalling must put every original object back.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "svcbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("svcbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_names_and_uninstall_restores_them():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        # (owner, attribute, the owner's own value before wrapping — None
        # when the attribute was inherited)
        wrapped = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert len(wrapped) > 20
    names = {(owner.__name__, attr) for owner, attr, _ in wrapped}
    assert ("FrontierCPLDS", "read") in names
    assert ("DynamicGraph", "filter_new_edges") in names
    for owner, attr, raw in wrapped:
        if raw is None:
            assert attr not in vars(owner), (owner, attr)
        else:
            assert vars(owner)[attr] is raw, (owner, attr)
