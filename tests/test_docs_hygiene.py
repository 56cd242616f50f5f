"""Documentation hygiene: every module and public class is documented, and
the metric catalog in docs/observability.md matches the registered metrics."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
from repro.runtime.supervisor import _SERVICE_COUNTER_FIELDS


def all_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return sorted(out)


MODULES = all_modules()


@pytest.mark.parametrize("name", MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"
    assert len(module.__doc__.strip()) > 40, f"{name} docstring too thin"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if getattr(attr, "__module__", None) != name:
            continue  # re-export; documented at its definition site
        if inspect.isclass(attr) or inspect.isfunction(attr):
            if not (attr.__doc__ and attr.__doc__.strip()):
                undocumented.append(attr_name)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_no_orphaned_bytecode_directories():
    """No source directory survives as a bytecode ghost.

    A directory under ``src`` whose only contents are ``__pycache__``
    is the fossil of a deleted package (stale ``.pyc`` files can even
    keep the dead package importable).  Every directory that holds a
    ``__pycache__`` must still hold at least one ``.py`` file.
    """
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    ghosts = [
        str(cache.parent.relative_to(src))
        for cache in src.rglob("__pycache__")
        if not any(cache.parent.glob("*.py"))
    ]
    assert not ghosts, f"orphaned __pycache__ remnants (delete them): {ghosts}"


def test_expected_package_layout():
    expected = {
        "repro.core", "repro.lds", "repro.graph", "repro.exact",
        "repro.unionfind", "repro.runtime", "repro.verify",
        "repro.workloads", "repro.harness", "repro.extensions",
    }
    packages = {m for m in MODULES if m.count(".") == 1}
    assert expected <= packages


# ----------------------------------------------------------------------
# The metric catalog in docs/observability.md names exactly the metrics
# registered under src/repro
# ----------------------------------------------------------------------
OBS_DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "observability.md"
SRC_DIR = pathlib.Path(repro.__file__).resolve().parent

#: A registry call that names a metric: ``.counter("name"``,
#: ``.inc(f"name_{x}"`` (the name may start on the next line).
_METRIC_CALL = re.compile(
    r"\.(?:counter|gauge|histogram|inc|set_gauge|observe)\(\s*f?\"([^\"]+)\""
)
_SPAN_CALL = re.compile(r"(?:_OBS|REGISTRY)\.span\(\s*\"([^\"]+)\"")


def _expand(name: str) -> set[str]:
    """One metric name, or the names a pattern row stands for.

    ``span_<name>_seconds`` (``span_{...}_seconds`` in code) expands over
    every span opened in ``src/repro``; ``service_<field>_total`` over the
    ``ServiceTelemetry`` counter fields.
    """
    pattern = re.sub(r"<[^>]*>|\{[^}]*\}", "*", name)
    if pattern == "span_*_seconds":
        spans = {
            span
            for path in SRC_DIR.rglob("*.py")
            for span in _SPAN_CALL.findall(path.read_text(encoding="utf-8"))
        }
        return {f"span_{span}_seconds" for span in spans}
    if pattern == "service_*_total":
        return {f"service_{field}_total" for field in _SERVICE_COUNTER_FIELDS}
    assert "*" not in pattern, f"unknown metric name pattern {name!r}"
    return {name}


def registered_metrics() -> set[str]:
    names: set[str] = set()
    for path in SRC_DIR.rglob("*.py"):
        for name in _METRIC_CALL.findall(path.read_text(encoding="utf-8")):
            names |= _expand(name)
    return names


def catalogued_metrics() -> set[str]:
    """First-column names of every ``| metric | ...`` table in the doc."""
    names: set[str] = set()
    in_table = False
    for line in OBS_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("| metric |"):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        if in_table and not line.startswith("|---"):
            for cell_name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                # Drop a label suffix such as ``{kernel=...}``.
                names |= _expand(re.sub(r"\{[^}]*\}$", "", cell_name))
    return names


def test_metric_catalog_matches_registered_metrics():
    registered = registered_metrics()
    catalogued = catalogued_metrics()
    assert registered, "found no metric registrations under src/repro"
    assert not registered - catalogued, (
        f"metrics missing from docs/observability.md: "
        f"{sorted(registered - catalogued)}"
    )
    assert not catalogued - registered, (
        f"docs/observability.md lists metrics nothing registers: "
        f"{sorted(catalogued - registered)}"
    )
