"""API quality gates: public surface is documented and importable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.indexes",
    "repro.algorithms",
    "repro.clustering",
    "repro.matchers",
    "repro.obs",
    "repro.cache",
    "repro.workload",
    "repro.system",
    "repro.lang",
    "repro.sqltrigger",
    "repro.analysis",
    "repro.bench",
]


def public_modules():
    """Every repro module (recursively), import-checked.

    ``repro.__main__`` is excluded: importing it runs the CLI.
    """
    out = []
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.endswith("__main__"):
            continue
        out.append(modinfo.name)
    return out


class TestImportability:
    @pytest.mark.parametrize("name", public_modules())
    def test_every_module_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        exported = getattr(mod, "__all__", [])
        for name in exported:
            assert hasattr(mod, name), f"{package}.__all__ lists missing {name!r}"

    def test_top_level_all_sorted_unique(self):
        names = [n for n in repro.__all__]
        assert len(names) == len(set(names))


class TestDocstrings:
    @pytest.mark.parametrize("name", public_modules())
    def test_module_docstrings(self, name):
        mod = importlib.import_module(name)
        assert inspect.getdoc(mod), f"{name} lacks a module docstring"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_exported_objects_documented(self, package):
        mod = importlib.import_module(package)
        undocumented = []
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, f"{package}: undocumented exports {undocumented}"

    def test_public_methods_of_core_classes_documented(self):
        from repro.core import BitVector, Event, Matcher, Predicate, Subscription
        from repro.matchers import DynamicMatcher, StaticMatcher

        undocumented = []
        for cls in (Predicate, Subscription, Event, BitVector, Matcher,
                    DynamicMatcher, StaticMatcher):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not inspect.getdoc(member):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, undocumented


class TestMatchSurface:
    def test_match_entry_points_are_exactly_match_and_match_batch(self):
        """One scalar entry point, one batch entry point — on the
        interface and on every engine and wrapper that implements it."""
        from repro.core import Matcher

        for name in public_modules():
            importlib.import_module(name)  # so __subclasses__ sees them all

        def matcher_classes(cls):
            yield cls
            for sub in cls.__subclasses__():
                yield from matcher_classes(sub)

        offenders = {}
        for cls in set(matcher_classes(Matcher)):
            surface = {
                name
                for name in dir(cls)
                if name.startswith("match") and callable(getattr(cls, name))
            }
            if surface != {"match", "match_batch"}:
                offenders[f"{cls.__module__}.{cls.__name__}"] = sorted(surface)
        assert not offenders, offenders
