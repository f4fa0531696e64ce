"""Public API surface checks."""

import importlib
import inspect

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_version(self):
        assert repro.__version__

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.nn",
            "repro.data",
            "repro.augment",
            "repro.core",
            "repro.models",
            "repro.eval",
            "repro.experiments",
            "repro.obs",
        ):
            module = importlib.import_module(module_name)
            assert hasattr(module, "__all__"), module_name
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_public_classes_documented(self):
        """Every class reachable from the top level has a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_module_docstrings(self):
        for module_name in (
            "repro",
            "repro.nn.tensor",
            "repro.data.synthetic",
            "repro.augment.crop",
            "repro.core.contrastive",
            "repro.models.sasrec",
            "repro.eval.metrics",
            "repro.experiments.table2",
            "repro.obs.registry",
            "repro.obs.events",
            "repro.obs.profiling",
            "repro.obs.stats",
        ):
            module = importlib.import_module(module_name)
            assert module.__doc__, module_name
