"""Unit tests of the scoring-backend contract and registry."""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.similarity.backends import (
    BACKENDS,
    NumpyBackend,
    PythonBackend,
    ScoringBackend,
    default_backend,
    register_backend,
    resolve_backend,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert "python" in BACKENDS
        assert "numpy" in BACKENDS
        assert isinstance(BACKENDS.get("python"), PythonBackend)
        assert isinstance(BACKENDS.get("numpy"), NumpyBackend)

    def test_resolve_by_name_instance_and_default(self):
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        instance = PythonBackend()
        assert resolve_backend(instance) is instance
        assert resolve_backend(None).name == default_backend()

    def test_unknown_backend_lists_known_values(self):
        with pytest.raises(ValueError, match="python"):
            resolve_backend("gpu")

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend() == "numpy"
        assert ResolverConfig().backend == "numpy"
        assert isinstance(resolve_backend(None), NumpyBackend)
        monkeypatch.delenv("REPRO_BACKEND")
        assert ResolverConfig().backend == "python"

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="scoring backend"):
            ResolverConfig(backend="fortran")

    def test_backend_is_a_runtime_knob_not_an_artifact_field(self):
        """Saved configs stay environment-independent: the fitting
        host's backend is never baked in, the loader's ambient default
        (or an explicit payload key) decides."""
        config = ResolverConfig(backend="numpy")
        payload = config.to_dict()
        assert "backend" not in payload
        assert ResolverConfig.from_dict(payload).backend == \
            default_backend()
        explicit = dict(payload, backend="numpy")
        assert ResolverConfig.from_dict(explicit).backend == "numpy"

    def test_register_custom_backend(self):
        class EchoBackend(ScoringBackend):
            name = "echo-test"

            def block_scores(self, ids, features, functions):
                return {function.name: {} for function in functions}

            def pair_scores(self, function, new, others):
                return [0.0 for _ in others]

        register_backend()(EchoBackend)
        try:
            assert isinstance(resolve_backend("echo-test"), EchoBackend)
            assert ResolverConfig(backend="echo-test").backend == "echo-test"
        finally:
            del BACKENDS._entries["echo-test"]


class TestMissingNumpyFallback:
    def test_degrades_to_scalar_backend_when_kernels_unavailable(
            self, monkeypatch):
        """A numpy-less host serving a backend="numpy" model must score
        through the scalar path (bit-identical), not crash."""
        from repro.corpus.datasets import www05_like
        from repro.core.resolver import EntityResolver

        collection = www05_like(seed=2, pages_per_name=6,
                                names=["William Cohen"])
        pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
        block = collection.collections[0]
        features = pipeline.extract_block(block)
        from repro.similarity.functions import default_functions

        backend = NumpyBackend()
        monkeypatch.setattr(NumpyBackend, "_kernels", lambda self: None)
        scores = backend.block_scores(block.page_ids(), features,
                                      default_functions())
        reference = PythonBackend().block_scores(block.page_ids(), features,
                                                 default_functions())
        assert scores == reference
        pages = list(features.values())
        assert backend.pair_scores(default_functions()[0], pages[0],
                                   pages[1:]) == \
            PythonBackend().pair_scores(default_functions()[0], pages[0],
                                        pages[1:])


class TestKernelDispatch:
    def test_string_functions_have_no_full_kernel_path(self):
        from repro.similarity import batch
        from repro.similarity.functions import function_by_name

        for name in ("F3", "F7"):
            assert batch.kernel_for(function_by_name(name)) is None
        f2 = batch.kernel_for(function_by_name("F2"))
        # F2's kernel reads the pages: no resident record keeps URLs.
        assert f2 is not None and f2.recorded is None

    def test_replaced_builtin_scorer_disables_kernel(self):
        from repro.similarity import batch
        from repro.similarity.base import SimilarityFunction

        impostor = SimilarityFunction(
            "F8", "TF-IDF vector", "cosine",
            lambda left, right: 0.5)
        assert batch.kernel_for(impostor) is None

    def test_custom_function_falls_back_to_scalar_sweep(self):
        from repro.corpus.datasets import www05_like
        from repro.core.resolver import EntityResolver
        from repro.similarity.base import SimilarityFunction

        collection = www05_like(seed=2, pages_per_name=6,
                                names=["William Cohen"])
        pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
        block = collection.collections[0]
        features = pipeline.extract_block(block)
        constant = SimilarityFunction("F_const", "nothing", "constant",
                                      lambda left, right: 0.25)
        scores = NumpyBackend().block_scores(block.page_ids(), features,
                                             [constant])
        n = len(block.pages)
        assert len(scores["F_const"]) == n * (n - 1) // 2
        assert set(scores["F_const"].values()) == {0.25}
