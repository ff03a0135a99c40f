"""Unit tests of the scoring-backend contract and registry."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.config import ResolverConfig
from repro.graph.entity_graph import WeightedPairGraph
from repro.similarity.backends import (
    BACKENDS,
    NumpyBackend,
    PythonBackend,
    ScoringBackend,
    default_backend,
    resolve_backend,
)

SOURCE = Path(__file__).resolve().parents[2] / "src"


def block_scores(backend, ids, features, functions):
    """Every function's graph as ``{pair_key: score}``."""
    return {name: dict(graph.pairs()) for name, graph in
            backend.block_graphs(ids, features, functions).items()}


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
        assert ResolverConfig().backend == "numpy"  # numpy imports here

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

    def test_substituted_backend_is_a_config_value(self, monkeypatch):
        """A backend implementing only ``block_graphs`` (``rectangle``
        has its definition) is a valid config value once it sits in the
        registry — how tests substitute a fake."""
        class EchoBackend(ScoringBackend):
            name = "echo-test"

            def block_graphs(self, ids, features, functions, mask=None):
                return {function.name: WeightedPairGraph(ids)
                        for function in functions}

        monkeypatch.setitem(BACKENDS._entries, "echo-test", EchoBackend())
        assert isinstance(resolve_backend("echo-test"), EchoBackend)
        assert ResolverConfig(backend="echo-test").backend == "echo-test"


class TestMissingNumpyFallback:
    def test_default_is_python_where_numpy_does_not_import(self):
        """With numpy blocked, the ambient default is the ``python``
        backend, and a small fit + evaluate runs on it without the
        missing-numpy warning (that one is for an explicit ``numpy``).
        Extraction weighs a block past the TF-IDF block-pass threshold
        page by page there, to the block pass's floats."""
        from repro.core.resolver import EntityResolver
        from repro.corpus.datasets import www05_like
        from repro.extraction.tfidf import (BLOCK_PASS_MIN_DOCUMENTS,
                                            weighs_in_block)

        script = textwrap.dedent("""
            import sys
            import warnings
            sys.modules["numpy"] = None
            warnings.simplefilter("error", RuntimeWarning)
            from repro.core.config import ResolverConfig
            from repro.core.resolver import EntityResolver
            from repro.corpus.datasets import www05_like

            assert ResolverConfig().backend == "python"
            collection = www05_like(seed=2, pages_per_name=6,
                                    names=["William Cohen"])
            model = EntityResolver(ResolverConfig()).fit(collection)
            resolution = model.evaluate_collection(collection)
            assert model.fit_stats.backend == "python"
            assert resolution.stats.backend == "python"
            assert "numpy" not in [name for name, module
                                   in sys.modules.items() if module]
            print("ok")

            # A block past the block-pass threshold weighs page by page.
            from repro.extraction.tfidf import (BLOCK_PASS_MIN_DOCUMENTS,
                                                weighs_in_block)
            assert not weighs_in_block(BLOCK_PASS_MIN_DOCUMENTS)
            deep = www05_like(seed=3, pages_per_name=BLOCK_PASS_MIN_DOCUMENTS
                              + 2, names=["William Cohen"])
            pipeline = EntityResolver(ResolverConfig()).pipeline_for(deep)
            features = pipeline.extract_block(deep.collections[0])
            print(repr([(doc_id, list(page.tfidf.items()))
                        for doc_id, page in features.items()]))
        """)
        environment = {key: value for key, value in os.environ.items()
                       if key != "REPRO_BACKEND"}
        environment["PYTHONPATH"] = str(SOURCE)
        done = subprocess.run([sys.executable, "-c", script],
                              env=environment, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        status, per_page = done.stdout.strip().splitlines()
        assert status == "ok"
        deep = www05_like(seed=3, pages_per_name=BLOCK_PASS_MIN_DOCUMENTS + 2,
                          names=["William Cohen"])
        features = EntityResolver(ResolverConfig()).pipeline_for(
            deep).extract_block(deep.collections[0])
        assert weighs_in_block(len(features))
        assert per_page == repr([(doc_id, list(page.tfidf.items()))
                                 for doc_id, page in features.items()])

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
        scores = block_scores(backend, block.page_ids(), features,
                              default_functions())
        reference = block_scores(PythonBackend(), block.page_ids(), features,
                                 default_functions())
        assert scores == reference
        pages = list(features.values())
        for new in ([pages[0]], pages[:3]):
            assert backend.rectangle(default_functions(), pages[3:],
                                     new) == \
                PythonBackend().rectangle(default_functions(), pages[3:], new)


class TestKernelDispatch:
    def test_every_builtin_has_a_kernel(self):
        from repro.similarity import batch
        from repro.similarity.extended import full_battery

        for function in full_battery():
            kernel = batch.kernel_for(function)
            assert kernel is not None, function.name
            # The string kernels read the pages: no resident record
            # keeps URLs or names.
            assert (kernel.recorded is None) == (
                function.name in ("F2", "F3", "F7")), function.name

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
        scores = block_scores(NumpyBackend(), block.page_ids(), features,
                              [constant])
        n = len(block.pages)
        assert len(scores["F_const"]) == n * (n - 1) // 2
        assert set(scores["F_const"].values()) == {0.25}
