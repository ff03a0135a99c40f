"""repro — reproduction of "Towards better entity resolution techniques
for Web document collections" (Yerva, Miklós, Aberer; ICDE 2010).

Quickstart — fit once on labels, predict on unlabeled pages::

    from repro import EntityResolver, ResolverConfig, www05_like

    dataset = www05_like(seed=1, pages_per_name=60)
    model = EntityResolver(ResolverConfig()).fit(dataset, training_seed=0)
    prediction = model.predict(dataset)        # labels never read
    print(model.evaluate(dataset).mean_report().fp)
    model.save("resolver.json")                # reuse without refitting

Both passes run over composable stage plans (:mod:`repro.pipeline`);
serve online single-page traffic with
:class:`~repro.pipeline.session.ResolutionSession` (models never
serialize an extraction pipeline — supply one for raw pages)::

    from repro import ResolutionSession

    pipeline = EntityResolver(ResolverConfig()).pipeline_for(dataset)
    session = ResolutionSession.open("resolver.json", pipeline=pipeline)
    pages = dataset.by_name("William Cohen").without_labels().pages
    assignments = session.resolve(list(pages))  # incremental, per request

See README.md for the fit → save → predict lifecycle, the stage/plan
API and the registry extension points.
"""

from repro.corpus import weps2_like, www05_like
from repro.core import EntityResolver, ResolverConfig, ResolverModel
from repro.pipeline import Pipeline, fit_plan, predict_plan
from repro.pipeline.session import ResolutionSession

__version__ = "1.2.0"

__all__ = [
    "EntityResolver",
    "Pipeline",
    "ResolutionSession",
    "ResolverConfig",
    "ResolverModel",
    "fit_plan",
    "predict_plan",
    "www05_like",
    "weps2_like",
    "__version__",
]
