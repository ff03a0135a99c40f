#!/usr/bin/env python
"""Fit on the head of the crawl, save — then serve online traffic.

Demonstrates the batch → online hand-off end to end:

1. **Fitting** — index only the head of the crawl: build a
   ``DocumentCollection`` of each name's first 40 pages and pass it to
   ``EntityResolver.fit``.  The collection pass blocks it, fits one task
   per block, and reports one ``RunStats`` record (``model.fit_stats``).
2. **Serving** — save the fitted model, reopen it in a (simulated)
   serving process via ``ResolutionSession.open``, warm the session
   with each name's initial crawl, and stream 100 simulated single-page
   requests through the bounded-LRU request path.

Run:
    python examples/pipeline_serving.py
"""

import tempfile
import time
from pathlib import Path

from repro import EntityResolver, ResolverConfig, www05_like
from repro.corpus.documents import DocumentCollection, NameCollection
from repro.pipeline import ResolutionSession

HEAD = 40          # pages per name the fitted index covers
REQUESTS = 100     # simulated single-page requests to serve


def main() -> None:
    dataset = www05_like(seed=1, pages_per_name=60)
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(dataset)

    print("=== 1. fit on the head of the crawl ===========================")
    head = DocumentCollection(
        name=f"{dataset.name}-head",
        collections=[NameCollection(query_name=block.query_name,
                                    pages=list(block.pages)[:HEAD])
                     for block in dataset],
        metadata=dict(dataset.metadata))
    model = EntityResolver(ResolverConfig()).fit(head, training_seed=0)
    print(f"fitted {len(model.blocks)} blocks on the first {HEAD} pages "
          f"of each name")
    print(model.fit_stats.summary())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        print(f"saved: {path.stat().st_size / 1024:.1f} KiB\n")

        print("=== 2. online serving session =============================")
        # The "serving process": load once, then handle request traffic.
        # Size the LRU to the hot-name working set: an evicted name drops
        # its in-memory entity index and rebuilds cold on next contact
        # (a production deployment would re-warm it from a page store).
        session = ResolutionSession.open(path, pipeline=pipeline,
                                         max_blocks=len(dataset))

        # Warm each name with its indexed head, then stream the tail
        # pages round-robin as single-page requests — the shape of live
        # traffic over an existing people-search index.
        streams = []
        for block in dataset:
            pages = list(block.pages)
            session.resolve(pages[:HEAD])
            streams.append(pages[HEAD:])

        served = 0
        new_entities = 0
        latencies = []
        position = 0
        while served < REQUESTS and any(streams):
            stream = streams[position % len(streams)]
            position += 1
            if not stream:
                continue
            page = stream.pop(0)
            started = time.perf_counter()
            assignment = session.resolve(page)[0]
            latencies.append(time.perf_counter() - started)
            new_entities += assignment.created_new_cluster
            served += 1

        mean_ms = sum(latencies) / len(latencies) * 1000
        worst_ms = max(latencies) * 1000
        print(f"served {served} single-page requests: "
              f"{new_entities} founded new entities, "
              f"{served - new_entities} joined existing ones")
        print(f"latency: mean {mean_ms:.2f}ms, max {worst_ms:.2f}ms "
              f"(incremental assignment — no quadratic re-resolution)")
        print(session.stats.summary())


if __name__ == "__main__":
    main()
