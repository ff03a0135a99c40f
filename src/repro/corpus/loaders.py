"""JSON serialization of document collections.

Generated corpora are cheap to rebuild from a seed, but persisting them lets
experiments pin an exact dataset (e.g. to share a run between the test suite
and the benchmark harness, or to inspect pages by hand).

Two on-disk formats:

* **Single JSON document** (:func:`save_collection` /
  :func:`load_collection`) — the whole collection in memory at once;
  right for paper-scale fixtures.
* **Block-per-line JSONL** (:func:`save_blocks_jsonl` /
  :func:`iter_blocks_jsonl`) — a header line followed by one name block
  per line.  Both writer and reader are streaming: peak memory is one
  block, so million-page corpora write and re-read without ever being
  materialized.  :func:`load_collection` dispatches on the ``.jsonl``
  suffix, so every CLI ``--in`` accepts either format.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.corpus.documents import DocumentCollection, NameCollection, WebPage

_FORMAT_VERSION = 1
_JSONL_KIND = "jsonl-blocks"


def save_collection(collection: DocumentCollection, path: str | Path) -> None:
    """Write ``collection`` to ``path`` as a single JSON document."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "name": collection.name,
        "metadata": collection.metadata,
        "collections": [_block_to_payload(block)
                        for block in collection.collections],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_collection(path: str | Path) -> DocumentCollection:
    """Read a collection written by either saver.

    ``.jsonl`` paths load (materialized) through the streaming reader;
    everything else is parsed as a single JSON document.

    Raises:
        ValueError: naming ``path`` (and for JSONL the line) when the
            file is not UTF-8 JSON (e.g. truncated) or a page record
            lacks a field or carries an unknown one; also when the file
            was written by an incompatible version.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        header = read_jsonl_header(path)
        return DocumentCollection(
            name=header.get("name", "synthetic"),
            collections=list(iter_blocks_jsonl(path)),
            metadata=header.get("metadata", {}),
        )
    with open(path, "rb") as handle:
        payload = _parse(handle.read(), path)
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported collection format version: {version!r}")
    collections = [_block_from_payload(block_data, path)
                   for block_data in payload["collections"]]
    return DocumentCollection(
        name=payload["name"],
        collections=collections,
        metadata=payload.get("metadata", {}),
    )


def save_blocks_jsonl(blocks: Iterable[NameCollection], path: str | Path,
                      name: str = "synthetic",
                      metadata: dict | None = None) -> int:
    """Stream ``blocks`` to ``path`` as block-per-line JSONL.

    Consumes the iterable lazily — pair it with
    ``CorpusGenerator.iter_blocks`` and a million-page corpus reaches
    disk in O(one block) memory.  Returns the number of pages written.
    """
    pages_written = 0
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "format_version": _FORMAT_VERSION,
            "kind": _JSONL_KIND,
            "name": name,
            "metadata": metadata or {},
        }
        handle.write(json.dumps(header) + "\n")
        for block in blocks:
            handle.write(json.dumps(_block_to_payload(block)) + "\n")
            pages_written += len(block.pages)
    return pages_written


def read_jsonl_header(path: str | Path) -> dict:
    """Parse and validate the header line of a JSONL collection file."""
    with open(path, "rb") as handle:
        return _jsonl_header(handle.readline(), path)


def iter_blocks_jsonl(path: str | Path) -> Iterator[NameCollection]:
    """Yield the blocks of a JSONL collection lazily, in file order.

    Raises:
        ValueError: as :func:`load_collection`, naming the 1-based line.
    """
    with open(path, "rb") as handle:
        _jsonl_header(handle.readline(), path)
        for number, line in enumerate(handle, start=2):
            if line.strip():
                where = f"{path}, line {number}"
                yield _block_from_payload(_parse(line, where), where)


def _parse(raw: bytes, where) -> object:
    """``raw`` as UTF-8 JSON; a ``ValueError`` naming ``where`` if not."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(
            f"{where}: not a readable collection file ({error})") from None


def _jsonl_header(first: bytes, path) -> dict:
    try:
        header = json.loads(first.decode("utf-8")) if first.strip() else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = {}
    if not isinstance(header, dict) or header.get("kind") != _JSONL_KIND:
        raise ValueError(f"{path} is not a block-per-line JSONL collection")
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported collection format version: {version!r}")
    return header


def _block_to_payload(block: NameCollection) -> dict:
    return {
        "query_name": block.query_name,
        "pages": [
            {
                "doc_id": page.doc_id,
                "query_name": page.query_name,
                "url": page.url,
                "title": page.title,
                "text": page.text,
                "person_id": page.person_id,
            }
            for page in block.pages
        ],
    }


def _block_from_payload(block_data: dict, where) -> NameCollection:
    query_name = block_data["query_name"]
    pages = []
    for index, page_data in enumerate(block_data["pages"]):
        try:
            pages.append(WebPage(**page_data))
        except TypeError as error:  # a missing or unknown page field
            raise ValueError(f"{where}: block {query_name!r}, page {index}: "
                             f"{error}") from None
    return NameCollection(query_name=query_name, pages=pages)
