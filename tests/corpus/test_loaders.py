"""Serialization round-trip tests."""

import json
import re

import pytest

from repro.corpus.loaders import (
    iter_blocks_jsonl,
    load_collection,
    read_jsonl_header,
    save_blocks_jsonl,
    save_collection,
)


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_collection(small_dataset, path)
        loaded = load_collection(path)

        assert loaded.name == small_dataset.name
        assert loaded.metadata == small_dataset.metadata
        assert loaded.query_names() == small_dataset.query_names()
        original_pages = list(small_dataset.all_pages())
        loaded_pages = list(loaded.all_pages())
        assert loaded_pages == original_pages

    def test_round_trip_ground_truth(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_collection(small_dataset, path)
        loaded = load_collection(path)
        for block in small_dataset:
            assert (loaded.by_name(block.query_name).ground_truth()
                    == block.ground_truth())

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        with open(path, "w") as handle:
            json.dump({"format_version": 999, "name": "x", "collections": []},
                      handle)
        with pytest.raises(ValueError, match="format version"):
            load_collection(path)

    def test_rejects_missing_version(self, tmp_path):
        path = tmp_path / "bad.json"
        with open(path, "w") as handle:
            json.dump({"name": "x", "collections": []}, handle)
        with pytest.raises(ValueError, match="format version"):
            load_collection(path)

    def test_file_is_valid_json(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_collection(small_dataset, path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["format_version"] == 1
        assert len(payload["collections"]) == len(small_dataset)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.jsonl"
        written = save_blocks_jsonl(small_dataset.collections, path,
                                    name=small_dataset.name,
                                    metadata=small_dataset.metadata)
        assert written == len(list(small_dataset.all_pages()))
        loaded = load_collection(path)
        assert loaded.name == small_dataset.name
        assert loaded.metadata == small_dataset.metadata
        assert list(loaded.all_pages()) == list(small_dataset.all_pages())

    def test_streaming_reader_yields_blocks_in_order(self, small_dataset,
                                                     tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_blocks_jsonl(small_dataset.collections, path)
        streamed = list(iter_blocks_jsonl(path))
        assert [block.query_name for block in streamed] == \
            [block.query_name for block in small_dataset.collections]
        assert [block.pages for block in streamed] == \
            [block.pages for block in small_dataset.collections]

    def test_header_round_trips_metadata(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_blocks_jsonl(small_dataset.collections, path, name="named",
                          metadata={"seed": 3})
        header = read_jsonl_header(path)
        assert header["kind"] == "jsonl-blocks"
        assert header["name"] == "named"
        assert header["metadata"] == {"seed": 3}

    def test_writer_consumes_lazily(self, small_dataset, tmp_path):
        """The writer must not materialize the iterable — pull one block
        at a time so generator pipelines stay O(one block)."""
        pulled = []

        def blocks():
            for block in small_dataset.collections:
                pulled.append(block.query_name)
                yield block

        path = tmp_path / "dataset.jsonl"
        save_blocks_jsonl(blocks(), path)
        assert pulled == [b.query_name for b in small_dataset.collections]

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"format_version": 999,
                                     "kind": "jsonl-blocks",
                                     "name": "x"}) + "\n")
        with pytest.raises(ValueError, match="format version"):
            load_collection(path)
        with pytest.raises(ValueError, match="format version"):
            list(iter_blocks_jsonl(path))

    def test_rejects_non_jsonl_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            json.dump({"format_version": 1, "name": "x", "collections": []},
                      handle)
        with pytest.raises(ValueError, match="block-per-line"):
            read_jsonl_header(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="block-per-line"):
            read_jsonl_header(path)


class TestMalformedFiles:
    """A malformed corpus file fails with a ValueError naming the file."""

    @staticmethod
    def names(path, *parts):
        return re.escape(str(path)) + ".*" + ".*".join(
            re.escape(part) for part in parts)

    def test_truncated_json_names_the_path(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_collection(small_dataset, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ValueError, match=self.names(path)):
            load_collection(path)

    def test_non_utf8_bytes_name_the_path(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_bytes(b'{"format_version": 1, "name": "\xff\xfe"}')
        with pytest.raises(ValueError, match=self.names(path)):
            load_collection(path)

    @pytest.mark.parametrize("drop, add, problem", [
        ("url", None, "missing 1 required positional argument: 'url'"),
        (None, "author", "unexpected keyword argument 'author'"),
    ])
    def test_bad_page_key_names_path_block_and_field(
            self, small_dataset, tmp_path, drop, add, problem):
        path = tmp_path / "dataset.json"
        save_collection(small_dataset, path)
        payload = json.loads(path.read_text())
        page = payload["collections"][1]["pages"][2]
        if drop:
            del page[drop]
        if add:
            page[add] = "x"
        path.write_text(json.dumps(payload))
        block = small_dataset.collections[1].query_name
        with pytest.raises(ValueError, match=self.names(
                path, f"block {block!r}", "page 2", problem)):
            load_collection(path)

    def test_truncated_jsonl_line_names_path_and_line(self, small_dataset,
                                                      tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_blocks_jsonl(small_dataset.collections, path, name="x")
        lines = path.read_bytes().splitlines(keepends=True)
        # Header is line 1; truncate the second block, on line 3.
        lines[2] = lines[2][:50] + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=self.names(path, "line 3")):
            load_collection(path)
        blocks = iter_blocks_jsonl(path)
        next(blocks)
        with pytest.raises(ValueError, match=self.names(path, "line 3")):
            next(blocks)
