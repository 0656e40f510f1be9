"""Artifact store: addressing, round-trips, corruption handling."""

import hashlib

from repro.pipeline import ArtifactStore, canonical_json, encode_artifact


FP = "abc123"


def put(store, name, key, result):
    return store.put(FP, name, key, encode_artifact(name, key, result).data)


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = {"top1": 0.17, "curve": [1, 2, 3]}
        path = put(store, "concentration", "k1", result)
        assert path.is_file()
        found = store.get(FP, "concentration", "k1")
        assert found.result == result
        assert found.data == path.read_bytes()
        assert (FP, "concentration", "k1") in store
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_layout_is_fingerprint_dir_then_task_key_file(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = put(store, "overlap", "deadbeef", {})
        assert path == tmp_path / FP / "overlap__deadbeef.json"

    def test_bytes_are_canonical_and_key_order_free(self, tmp_path):
        store = ArtifactStore(tmp_path)
        a = put(store, "t", "k", {"b": 1, "a": 2}).read_bytes()
        b = put(store, "t", "k", {"a": 2, "b": 1}).read_bytes()
        assert a == b == encode_artifact("t", "k", {"a": 2, "b": 1}).data

    def test_bytes_are_the_canonical_envelope(self):
        # The result is spliced into the envelope, not re-encoded with
        # it; the bytes must equal encoding the whole envelope.
        result = {"z": [1.5, None, "\u00e9"], "a": {"y": True}}
        envelope = {"version": 1, "task": "t\"x", "key": "k", "result": result}
        assert encode_artifact("t\"x", "k", result).data == (
            canonical_json(envelope) + "\n"
        ).encode("utf-8")

    def test_hit_digest_is_the_result_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = {"top1": 0.17}
        put(store, "t", "k1", result)
        assert store.get(FP, "t", "k1").digest == hashlib.sha256(
            canonical_json(result).encode("utf-8")
        ).hexdigest()[:16]


class TestMisses:
    def test_absent_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(FP, "concentration", "k1") is None
        assert store.stats.misses == 1

    def test_wrong_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        put(store, "t", "k1", {"x": 1})
        assert store.get(FP, "t", "other") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = put(store, "t", "k1", {"x": 1})
        path.write_text("{torn", encoding="utf-8")
        assert store.get(FP, "t", "k1") is None

    def test_envelope_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = put(store, "t", "k1", {"x": 1})
        # A file renamed to another task's address must not be served.
        other = store.path_for(FP, "stolen", "k1")
        path.rename(other)
        assert store.get(FP, "stolen", "k1") is None

    def test_non_canonical_envelope_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = put(store, "t", "k1", {"x": 1})
        path.write_text(
            '{"version": 1, "task": "t", "key": "k1", "result": {"x": 1}}\n',
            encoding="utf-8",
        )
        assert store.get(FP, "t", "k1") is None
        assert store.stats.misses == 1

    def test_no_tmp_droppings_after_put(self, tmp_path):
        store = ArtifactStore(tmp_path)
        put(store, "t", "k1", {"x": 1})
        leftovers = [p for p in (tmp_path / FP).iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []
