import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querycrew import gateway
from querycrew.catalog import ingest_catalog_descriptions
from querycrew.pipeline import PipelineConfig, build_embedder
from querycrew.context_store import (
    EMBED_CHUNK,
    ContextStoreError,
    HashingEmbedder,
    RemoteEmbedder,
    ContextStore,
    StoreItem,
    build_context_store,
    retrieve_context,
)


@pytest.fixture(scope="module")
def ingested_catalog(finance_db, finance_catalog):
    return ingest_catalog_descriptions(
        finance_catalog, finance_db.parent / "database_description"
    )


@pytest.fixture(scope="module")
def store(ingested_catalog):
    return build_context_store(ingested_catalog, HashingEmbedder())


class TestHashingEmbedder:
    def test_pure_function(self):
        emb = HashingEmbedder()
        a = emb.embed(["average salary"])
        b = emb.embed(["average salary"])
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        vecs = HashingEmbedder().embed(["alpha", "beta", "a much longer text here"])
        norms = np.linalg.norm(vecs, axis=1)
        assert np.allclose(norms, 1.0)

    def test_dimension(self):
        assert HashingEmbedder().embed(["x"]).shape == (1, 256)
        assert HashingEmbedder(dimension=64).embed(["x"]).shape == (1, 64)

    @pytest.mark.parametrize("dimension", [0, -3, float("nan")])
    @pytest.mark.parametrize("kind", ["local", "remote"])
    def test_dimension_below_one_rejected(self, kind, dimension):
        embedder = {"local": HashingEmbedder, "remote": RemoteEmbedder}[kind]
        args = {"local": (), "remote": ("http://x", "m")}[kind]
        with pytest.raises(ValueError, match="dimension"):
            embedder(*args, dimension=dimension)
        spec = {"kind": kind, "base_url": "http://x", "dimension": dimension}
        config = PipelineConfig.from_dict({**PipelineConfig().to_dict(), "embedder": spec})
        with pytest.raises(ValueError, match="dimension"):
            build_embedder(config)

    def test_empty_text_zero_vector(self):
        vec = HashingEmbedder().embed([""])[0]
        assert np.linalg.norm(vec) == 0.0

    def test_similar_strings_higher_cosine(self):
        emb = HashingEmbedder()
        vecs = emb.embed(["average salary", "average salaries", "fastest lap time"])
        close = float(vecs[0] @ vecs[1])
        far = float(vecs[0] @ vecs[2])
        assert close > far


class TestBuildStore:
    def test_item_count(self, ingested_catalog, store):
        expected = 0
        for t in ingested_catalog.tables:
            for c in t.columns:
                for fieldname in ("expanded_name", "column_description", "value_description"):
                    if getattr(c, fieldname):
                        expected += 1
        assert len(store) == expected
        assert expected > 0

    def test_empty_catalog_empty_store(self, finance_catalog):
        store = build_context_store(finance_catalog, HashingEmbedder())
        assert len(store) == 0

    def test_duplicate_text_distinct_doc_ids(self, ingested_catalog):
        catalog = ingest_catalog_descriptions(ingested_catalog, "/nonexistent")
        catalog.table("customers").column("Gender").column_description = "shared text"
        catalog.table("client").column("Gender").column_description = "shared text"
        store = build_context_store(catalog, HashingEmbedder())
        ids = [i.doc_id for i in store.items if i.text == "shared text"]
        assert len(ids) == 2
        assert len(set(ids)) == 2

    def test_embedder_failure_is_build_error(self, ingested_catalog):
        class Broken:
            dimension = 4

            def embed(self, texts):
                raise RuntimeError("offline")

        with pytest.raises(ContextStoreError):
            build_context_store(ingested_catalog, Broken())

    def test_doc_ids_unique(self, store):
        ids = [item.doc_id for item in store.items]
        assert len(ids) == len(set(ids))


class TestRetrieveContext:
    def test_k_zero(self, store):
        assert retrieve_context(store, "anything", 0) == []

    def test_self_similarity_first(self, store):
        target = store.items[0].text
        hits = retrieve_context(store, target, 3)
        assert hits[0].text == target
        assert hits[0].cosine == pytest.approx(1.0)

    def test_k_larger_than_store(self, store):
        hits = retrieve_context(store, "salary", len(store) + 50)
        assert len(hits) == len(store)

    def test_sorted_non_increasing(self, store):
        hits = retrieve_context(store, "average salary of the district", 10)
        cosines = [h.cosine for h in hits]
        assert cosines == sorted(cosines, reverse=True)

    def test_relevant_description_found(self, store):
        hits = retrieve_context(store, "average salary", 3)
        assert any(
            h.table == "district" and h.column == "A11" for h in hits
        )

    def test_stable_across_runs(self, store):
        a = retrieve_context(store, "currency of the customer", 5)
        b = retrieve_context(store, "currency of the customer", 5)
        assert [(h.doc_id, h.cosine) for h in a] == [(h.doc_id, h.cosine) for h in b]

    def test_identical_descriptions_in_doc_id_order(self):
        """Replicated descriptions tie exactly, so doc_id orders them."""
        embedder = HashingEmbedder()
        text = "the amount of the loan in the account's currency"
        items = [
            StoreItem(f"t{i}.amount.column_description", f"t{i}", "amount", "column_description", text)
            for i in reversed(range(7))
        ]
        store = ContextStore(items, embedder.embed([text] * 7), embedder)
        hits = retrieve_context(store, "loan amount of account", 7)
        assert [h.doc_id for h in hits] == [f"t{i}.amount.column_description" for i in range(7)]
        assert len({h.cosine for h in hits}) == 1


class _FixedQuery:
    """Embeds every text as [1.0], so a store of one-wide vectors scores each
    item with exactly its own vector entry."""

    kind = "fixed"
    dimension = 1

    def embed(self, texts):
        return np.ones((len(texts), 1))


def _scored_store(scores) -> ContextStore:
    items = [
        StoreItem(f"t.c{i:03d}.column_description", "t", f"c{i:03d}", "column_description", "x")
        for i in range(len(scores))
    ]
    # doc_ids run against store order, so ties must be broken by doc_id, not position
    return ContextStore(items[::-1], np.array(scores, dtype=float).reshape(-1, 1), _FixedQuery())


class TestTopKSelection:
    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]), max_size=40)
        | st.lists(st.floats(-1, 1), max_size=40),
        k=st.integers(0, 45),
    )
    def test_matches_full_sort(self, scores, k):
        store = _scored_store(scores)
        order = sorted(
            range(len(scores)), key=lambda i: (-store.vectors[i, 0], store.items[i].doc_id)
        )
        expected = [(store.items[i].doc_id, float(store.vectors[i, 0])) for i in order[:k]]
        hits = retrieve_context(store, "query", k)
        assert [(h.doc_id, h.cosine) for h in hits] == expected

    def test_nan_scores_rank_last(self):
        store = _scored_store([0.5, float("nan"), 1.0, float("nan"), 0.5])
        hits = retrieve_context(store, "query", 5)
        assert [h.cosine for h in hits][:3] == [1.0, 0.5, 0.5]
        assert all(np.isnan(h.cosine) for h in hits[3:])
        assert [h.doc_id for h in hits[3:]] == sorted(h.doc_id for h in hits[3:])
        assert len(retrieve_context(store, "query", 2)) == 2


class TestRemoteEmbedder:
    def test_posts_and_normalizes(self, monkeypatch):
        class FakeResponse:
            status_code = 200

            def json(self):
                return {
                    "data": [
                        {"embedding": [3.0, 4.0]},
                        {"embedding": [0.0, 2.0]},
                    ]
                }

        class FakeSession:
            def __init__(self):
                self.calls = []

            def post(self, url, json=None, headers=None, timeout=None):
                self.calls.append((url, json))
                return FakeResponse()

        session = FakeSession()
        emb = RemoteEmbedder(
            "http://localhost:9999/v1", "embed-model", dimension=2, session=session
        )
        vecs = emb.embed(["a", "b"])
        assert session.calls[0][0] == "http://localhost:9999/v1/embeddings"
        assert np.allclose(vecs[0], [0.6, 0.8])
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0)

    def test_non_200_raises(self):
        class FakeResponse:
            status_code = 503
            text = "overloaded"

        class FakeSession:
            posts = 0

            def post(self, *a, **k):
                self.posts += 1
                return FakeResponse()

        session = FakeSession()
        emb = RemoteEmbedder("http://x", "m", dimension=2, session=session)
        with pytest.raises(ContextStoreError):
            emb.embed(["a"])
        assert session.posts == 1

    def test_long_input_split_into_ordered_chunks(self):
        session = EchoSession()
        emb = RemoteEmbedder("http://x", "m", dimension=2, session=session)
        vecs = emb.embed([f"text {i}" for i in range(600)])
        assert len(session.inputs) > 1
        assert all(len(chunk) <= EMBED_CHUNK for chunk in session.inputs)
        assert [t for chunk in session.inputs for t in chunk] == [
            f"text {i}" for i in range(600)
        ]
        assert vecs.shape == (600, 2)
        # each row is the embedding of its own text
        assert np.allclose(vecs[:, 0], np.cos(np.arange(600)))

    def test_transport_failure_retried(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        session = EchoSession(fail_first=1)
        emb = RemoteEmbedder("http://x", "m", dimension=2, session=session)
        vecs = emb.embed([f"text {i}" for i in range(3)])
        assert vecs.shape == (3, 2)
        assert np.allclose(vecs[:, 0], np.cos(np.arange(3)))
        assert session.attempts == 2

    def test_transport_failure_exhausts_retries(self, monkeypatch):
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)
        session = EchoSession(fail_first=10)
        emb = RemoteEmbedder("http://x", "m", dimension=2, session=session)
        with pytest.raises(ContextStoreError):
            emb.embed(["a"])
        assert session.attempts == 1 + gateway.RETRIES
        assert waits == [gateway.BACKOFF_S * 2**i for i in range(gateway.RETRIES)]


class EchoSession:
    """Embeds "text <i>" as the unit vector at angle i; the first
    `fail_first` posts fail in transport."""

    def __init__(self, fail_first: int = 0):
        self.fail_first = fail_first
        self.attempts = 0
        self.inputs = []

    def post(self, url, json=None, headers=None, timeout=None):
        import requests

        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise requests.ConnectionError("connection reset")
        self.inputs.append(list(json["input"]))
        data = []
        for text in json["input"]:
            angle = int(text.split()[-1]) if text.split()[-1].isdigit() else 0
            data.append({"embedding": [np.cos(angle), np.sin(angle)]})

        class Response:
            status_code = 200

            def json(self):
                return {"data": data}

        return Response()
