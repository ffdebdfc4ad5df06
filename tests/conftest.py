"""Shared fixtures.  Expensive artifacts (world, corpus, trained encoders)
are session-scoped so the suite trains each of them once.

Observability state (the global metrics registry and tracer) is reset
before every test, so counter assertions are order-independent no matter
which tests — or session fixtures — ran first."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.datasets.em import products_em
from repro.datasets.world import make_world, world_corpus
from repro.embeddings import SkipGramModel, Vocab
from repro.foundation import FactStore, FoundationModel
from repro.matching.ditto import serialize_record
from repro.plm import MiniBert, MLMPretrainer


@pytest.fixture(scope="session")
def world():
    return make_world(seed=0, num_products=60, num_restaurants=50, num_papers=50)


@pytest.fixture(scope="session")
def corpus(world):
    return world_corpus(world, sentences_per_fact=1, seed=1)


@pytest.fixture(scope="session")
def em_products(world):
    return products_em(world, seed=1)


@pytest.fixture(scope="session")
def vocab(corpus, em_products):
    record_texts = [
        serialize_record(r)
        for r in em_products.source_a + em_products.source_b
    ]
    return Vocab(corpus + record_texts)


@pytest.fixture(scope="session")
def skipgram(vocab, corpus):
    model = SkipGramModel(vocab, dim=16, seed=0)
    model.train(corpus[:250], epochs=2)
    return model


@pytest.fixture(scope="session")
def fasttext(vocab, corpus, em_products):
    from repro.embeddings import FastTextModel

    record_texts = [
        r.value_text() for r in em_products.source_a + em_products.source_b
    ]
    model = FastTextModel(vocab, dim=16, seed=0)
    model.train(corpus[:150] + record_texts[:100], epochs=1)
    return model


@pytest.fixture(scope="session")
def pretrained_encoder(vocab, corpus, em_products):
    record_texts = [
        serialize_record(r)
        for r in em_products.source_a + em_products.source_b
    ]
    encoder = MiniBert(vocab, dim=32, num_layers=2, num_heads=2,
                       ff_dim=64, max_len=32, seed=0)
    MLMPretrainer(encoder, seed=0).train(corpus[:200] + record_texts[:100],
                                         steps=60, batch_size=16)
    return encoder


@pytest.fixture(scope="session")
def fact_store(world):
    return FactStore(world.facts())


@pytest.fixture(scope="session")
def foundation_model(fact_store):
    return FoundationModel(fact_store)


@pytest.fixture(autouse=True)
def _reset_obs(monkeypatch):
    """Fresh metrics and spans per test, with every trace recorded.

    The library samples one root in 32 by default; span-shape tests
    need every tree, so the suite pins rate 1 — on the global tracer and,
    through ``REPRO_OBS_SPANS``, on any tracer a test builds (tests that
    exercise sampling set their own rate) — and restores it afterwards.
    """
    from repro import resilience

    monkeypatch.setenv("REPRO_OBS_SPANS", "1")
    tracer = obs.get_tracer()
    rate = tracer.sample_rate
    tracer.sample_rate = 1.0
    obs.reset()
    resilience.reset()
    yield
    tracer.sample_rate = rate


@pytest.fixture
def rng():
    return np.random.default_rng(0)
