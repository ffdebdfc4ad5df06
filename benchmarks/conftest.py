"""Shared benchmark fixtures.

Benchmarks measure *experiments*, not micro-ops, so each experiment body
runs exactly once per bench (``benchmark.pedantic(..., rounds=1)``) and the
expensive shared artifacts — the world, corpora, trained embedders and the
pre-trained encoder — are built once per session here.

Every bench prints the table/series the corresponding DESIGN.md experiment
defines and asserts the qualitative *shape* the tutorial claims.

Each bench also emits a :class:`repro.obs.RunReport` JSON artifact — the
span tree and metric counters explaining *why* the timing came out the way
it did (prompt counts, cache behavior, per-operator latency).  Artifacts
land in ``benchmarks/_reports/`` by default; set ``REPRO_OBS_DIR`` to
redirect, or ``REPRO_OBS_DIR=0`` to disable.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs, resilience
from repro.datasets.em import papers_em, products_em, restaurants_em
from repro.datasets.world import make_world, world_corpus
from repro.embeddings import FastTextModel, SkipGramModel, Vocab
from repro.foundation import FactStore, FoundationModel
from repro.matching.ditto import serialize_record
from repro.plm import MiniBert, MLMPretrainer


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


#: Shared BENCH_*.json artifact schema, bumped on breaking changes.
#: v1: every artifact carries schema_version / bench / git_rev /
#: generated_at / environment, with bench-specific payload keys beside them.
BENCH_SCHEMA_VERSION = 1

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:  # noqa: BLE001 - the artifact degrades, the bench runs
        return "unknown"


def environment() -> dict:
    """The environment manifest stamped into every bench artifact."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def bench_artifact(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root in the shared schema.

    Every bench writer goes through here so ``benchmarks/summarize.py``
    (and any dashboard) can rely on one envelope: ``schema_version``,
    ``bench``, ``git_rev``, ``generated_at`` (UTC ISO-8601) and the
    ``environment`` manifest, with the bench-specific payload merged in.
    """
    artifact = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": name,
        "git_rev": git_rev(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment(),
        **payload,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    return path


def _report_dir() -> Path | None:
    configured = os.environ.get("REPRO_OBS_DIR", "")
    if configured in ("0", "off", "none"):
        return None
    if configured:
        return Path(configured)
    return Path(__file__).resolve().parent / "_reports"


@pytest.fixture(autouse=True)
def obs_run_report(request):
    """Reset observability state per bench and emit a RunReport artifact.

    The reset isolates each bench's counters from session-fixture setup and
    from earlier benches; the artifact preserves the explanatory trace next
    to the raw pytest-benchmark timing.  Every trace is recorded (sample
    rate 1, restored afterwards): a bench opens too few roots for the
    library's default sampling to keep a representative tree.
    """
    tracer = obs.get_tracer()
    rate = tracer.sample_rate
    tracer.sample_rate = 1.0
    obs.reset()
    resilience.reset()
    yield
    tracer.sample_rate = rate
    out_dir = _report_dir()
    if out_dir is None:
        return
    report = obs.RunReport.collect(request.node.name)
    if not report.spans and not report.metrics:
        return  # nothing instrumented ran; don't litter empty artifacts
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    report.save(out_dir / f"{safe}.json")
    if report.spans:
        # The same trees as a Perfetto-loadable Chrome trace, for timeline
        # inspection of what the bench actually did.
        report.save_trace(out_dir / f"{safe}.trace.json")


@pytest.fixture(scope="session")
def world():
    return make_world(seed=0, num_products=100, num_restaurants=80, num_papers=80)


@pytest.fixture(scope="session")
def corpus(world):
    return world_corpus(world, sentences_per_fact=1, seed=1)


@pytest.fixture(scope="session")
def fact_store(world):
    return FactStore(world.facts())


@pytest.fixture(scope="session")
def foundation_model(fact_store):
    return FoundationModel(fact_store)


@pytest.fixture(scope="session")
def em_by_domain(world):
    return {
        "products": products_em(world, seed=1),
        "restaurants": restaurants_em(world, seed=1),
        "papers": papers_em(world, seed=1),
    }


@pytest.fixture(scope="session")
def record_texts(em_by_domain):
    out = []
    for dataset in em_by_domain.values():
        out.extend(serialize_record(r) for r in dataset.source_a + dataset.source_b)
    return out


@pytest.fixture(scope="session")
def vocab(corpus, record_texts, world, em_by_domain):
    # Cover the unified-matching task texts too (schema synonyms like
    # "manufacturer" never occur in the world corpus).
    from repro.matching import unified_task_mixture

    mixture = unified_task_mixture(world, em_by_domain["products"],
                                   per_task=60, seed=0)
    task_texts = [f"{inst.task} {inst.left} {inst.right}" for inst in mixture]
    return Vocab(corpus + record_texts + task_texts)


@pytest.fixture(scope="session")
def fasttext(vocab, corpus, em_by_domain):
    value_texts = [
        r.value_text()
        for dataset in em_by_domain.values()
        for r in dataset.source_a + dataset.source_b
    ]
    model = FastTextModel(vocab, dim=24, seed=0)
    model.train(corpus[:300] + value_texts[:200], epochs=1)
    return model


@pytest.fixture(scope="session")
def skipgram(vocab, corpus, em_by_domain):
    value_texts = [
        r.value_text()
        for dataset in em_by_domain.values()
        for r in dataset.source_a + dataset.source_b
    ]
    model = SkipGramModel(vocab, dim=24, seed=0)
    model.train(corpus[:400] + value_texts[:200], epochs=2)
    return model


@pytest.fixture(scope="session")
def encoder_state(vocab, corpus, record_texts):
    """Pre-trained encoder weights, cloned per bench via fresh_encoder."""
    encoder = MiniBert(vocab, dim=32, num_layers=2, num_heads=2,
                       ff_dim=64, max_len=32, seed=0)
    MLMPretrainer(encoder, seed=0).train(
        corpus[:250] + record_texts[:250], steps=120, batch_size=16
    )
    return encoder.state_dict()


@pytest.fixture
def fresh_encoder(vocab, encoder_state):
    def make() -> MiniBert:
        encoder = MiniBert(vocab, dim=32, num_layers=2, num_heads=2,
                           ff_dim=64, max_len=32, seed=0)
        encoder.load_state_dict(encoder_state)
        return encoder
    return make


def split_labeled(labeled, n_train):
    train, test = labeled[:n_train], labeled[n_train:]
    return (
        [(a, b) for a, b, _l in train],
        np.array([l for *_x, l in train]),
        [(a, b) for a, b, _l in test],
        np.array([l for *_x, l in test]),
    )
