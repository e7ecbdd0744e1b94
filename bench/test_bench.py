"""Self-test of the benchmark at a tiny corpus size.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
from oracle import check_prediction
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
TINY = 0.15  # share of each workload's samples per sub-family and benign source


@pytest.fixture(scope="module", autouse=True)
def opsig_from_src():
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)
        run.import_opsig()
        yield


def tiny_workload(name: str, tmp_path: Path, seed: int = 3) -> tuple[run.Workload, object]:
    work = run.Workload(name, seed, tmp_path / "corpus", tmp_path)
    return work, run.corpus_config(name, seed, scale=TINY)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, tmp_path):
    work, config = tiny_workload(name, tmp_path)
    tally = run.Tally()
    values, _ = run.measure(work, config, 0.0, tally, import_s=0.0, single_calls=20)
    units = dict(run.END_TO_END)
    for metric, unit in declared("end_to_end").items():
        assert units[metric] == unit
        assert isinstance(values[metric], float), metric
    values, details = run.measure_traced(work, config, tally, single_calls=20)
    units = dict(run.PER_LAYER)
    for metric, unit in declared("per_layer").items():
        assert units[metric] == unit
        assert values[metric] is not None, metric
    assert details["absent"] == []
    assert tally.failed == 0, tally.failures


def test_oracle_flags_swapped_prediction(tmp_path):
    from opsig import classifier, opgraph, signatures

    work, config = tiny_workload("default", tmp_path)
    samples = run.set_up(config, work.corpus_dir)
    db = signatures.build_database(samples)
    sample = samples[0]
    graph, _ = opgraph.graph_for_sequence(sample, db.vocabulary)
    prediction = classifier.classify(graph, db, sample.sample_id)
    assert check_prediction(prediction, sample.opcodes, db) is None

    other = next(s for s in db.signatures if s.class_label != prediction.predicted_label)
    swapped = dataclasses.replace(
        prediction, predicted_label=other.class_label, best_signature_id=other.signature_id
    )
    assert check_prediction(swapped, sample.opcodes, db) is not None
    relabelled = dataclasses.replace(prediction, predicted_label=other.class_label)
    assert check_prediction(relabelled, sample.opcodes, db) is not None


def test_tracing_leaves_outputs_unchanged(tmp_path):
    from opsig import classifier

    work, config = tiny_workload("default", tmp_path)
    run.prepare(work, run.set_up(config, work.corpus_dir), single_calls=20)
    times = run.new_times()
    tally = run.Tally()
    plain = run.run_cycle(work, times, tally)
    original = classifier.classify
    tracer = Tracer(run.HOOKS)
    tracer.install()
    try:
        traced = run.run_cycle(work, times, tally, tracer)
    finally:
        tracer.uninstall()
    assert classifier.classify is original
    assert traced["outputs"] == plain["outputs"]
    assert tally.failed == 0, tally.failures
    assert tracer.summary()["classifier.classify"]["calls"] == 20


def test_missing_function_is_reported_absent():
    tracer = Tracer()
    tracer.install([("clusterer", "no_such_function"), ("clusterer", "dbscan")])
    tracer.uninstall()
    assert tracer.absent == {"clusterer.no_such_function"}
