"""opsig benchmark: the whole user path on one corpus-shape workload.

Run from the repository root; opsig is imported from ``./src``::

    python3 bench/run.py --workload default --seed 7 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 7

One pass ("cycle") of the user path is: ``train`` from the corpus on disk
(load_corpus, build_database, save_database), load the saved database,
classify single sample files (parse_sample_file, graph_for_sequence,
classify), classify every sample as one batch (count_bigrams, build_graph,
classify_batch at the library's default parallelism) and 5-fold
cross-validation. Set-up (import, generate_corpus, write_corpus) runs
SETUP_REPEATS times, one before each of the first cycles; cycles repeat while
another one fits in ``--seconds``. Each timing is the mean over the run (the
median for set-up; percentiles for single calls), divided by how much slower
than nominal the shared host ran during the run, which a fixed calibration
workload interleaved with opsig's operations measures (``Calibration``). The
times as measured, and the slowdown, are printed and saved beside them. The
load is a closed loop with one caller; the benchmark starts no threads of its
own.

Every timed prediction is checked against a naive oracle (``oracle.py``),
batch predictions against single-sample ones, and the database against a
save/load/save round trip. Any exception, failed batch slot or mismatch
counts as a failed operation and makes the run exit 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one set-up and one cycle run traced (``spans.py``) and the last
line reports per-module metrics. ``--workload all`` runs every workload in
its own child process. Result files, spans and the temporary corpus go under
``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from oracle import check_prediction
from spans import TRACED_FUNCTIONS, Tracer

OUT_DIR = Path(".bench_out")
SRC_DIR = Path("src")

# Each workload changes only these CorpusConfig fields; the seed comes from --seed.
WORKLOADS: dict[str, tuple[dict[str, object], str]] = {
    "default": (
        {},
        "The paper's desk-scale corpus (920 samples, V=40): per-item Python work "
        "in synth, ingest and bigram counting dominates, the distance kernel barely shows.",
    ),
    "wide": (
        {"alphabet_size": 200, "samples_per_subfamily": 10, "samples_per_benign_source": 3,
         "length_range": (2000, 3000)},
        "240 samples at V=200, long enough that every sub-family clusters whatever the seed: "
        "the dense VxV kernel, the classify thread pool and the JSON codec dominate.",
    ),
}

SETUP_REPEATS = 3
MIN_CYCLES = 2
SINGLE_CALLS = 120  # per cycle, so at least ten calls lie beyond p90
DB_LOADS = 16  # per cycle
CHUNKS = 2  # groups of short operations per cycle
ORACLE_BATCH_SAMPLES = 64  # batch slots checked against the oracle, per cycle
CROSSVAL_K = 5

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("db_load_s", "s"),
    ("classify_p50_ms", "ms"),
    ("classify_p90_ms", "ms"),
    ("batch_classify_per_s", "samples/s"),
    ("crossval_s", "s"),
    ("peak_rss_mb", "MB"),
    ("macro_tpr", "ratio"),
    ("binary_tpr", "ratio"),
    ("binary_tnr", "ratio"),
    ("success_rate", "ratio"),
)

# Counters recorded by hooks on wrapped calls, keyed by the function they hook.
HOOK_COUNTERS: dict[str, tuple[str, ...]] = {
    "ingest.parse_mnemonic_lines": ("ingest.opcodes",),
    "clusterer.compute_distance_matrix": ("clusterer.pairs", "clusterer.cells"),
    "clusterer.multi_round_cluster": ("clusterer.clustered_fraction",),
    "classifier.classify": ("classifier.cells_scored",),
    "classifier.classify_batch": ("classifier.cells_scored",),
    "evaluation.run_crossval": ("evaluation.folds",),
}

COUNT_METRICS: tuple[tuple[str, str], ...] = (
    ("ingest.opcodes", "count"),
    ("opgraph.vocab_size", "count"),
    ("opgraph.retained_bigrams", "count"),
    ("clusterer.pairs", "count"),
    ("clusterer.cells", "count"),
    ("clusterer.clustered_fraction", "ratio"),
    ("signatures.count", "count"),
    ("signatures.db_bytes", "bytes"),
    ("classifier.cells_scored", "count"),
    ("classifier.retained_cell_ratio", "ratio"),
    ("evaluation.folds", "count"),
    ("classifier.classify_batch.parallelism1_s", "s"),
    ("classifier.classify_batch.default_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    (f"{module}.{func}.{stat}", unit)
    for module, func in TRACED_FUNCTIONS
    for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
) + COUNT_METRICS


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _cells(db) -> int:
    return len(db.signatures) * db.vocabulary.size ** 2


def _count_distance_matrix(tracer, result, args, kwargs) -> None:
    graphs = _arg(args, kwargs, 0, "graphs")
    size = graphs[0][1].vocab.size
    pairs = len(result) * (len(result) - 1) // 2
    tracer.add("clusterer.pairs", pairs)
    tracer.add("clusterer.cells", pairs * size * size)


def _count_clusters(tracer, result, args, kwargs) -> None:
    tracer.add("clusterer.clustered_samples", result.sample_count - result.unclustered_count)
    tracer.add("clusterer.clustered_total", result.sample_count)


HOOKS = {
    "ingest.parse_mnemonic_lines": lambda t, r, a, k: t.add("ingest.opcodes", len(r)),
    "clusterer.compute_distance_matrix": _count_distance_matrix,
    "clusterer.multi_round_cluster": _count_clusters,
    "classifier.classify": lambda t, r, a, k: t.add(
        "classifier.cells_scored", _cells(_arg(a, k, 1, "db"))),
    "classifier.classify_batch": lambda t, r, a, k: t.add(
        "classifier.cells_scored", len(_arg(a, k, 0, "samples")) * _cells(_arg(a, k, 1, "db"))),
    "evaluation.run_crossval": lambda t, r, a, k: t.add("evaluation.folds", r.k),
}


class Tally:
    """Attempted and failed operations, with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)


@dataclass
class Workload:
    """Inputs shared by every cycle of one run."""

    name: str
    seed: int
    corpus_dir: Path
    work_dir: Path
    samples: list = field(default_factory=list)
    by_id: dict = field(default_factory=dict)
    single_ids: list[str] = field(default_factory=list)
    oracle_slots: list[int] = field(default_factory=list)

    def sample_path(self, sample_id: str) -> Path:
        return self.corpus_dir / self.by_id[sample_id].label / f"{sample_id}.ops"


def import_opsig() -> float:
    """Import opsig from ./src and return the seconds the import took."""
    src = SRC_DIR.resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import opsig  # noqa: F401  (timed import)

    elapsed = time.perf_counter() - start
    if src not in Path(opsig.__file__).resolve().parents:
        raise SystemExit(f"opsig was imported from {opsig.__file__}, not from {src}")
    return elapsed


def corpus_config(name: str, seed: int, scale: float = 1.0):
    """The workload's CorpusConfig; ``scale`` < 1 shrinks sample counts for self-tests."""
    from opsig import synthcorpus

    fields, _ = WORKLOADS[name]
    config = replace(synthcorpus.CorpusConfig(), seed=seed, **fields)
    if scale != 1.0:
        config = replace(
            config,
            samples_per_subfamily=max(CROSSVAL_K, round(config.samples_per_subfamily * scale)),
            samples_per_benign_source=max(1, round(config.samples_per_benign_source * scale)),
        )
    return config


def set_up(config, corpus_dir: Path) -> list:
    """Generate the corpus and write it to disk (the ``opsig synth`` path)."""
    from opsig import synthcorpus

    shutil.rmtree(corpus_dir, ignore_errors=True)
    samples, manifest = synthcorpus.generate_corpus(config)
    synthcorpus.write_corpus(samples, manifest, corpus_dir)
    return samples


def prepare(work: Workload, samples: list, single_calls: int) -> None:
    """Fix the sample sets for single calls and batch oracle checks from the seed.

    Single calls take one random sample from each of ``single_calls`` equal
    strata of the samples sorted by length, so that the latency percentiles
    do not depend on how long the seed's picks happen to be.
    """
    if len(samples) < single_calls:
        raise ValueError(f"{single_calls} single calls need as many samples, got {len(samples)}")
    rng = np.random.default_rng(work.seed)
    work.samples = samples
    work.by_id = {s.sample_id: s for s in samples}
    by_length = sorted(samples, key=len)
    strata = np.array_split(np.arange(len(samples)), single_calls)
    work.single_ids = [by_length[int(rng.choice(stratum))].sample_id for stratum in strata]
    slots = rng.choice(len(samples), size=min(ORACLE_BATCH_SAMPLES, len(samples)), replace=False)
    work.oracle_slots = sorted(int(i) for i in slots)


# Calibration work: string splitting, tuple counting, JSON decoding and dense
# array arithmetic, like opsig's own mix, but sharing no code with it.
_CALIBRATION_OPS = ("mov", "push", "call", "xor", "jmp", "pop", "add")
_CALIBRATION_LINES = [f"{i:08x}: {_CALIBRATION_OPS[i * 7 % 11 % 7]} eax, {i}" for i in range(4000)]
_CALIBRATION_DOC = json.dumps({"rows": [[i * 0.5, i % 7] for i in range(3000)]})
_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)


def calibration_work() -> int:
    ops = [line.split()[1] for line in _CALIBRATION_LINES]
    bigrams = Counter(zip(ops, ops[1:]))
    json.loads(_CALIBRATION_DOC)
    for _ in range(4):
        float(np.abs(_CALIBRATION_ARRAY - _CALIBRATION_ARRAY.T).sum())
    return len(bigrams)


# Seconds ``calibration_work`` takes at the host speed the timings are reported at.
CALIBRATION_NOMINAL_S = 0.005


class Calibration:
    """Times fixed work, independent of opsig, between the program's operations.

    Other tenants of a shared host slow every process on it by up to about 2x,
    in spells of a second to minutes, and the share of slow time differs from
    run to run by more than any change worth measuring. After each timed
    operation this runs ``calibration_work`` until it has spent SHARE of that
    operation's time, so its samples are spread over the run as the program's
    work is; their mean over CALIBRATION_NOMINAL_S is how slow the host was.
    """

    SHARE = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        self._owed += self.SHARE * seconds
        while self._owed > 0:
            start = time.perf_counter()
            calibration_work()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self._owed -= elapsed


def new_times() -> dict:
    """Per-operation timings of a run; single-call latencies are kept per sample id."""
    return {"train_s": [], "db_load_s": [], "batch_s": [], "crossval_s": [], "classify_ms": {}}


def _key(sample) -> tuple[str, str]:
    return (sample.label, sample.sample_id)


def run_cycle(work: Workload, times: dict, tally: Tally,
              tracer: Tracer | None = None, calibration: Calibration | None = None) -> dict:
    """One pass of the user path; appends timings and returns outputs to compare.

    The short operations (database loads, single-sample calls, batch) run as
    CHUNKS groups, one after train and one after cross-validation, so that
    their timings sample the whole cycle instead of one stretch of it.
    """
    from opsig import classifier, evaluation, ingest, opgraph, signatures
    from opsig.errors import OpsigError

    stage = tracer.span if tracer is not None else (lambda name: nullcontext())
    db_path = work.work_dir / "model.sigdb.json"
    copy_path = work.work_dir / "resaved.sigdb.json"
    clock = time.perf_counter
    singles, batches = [], []

    def record(key: str, start: float, sample_id: str | None = None) -> None:
        elapsed = clock() - start
        if sample_id is None:
            times[key].append(elapsed)
        else:
            times[key].setdefault(sample_id, []).append(elapsed * 1e3)
        if calibration is not None:
            calibration.after(elapsed)

    def short_operations(chunk: int) -> None:
        with stage("bench.db_load"):
            for _ in range(DB_LOADS // CHUNKS):
                gc.collect()
                tally.attempt()
                start = clock()
                loaded = signatures.load_database(db_path)
                record("db_load_s", start)
                if loaded != db:
                    tally.fail("load_database differs from the trained database")
        gc.collect()
        with stage("bench.classify_single"):
            for sample_id in work.single_ids[chunk::CHUNKS]:
                path = work.sample_path(sample_id)
                tally.attempt()
                start = clock()
                seq = ingest.parse_sample_file(path)
                graph, _ = opgraph.graph_for_sequence(seq, loaded.vocabulary)
                prediction = classifier.classify(graph, loaded, seq.sample_id)
                record("classify_ms", start, sample_id)
                singles.append(prediction)
        gc.collect()
        tally.attempt(len(work.samples))
        with stage("bench.classify_batch"):
            start = clock()
            items = [
                (s.sample_id, opgraph.build_graph(opgraph.count_bigrams(s), loaded.vocabulary)[0])
                for s in work.samples
            ]
            batches.append(classifier.classify_batch(items, loaded))
            record("batch_s", start)

    gc.collect()
    tally.attempt()
    with stage("bench.train"):
        start = clock()
        corpus = ingest.load_corpus(work.corpus_dir)
        db = signatures.build_database(corpus)
        signatures.save_database(db, db_path)
        record("train_s", start)
    db_bytes = db_path.read_bytes()
    if sorted(corpus, key=_key) != sorted(work.samples, key=_key):
        tally.fail("load_corpus does not return the generated samples")
    resaved = signatures.load_database(db_path)
    signatures.save_database(resaved, copy_path)
    if copy_path.read_bytes() != db_bytes or resaved != db:
        tally.fail("save -> load -> save is not byte-identical")
    short_operations(0)

    gc.collect()
    tally.attempt()
    with stage("bench.crossval"):
        start = clock()
        crossval = evaluation.run_crossval(work.samples, k=CROSSVAL_K, seed=work.seed)
        record("crossval_s", start)
    short_operations(1)

    if crossval.multiclass.total != len(work.samples):
        tally.fail(f"cross-validation tested {crossval.multiclass.total} of {len(work.samples)}")
    for prediction in singles:
        mismatch = check_prediction(prediction, work.by_id[prediction.sample_id].opcodes, db)
        if mismatch:
            tally.fail(f"single classify: {mismatch}")
    batch = batches[0]
    if any(other != batch for other in batches[1:]):
        tally.fail("repeated batches differ")
    by_id = {}
    for slot, (sample, result) in enumerate(zip(work.samples, batch)):
        if isinstance(result, OpsigError) or result.sample_id != sample.sample_id:
            tally.fail(f"batch slot {slot} ({sample.sample_id}): {result!r}")
        else:
            by_id[sample.sample_id] = result
    for slot in work.oracle_slots:
        result = by_id.get(work.samples[slot].sample_id)
        mismatch = result and check_prediction(result, work.samples[slot].opcodes, db)
        if mismatch:
            tally.fail(f"batch classify: {mismatch}")
    for prediction in singles:
        if by_id.get(prediction.sample_id, prediction) != prediction:
            tally.fail(f"batch and single predictions differ for {prediction.sample_id}")

    return {
        "db": db,
        "db_bytes": db_bytes,
        "crossval": crossval,
        "outputs": (
            hashlib.sha256(db_bytes).hexdigest(),
            [p.to_json_dict() for p in singles],
            [p.to_json_dict() if not isinstance(p, Exception) else repr(p) for p in batch],
            crossval.multiclass.to_csv(),
            crossval.binary.to_csv(),
        ),
    }


def quality_block(crossval) -> dict:
    """Seed-level quality: both confusion matrices and the headline rates."""
    return {
        "multiclass_labels": list(crossval.multiclass.labels),
        "multiclass_counts": crossval.multiclass.counts.tolist(),
        "binary_labels": list(crossval.binary.labels),
        "binary_counts": crossval.binary.counts.tolist(),
        "per_class_tpr": crossval.metrics.per_class_tpr,
        "macro_tpr": crossval.metrics.macro_tpr,
        "binary_tpr": crossval.metrics.binary_tpr,
        "binary_fpr": crossval.metrics.binary_fpr,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the working directory's own .git, if it has one; no git process runs."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_context(name: str, seed: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(work: Workload, config, seconds: float, tally: Tally, import_s: float,
            single_calls: int = SINGLE_CALLS) -> tuple[dict, dict]:
    """Untraced run: one set-up before each of the first cycles, so that the machine's
    slow and fast spells spread over every metric, then cycles while one more fits
    in ``seconds``."""
    setups: list[float] = []
    times = new_times()
    cycles = 0
    cycle_s = 0.0  # duration of the last cycle, the forecast for the next one
    first: dict | None = None  # later cycles are compared with it and dropped
    calibration = Calibration()
    deadline = time.perf_counter() + seconds
    while (len(setups) < SETUP_REPEATS or cycles < MIN_CYCLES
           or time.perf_counter() + cycle_s <= deadline):
        if len(setups) < SETUP_REPEATS:
            gc.collect()
            tally.attempt()
            begin = time.perf_counter()
            samples = set_up(config, work.corpus_dir)
            setups.append(time.perf_counter() - begin)
            calibration.after(setups[-1])
            if not work.samples:
                prepare(work, samples, single_calls)
            elif samples != work.samples:
                tally.fail("generate_corpus is not deterministic for one seed")
        begin = time.perf_counter()
        result = run_cycle(work, times, tally, calibration=calibration)
        cycle_s = time.perf_counter() - begin
        cycles += 1
        if first is None:
            first = result
        elif result["outputs"] != first["outputs"]:
            tally.fail("repeated cycles gave different outputs")
        del result

    quality = quality_block(first["crossval"])
    # Means, not medians: the host flips between a fast and a slow state, and a
    # median jumps between the two with the share of each, where a mean moves
    # in step with the calibration's mean.
    p50, p90 = np.percentile(
        [ms for calls in times["classify_ms"].values() for ms in calls], [50, 90])
    measured = {
        "setup_s": import_s + statistics.median(setups),
        "train_s": statistics.fmean(times["train_s"]),
        "db_load_s": statistics.fmean(times["db_load_s"]),
        "classify_p50_ms": float(p50),
        "classify_p90_ms": float(p90),
        "batch_classify_per_s": len(work.samples) / statistics.fmean(times["batch_s"]),
        "crossval_s": statistics.fmean(times["crossval_s"]),
    }
    slowdown = statistics.fmean(calibration.samples) / CALIBRATION_NOMINAL_S
    values = {
        name: value * slowdown if name == "batch_classify_per_s" else value / slowdown
        for name, value in measured.items()
    }
    values.update({
        "peak_rss_mb": peak_rss_mb(),
        "macro_tpr": quality["macro_tpr"],
        "binary_tpr": quality["binary_tpr"],
        "binary_tnr": 1.0 - quality["binary_fpr"],
        "success_rate": 1.0 - tally.failed / max(1, tally.attempted),
    })
    details = {
        "quality": quality,
        "measured": measured,
        "host_slowdown": slowdown,
        "cycles": cycles,
        "single_calls": sum(len(calls) for calls in times["classify_ms"].values()),
        "single_samples": len(times["classify_ms"]),
        "calibration_s": calibration.samples,
        "import_s": import_s,
        "setup_runs_s": setups,
        "timings": times,
    }
    return values, details


def measure_traced(work: Workload, config, tally: Tally,
                   single_calls: int = SINGLE_CALLS) -> tuple[dict, dict]:
    """Traced run: one traced set-up, and one traced cycle between two untraced ones
    (the overhead compares it with their mean, so warm-up and drift cancel in
    part); per-layer metrics."""
    from opsig import classifier, opgraph

    tracer = Tracer(HOOKS)
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            samples = set_up(config, work.corpus_dir)
    finally:
        tracer.uninstall()
    prepare(work, samples, single_calls)
    times = new_times()

    start = time.perf_counter()
    plain = run_cycle(work, times, tally)
    plain_s = time.perf_counter() - start
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("bench.cycle"):
            traced = run_cycle(work, times, tally, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    run_cycle(work, times, tally)
    plain_s = (plain_s + time.perf_counter() - start) / 2
    if traced["outputs"] != plain["outputs"]:
        tally.fail("tracing changed the outputs")

    db = traced["db"]
    items = [
        (s.sample_id, opgraph.build_graph(opgraph.count_bigrams(s), db.vocabulary)[0])
        for s in work.samples
    ]
    batch_s = {}
    for label, parallelism in (("parallelism1_s", 1), ("default_s", None)):
        gc.collect()
        start = time.perf_counter()
        classifier.classify_batch(items, db, parallelism)
        batch_s[label] = time.perf_counter() - start

    values: dict[str, float | None] = {}
    summary = tracer.summary()
    for module, func in TRACED_FUNCTIONS:
        name = f"{module}.{func}"
        entry = None if name in tracer.absent else summary.get(name, {"calls": 0, "s": 0.0,
                                                                       "self_s": 0.0})
        for stat in ("calls", "s", "self_s"):
            values[f"{name}.{stat}"] = None if entry is None else entry[stat]
    counts = dict(tracer.counts)
    clustered_total = counts.pop("clusterer.clustered_total", 0)
    clustered = counts.pop("clusterer.clustered_samples", 0)
    if clustered_total:
        counts["clusterer.clustered_fraction"] = clustered / clustered_total
    vocab = db.vocabulary
    counts.update({
        "opgraph.vocab_size": vocab.size,
        "opgraph.retained_bigrams": len(vocab.retained_bigrams),
        "signatures.count": len(db.signatures),
        "signatures.db_bytes": len(traced["db_bytes"]),
        "classifier.retained_cell_ratio": len(vocab.retained_bigrams) / vocab.size ** 2,
        "classifier.classify_batch.parallelism1_s": batch_s["parallelism1_s"],
        "classifier.classify_batch.default_s": batch_s["default_s"],
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_ratio": (traced_s - plain_s) / plain_s,
    })
    lost = {c for fn, counters in HOOK_COUNTERS.items()
            if fn in tracer.absent or fn + ":hook" in tracer.absent for c in counters}
    for name, _ in COUNT_METRICS:
        values[name] = None if name in lost else counts.get(name)
    details = {
        "absent": sorted(tracer.absent),
        "untraced_cycle_s": plain_s,
        "traced_cycle_s": traced_s,
        "quality": quality_block(traced["crossval"]),
        "spans": tracer.span_records(),
    }
    return values, details


def _format(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its report and result line, return the exit code."""
    import_s = import_opsig()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    work = Workload(name, seed, work_dir / "corpus", work_dir)
    config = corpus_config(name, seed)
    tally = Tally()
    units = dict(PER_LAYER if trace else END_TO_END)
    try:
        if trace:
            values, details = measure_traced(work, config, tally)
        else:
            values, details = measure(work, config, seconds, tally, import_s)
    except Exception:  # a crash is one more failed operation; the run still reports
        traceback.print_exc()
        tally.fail("run aborted by an exception")
        values, details = {}, {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = tally.failed == 0 and bool(values)
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units if key in values}
    record = {
        "context": run_context(name, seed),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
        **details,
    }
    out_file = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{tally.failed} failed of {tally.attempted} attempted "
          f"(error_rate {tally.failed / max(1, tally.attempted):g}); details in {out_file}")
    for key, metric in metrics.items():
        print(f"  {key:45s} {_format(metric['value']):>12s} {metric['unit']}")
    if "measured" in details:
        print(f"  timings above are at nominal host speed; the host ran "
              f"{details['host_slowdown']:.3f}x slower than nominal, and measured:")
        for key, value in details["measured"].items():
            print(f"    {key:43s} {_format(value):>12s} {units[key]}")
    if "quality" in details:
        quality = details["quality"]
        print(f"  binary_fpr {quality['binary_fpr']:g}")
        for title in ("multiclass", "binary"):
            print(f"  {title} confusion (rows true, columns predicted: "
                  f"{' '.join(quality[title + '_labels'])})")
            for label, row in zip(quality[title + "_labels"], quality[title + "_counts"]):
                print(f"    {label:8s} {' '.join(f'{c:4d}' for c in row)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # One child process per workload, so each peak RSS covers that workload alone.
    codes = [
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        ).returncode
        for name in WORKLOADS
    ]
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
