"""One rule for every integer setting, ``errors.check_integer``, at each entry point.

An ``int`` or numpy integer at or above the setting's minimum is kept as a
plain ``int``; a ``bool``, a float, a string or a smaller integer is a
``ValueError`` naming the setting, never a ``TypeError`` from numpy.
"""

import json
import re

import numpy as np
import pytest

from opsig.clusterer import DistanceMatrix, dbscan, multi_round_cluster
from opsig.errors import check_integer
from opsig.evaluation import run_crossval, stratified_kfold
from opsig.ingest import OpcodeSequence
from opsig.signatures import Signature, build_database
from opsig.synthcorpus import (
    CorpusConfig,
    default_alphabet,
    generate_corpus,
    make_family_model,
    sample_sequence,
    write_corpus,
)


def _corpus():
    return [
        OpcodeSequence(f"{label}{i}", ops * (6 + i), label)
        for label, ops in (("famA", ("MOV", "PUSH")), ("benign", ("XOR", "NOP", "ADD")))
        for i in range(4)
    ]


_MATRIX = DistanceMatrix(
    ("a", "b", "c"), np.array([[0.0, 0.05, 0.5], [0.05, 0.0, 0.5], [0.5, 0.5, 0.0]])
)
_MODEL = make_family_model(default_alphabet(6), 1)
_GRAPH = build_database(_corpus(), retain_fraction=1.0).signatures[0].graph
_COUNTS = ("families", "subfamilies_per_family", "samples_per_subfamily",
           "benign_sources", "samples_per_benign_source", "alphabet_size")

# entry point -> (setting name in its messages, minimum, a call returning what it kept or computed)
ENTRY_POINTS = {
    "build_database.min_pts": (
        "min_pts", 1, lambda v: build_database(_corpus(), min_pts=v).metadata["min_pts"]
    ),
    "build_database.seed": (
        "seed", 0, lambda v: build_database(_corpus(), seed=v).metadata["seed"]
    ),
    "stratified_kfold.k": ("k", 2, lambda v: stratified_kfold(_corpus(), v, 1).k),
    "stratified_kfold.seed": ("seed", 0, lambda v: stratified_kfold(_corpus(), 2, v).seed),
    "run_crossval.k": ("k", 2, lambda v: run_crossval(_corpus(), v, 1).k),
    "dbscan.min_pts": ("min_pts", 1, lambda v: dbscan(_MATRIX, 0.1, v).tolist()),
    "multi_round_cluster.min_pts": (
        "min_pts", 1, lambda v: multi_round_cluster(_MATRIX, (0.1,), v)
    ),
    **{
        f"CorpusConfig.{name}": (name, 1, lambda v, n=name: getattr(CorpusConfig(**{n: v}), n))
        for name in _COUNTS
    },
    "CorpusConfig.seed": ("seed", 0, lambda v: CorpusConfig(seed=v).seed),
    "CorpusConfig.length_range.low": (
        "length_range low end", 2, lambda v: CorpusConfig(length_range=(v, 3000)).length_range[0]
    ),
    "CorpusConfig.length_range.high": (
        "length_range high end", 2, lambda v: CorpusConfig(length_range=(2, v)).length_range[1]
    ),
    "default_alphabet.size": ("alphabet size", 1, default_alphabet),
    "sample_sequence.length": ("length", 2, lambda v: sample_sequence(_MODEL, v, 1)),
    "Signature.member_count": (
        "member_count", 1, lambda v: Signature("famA/r1/0", "famA", _GRAPH, v, "r1").member_count
    ),
}

BELOW_MINIMUM = "below_minimum"


@pytest.mark.parametrize("make", [int, np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_at_or_above_minimum_kept_as_int(entry, offset, make):
    _, minimum, call = ENTRY_POINTS[entry]
    value = make(minimum + offset)
    kept = call(value)
    assert kept == call(minimum + offset)
    if isinstance(kept, (int, np.integer)):
        assert type(kept) is int


@pytest.mark.parametrize(
    "bad", [True, False, 2.0, 2.5, float("nan"), "3", BELOW_MINIMUM], ids=str
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_other_values_rejected_naming_the_setting(entry, bad):
    name, minimum, call = ENTRY_POINTS[entry]
    value = minimum - 1 if bad is BELOW_MINIMUM else bad
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (-1, "^seed must be >= 0, got -1$"),
        (1.0, r"^seed must be an integer, got 1\.0$"),
        (np.True_, r"^seed must be an integer, got (np\.)?True_?$"),  # numpy's bool
        (None, "^seed must be an integer, got None$"),
    ],
)
def test_check_integer_messages(value, message):
    with pytest.raises(ValueError, match=message):
        check_integer("seed", value, 0)


def test_numpy_seed_corpus_writes_as_the_int_seed(tmp_path):
    """A numpy seed used to generate a corpus whose manifest could not be written."""
    shape = dict(
        families=1, subfamilies_per_family=1, samples_per_subfamily=2, benign_sources=1,
        samples_per_benign_source=2, alphabet_size=6, length_range=(20, 30),
    )
    numpy_root = write_corpus(
        *generate_corpus(CorpusConfig(seed=np.int64(3), **shape)), tmp_path / "numpy"
    )
    int_root = write_corpus(*generate_corpus(CorpusConfig(seed=3, **shape)), tmp_path / "int")
    files = sorted(path.relative_to(int_root) for path in int_root.rglob("*") if path.is_file())
    assert files == sorted(p.relative_to(numpy_root) for p in numpy_root.rglob("*") if p.is_file())
    for name in files:
        assert (numpy_root / name).read_bytes() == (int_root / name).read_bytes()
    manifest = next(p for p in files if p.suffix == ".json")
    assert json.loads((int_root / manifest).read_text())["config"]["seed"] == 3
