"""Training and cross-validation do not depend on the order of the corpus.

Every class has two sub-families, so clustering numbers several groups per
class and a signature id would follow whichever group is clustered first.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from opsig.evaluation import run_crossval
from opsig.signatures import build_database, save_database
from opsig.synthcorpus import default_alphabet, make_family_model, sample_sequence


def subfamily_corpus():
    alphabet = default_alphabet(12)
    corpus = []
    for f, label in enumerate(("benign", "famA", "famB")):
        for sub in range(2):
            model = make_family_model(alphabet, [60, f, sub], family_label=label)
            for k in range(3):
                corpus.append(
                    sample_sequence(model, 300, [61, f, sub, k], f"{label}-{sub}{k}", label)
                )
    return corpus


CORPUS = subfamily_corpus()
EXPECTED_DB = build_database(CORPUS)
EXPECTED_CROSSVAL = run_crossval(CORPUS, k=3, seed=7)


def test_corpus_trains_several_signatures_per_class():
    assert all(len(sigs) == 2 for sigs in EXPECTED_DB.by_class().values())


@settings(max_examples=25, deadline=None)
@given(st.permutations(CORPUS))
def test_build_database_ignores_sample_order(shuffled):
    db = build_database(shuffled)
    assert db == EXPECTED_DB
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.sigdb.json", Path(tmp) / "b.sigdb.json"
        save_database(EXPECTED_DB, a)
        save_database(db, b)
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.permutations(CORPUS))
def test_run_crossval_ignores_corpus_order(shuffled):
    result = run_crossval(shuffled, k=3, seed=7)
    assert result.multiclass == EXPECTED_CROSSVAL.multiclass
    assert result.binary == EXPECTED_CROSSVAL.binary
    assert result.diagnostics == EXPECTED_CROSSVAL.diagnostics
