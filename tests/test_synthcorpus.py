import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.ingest import format_mnemonic_lines, load_corpus
from opsig.synthcorpus import (
    CorpusConfig,
    FamilyModel,
    default_alphabet,
    derive_subfamily,
    generate_corpus,
    make_family_model,
    sample_sequence,
    write_corpus,
)


def corpus_digest(config):
    """SHA-256 over a generated corpus as written, in generation order, then its manifest."""
    samples, manifest = generate_corpus(config)
    digest = hashlib.sha256()
    for seq in samples:
        digest.update(f"{seq.label}/{seq.sample_id}\n".encode())
        digest.update(format_mnemonic_lines(seq).encode())
    digest.update((json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())
    return digest.hexdigest()


class TestMakeFamilyModel:
    def test_rows_are_stochastic(self):
        alphabet = default_alphabet(24)
        for seed in range(10):
            model = make_family_model(alphabet, seed)
            assert np.all(np.abs(model.transition.sum(axis=1) - 1.0) < 1e-9)
            assert model.initial.sum() == pytest.approx(1.0, abs=1e-9)
            assert model.transition.min() >= 0.0

    def test_single_opcode_alphabet(self):
        model = make_family_model(("NOP",), 3)
        assert model.transition.tolist() == [[1.0]]
        assert model.initial.tolist() == [1.0]

    def test_deterministic_per_seed(self):
        alphabet = default_alphabet(12)
        a = make_family_model(alphabet, [5, 1])
        b = make_family_model(alphabet, [5, 1])
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.initial, b.initial)

    def test_different_seeds_differ(self):
        alphabet = default_alphabet(12)
        a = make_family_model(alphabet, 1)
        b = make_family_model(alphabet, 2)
        assert not np.array_equal(a.transition, b.transition)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            make_family_model((), 1)


class TestDeriveSubfamily:
    def test_zero_perturbation_is_identity(self):
        base = make_family_model(default_alphabet(10), 4)
        derived = derive_subfamily(base, 0.0, 99)
        np.testing.assert_array_equal(derived.transition, base.transition)
        np.testing.assert_array_equal(derived.initial, base.initial)

    def test_full_perturbation_ignores_base(self):
        alphabet = default_alphabet(10)
        base_a = make_family_model(alphabet, 1)
        base_b = make_family_model(alphabet, 2)
        da = derive_subfamily(base_a, 1.0, 50)
        db = derive_subfamily(base_b, 1.0, 50)
        np.testing.assert_array_equal(da.transition, db.transition)

    def test_mix_preserves_stochasticity(self):
        base = make_family_model(default_alphabet(15), 6)
        for rho in (0.1, 0.3, 0.7):
            derived = derive_subfamily(base, rho, 7)
            assert np.all(np.abs(derived.transition.sum(axis=1) - 1.0) < 1e-9)
            assert derived.initial.sum() == pytest.approx(1.0, abs=1e-9)

    def test_invalid_perturbation_rejected(self):
        base = make_family_model(default_alphabet(5), 1)
        with pytest.raises(ValueError):
            derive_subfamily(base, 1.5, 2)

    def test_separation_grows_with_perturbation(self):
        alphabet = default_alphabet(12)
        rhos = (0.0, 0.25, 0.5, 0.75, 1.0)
        means = []
        for rho in rhos:
            deltas = []
            for seed in range(100):
                base = make_family_model(alphabet, [seed, 0])
                derived = derive_subfamily(base, rho, [seed, 1])
                deltas.append(np.abs(base.transition - derived.transition).sum())
            means.append(np.mean(deltas))
        assert all(b >= a for a, b in zip(means, means[1:]))


def searchsorted_walk(model, length, seed):
    """Reference walk: one ``np.searchsorted`` per step, clamped to the last opcode."""
    draws = np.random.default_rng(np.random.SeedSequence([seed])).random(length)
    initial_cdf = np.cumsum(model.initial)
    transition_cdf = np.cumsum(model.transition, axis=1)
    top = len(model.alphabet) - 1
    state = min(int(np.searchsorted(initial_cdf, draws[0], side="right")), top)
    states = [state]
    for step in range(1, length):
        state = min(
            int(np.searchsorted(transition_cdf[state], draws[step], side="right")), top
        )
        states.append(state)
    return tuple(model.alphabet[s] for s in states)


# Row weights mix exact zeros, short rows (sums below 1, so draws land past
# the last CDF entry) and arbitrary magnitudes.
_WEIGHT = st.one_of(
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
)


def _row(size, normalize):
    def finish(weights):
        total = sum(weights)
        return [w / total for w in weights] if normalize and total > 0 else weights
    return st.lists(_WEIGHT, min_size=size, max_size=size).map(finish)


@st.composite
def family_models(draw):
    size = draw(st.integers(1, 6))
    normalize = draw(st.booleans())
    initial = draw(_row(size, normalize))
    transition = [draw(_row(size, normalize)) for _ in range(size)]
    alphabet = default_alphabet(size)
    return FamilyModel("f", "f", alphabet, np.array(initial), np.array(transition))


class TestSampleSequence:
    @settings(max_examples=200, deadline=None)
    @given(family_models(), st.integers(2, 300), st.integers(0, 2**32))
    def test_equals_searchsorted_walk(self, model, length, seed):
        assert sample_sequence(model, length, seed).opcodes == searchsorted_walk(
            model, length, seed
        )

    def test_short_row_clamps_to_last_opcode(self):
        model = FamilyModel(
            "f", "f", ("A", "B", "C"), np.array([0.5, 0.3, 0.0]),
            np.array([[0.5, 0.3, 0.0]] * 3),
        )
        seq = sample_sequence(model, 400, 1)
        assert seq.opcodes == searchsorted_walk(model, 400, 1)
        assert "C" in seq.opcodes

    def test_deterministic_chain_is_fully_determined(self):
        alphabet = ("A", "B", "C")
        transition = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
        ])
        initial = np.array([1.0, 0.0, 0.0])
        model = FamilyModel("f", "f", alphabet, initial, transition)
        seq = sample_sequence(model, 7, 123, sample_id="x")
        assert seq.opcodes == ("A", "B", "C", "A", "B", "C", "A")

    def test_length_honored(self):
        model = make_family_model(default_alphabet(8), 3)
        for length in (2, 17, 400):
            assert len(sample_sequence(model, length, 5)) == length

    def test_deterministic_per_seed(self):
        model = make_family_model(default_alphabet(8), 3)
        a = sample_sequence(model, 100, [9, 1])
        b = sample_sequence(model, 100, [9, 1])
        assert a.opcodes == b.opcodes

    def test_too_short_rejected(self):
        model = make_family_model(default_alphabet(4), 1)
        with pytest.raises(ValueError):
            sample_sequence(model, 1, 2)

    def test_empirical_frequencies_approach_transition_rows(self):
        model = make_family_model(default_alphabet(12), 42)
        seq = sample_sequence(model, 100_000, 43)
        index = {op: i for i, op in enumerate(model.alphabet)}
        counts = np.zeros((12, 12))
        for a, b in zip(seq.opcodes, seq.opcodes[1:]):
            counts[index[a], index[b]] += 1
        visits = counts.sum(axis=1)
        checked = 0
        for row in range(12):
            if visits[row] >= 100:
                empirical = counts[row] / visits[row]
                assert np.abs(empirical - model.transition[row]).sum() <= 0.05
                checked += 1
        assert checked >= 3


class TestGenerateCorpus:
    def test_counting_example(self):
        config = CorpusConfig(
            families=2, subfamilies_per_family=1, samples_per_subfamily=3,
            benign_sources=1, samples_per_benign_source=3,
            alphabet_size=12, length_range=(50, 80), seed=1,
        )
        samples, manifest = generate_corpus(config)
        malware = [s for s in samples if s.label != "benign"]
        benign = [s for s in samples if s.label == "benign"]
        assert len(malware) == 6
        assert len(benign) == 3
        assert len(manifest["models"]) == 3

    def test_default_shape(self):
        samples, manifest = generate_corpus()
        assert len(samples) == 6 * 3 * 40 + 200
        assert sum(1 for s in samples if s.label == "benign") == 200
        assert len(manifest["models"]) == 6 * 3 + 20

    def test_deterministic(self):
        config = CorpusConfig(
            families=2, subfamilies_per_family=2, samples_per_subfamily=4,
            benign_sources=2, samples_per_benign_source=4,
            alphabet_size=16, length_range=(60, 120), seed=11,
        )
        samples_a, manifest_a = generate_corpus(config)
        samples_b, manifest_b = generate_corpus(config)
        assert manifest_a == manifest_b
        assert samples_a == samples_b

    def test_sample_ids_unique_and_lengths_in_range(self):
        config = CorpusConfig(
            families=2, subfamilies_per_family=2, samples_per_subfamily=5,
            benign_sources=2, samples_per_benign_source=5,
            alphabet_size=16, length_range=(60, 90), seed=2,
        )
        samples, manifest = generate_corpus(config)
        ids = [s.sample_id for s in samples]
        assert len(ids) == len(set(ids))
        for s in samples:
            assert 60 <= len(s) <= 90
        for entry in manifest["samples"]:
            assert entry["length"] == len(next(s for s in samples if s.sample_id == entry["sample_id"]))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CorpusConfig(families=0)
        with pytest.raises(ValueError):
            CorpusConfig(length_range=(1, 10))
        with pytest.raises(ValueError):
            CorpusConfig(subfamily_perturbation=1.2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CorpusConfig(seed=-1)
        assert CorpusConfig(seed=0).seed == 0

    def test_default_corpus_bytes_pinned(self):
        """SHA-256 over the seed-7 default corpus as written, in generation order."""
        assert corpus_digest(CorpusConfig()) == (
            "13dba509dc1aca16f0109d9347bf0824cee9debab64f2c80a48fd6ab39b1230f"
        )

    @pytest.mark.parametrize(
        "fields, expected",
        [
            pytest.param(
                {"alphabet_size": 200, "samples_per_subfamily": 10,
                 "samples_per_benign_source": 3, "length_range": (2000, 3000)},
                "2cbd9ea3f94b119a2fb76b8bc4424406cd5e74fa9c044da1cca1ebdc424b8cf6",
                id="wide",
            ),
            pytest.param(
                {"length_range": (40, 120)},
                "7aae9f386a54e12180a3e0c821657431b4b07ff3aa28dd99648603b42afa1a8c",
                id="short",
            ),
            pytest.param(
                {"families": 1, "subfamilies_per_family": 1, "samples_per_subfamily": 1,
                 "benign_sources": 1, "samples_per_benign_source": 1, "alphabet_size": 1,
                 "length_range": (2, 2)},
                "28b83af35ac8bff2462d2ce160109e97f34f6a3694f03c2cbadfec6f8661ee15",
                id="minimal",
            ),
        ],
    )
    def test_corpus_bytes_pinned(self, fields, expected):
        """The same digest over other seed-7 shapes: the benchmark's ``wide``, short samples
        and a one-opcode corpus with one sample per source."""
        assert corpus_digest(CorpusConfig(**fields)) == expected


class TestWriteCorpus:
    def test_round_trip_through_loader(self, tmp_path):
        config = CorpusConfig(
            families=2, subfamilies_per_family=1, samples_per_subfamily=3,
            benign_sources=1, samples_per_benign_source=3,
            alphabet_size=10, length_range=(20, 40), seed=5,
        )
        samples, manifest = generate_corpus(config)
        root = write_corpus(samples, manifest, tmp_path / "corpus")
        loaded = load_corpus(root)
        by_id = {s.sample_id: s for s in loaded}
        assert set(by_id) == {s.sample_id for s in samples}
        for original in samples:
            assert by_id[original.sample_id].opcodes == original.opcodes
            assert by_id[original.sample_id].label == original.label
        manifest_doc = json.loads((root / "manifest.json").read_text())
        assert manifest_doc["config"]["families"] == 2

    def test_write_is_deterministic(self, tmp_path):
        config = CorpusConfig(
            families=1, subfamilies_per_family=1, samples_per_subfamily=2,
            benign_sources=1, samples_per_benign_source=2,
            alphabet_size=8, length_range=(20, 30), seed=9,
        )
        samples, manifest = generate_corpus(config)
        a = write_corpus(samples, manifest, tmp_path / "a")
        b = write_corpus(samples, manifest, tmp_path / "b")
        for rel in ["manifest.json"] + [
            f"{s.label}/{s.sample_id}.ops" for s in samples
        ]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
