"""Synthetic corpus generation with planted family and sub-family structure.

Each malware family is a base first-order Markov chain over a shared mnemonic
alphabet; each sub-family is a seeded convex perturbation of its base, which
stands in for a different version of the family codebase. Benign samples come
from independent unrelated chains. All randomness derives from one root seed,
so a corpus is a pure function of its config.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import check_integer, check_pair, check_real
from .ingest import BENIGN_LABEL, OPS_SUFFIX, OpcodeSequence, format_mnemonic_lines

# Chains are sparse by construction: each model mostly walks an "active"
# subset of the alphabet and every opcode has only a few successors. Short
# samples then estimate their source chain well (same-source graph distances
# land under the clustering radius) while unrelated chains stay far apart.
ROW_CONCENTRATION = 1.0  # Dirichlet concentration over each row's support
ACTIVE_FRACTION = 0.25  # share of the alphabet a single model walks
ROW_SUPPORT = (2, 4)  # successors per opcode, inclusive range

MANIFEST_NAME = "manifest.json"

# Root-seed stream ids, so every model and sample draws from its own stream.
_FAMILY_STREAM = 0
_SUBFAMILY_STREAM = 1
_SAMPLE_STREAM = 2
_BENIGN_STREAM = 3
_LENGTH_STREAM = 4

_BASE_MNEMONICS = (
    "MOV", "PUSH", "POP", "CALL", "RET", "JMP", "ADD", "SUB",
    "XOR", "CMP", "TEST", "LEA", "JZ", "JNZ", "JE", "JNE",
    "INC", "DEC", "AND", "OR", "SHL", "SHR", "NOP", "INT",
    "IMUL", "IDIV", "MUL", "DIV", "JB", "JA", "JG", "JL",
    "JGE", "JLE", "LOOP", "XCHG", "ROL", "ROR", "NOT", "NEG",
    "SBB", "ADC", "MOVZX", "MOVSX", "CDQ", "LEAVE", "JS", "JNS",
    "JC", "JNC", "JO", "JNO", "SETZ", "SETNZ", "CMOVE", "CMOVNE",
    "BT", "BTS", "BTR", "BSF", "BSR", "SAR", "SAL", "STC",
)

SeedPath = Sequence[int]


def default_alphabet(size: int) -> tuple[str, ...]:
    """First ``size`` mnemonics: real x86 names, then synthetic OPnnn fillers."""
    size = check_integer("alphabet size", size, 1)
    names = list(_BASE_MNEMONICS[:size])
    names.extend(f"OP{i:03d}" for i in range(size - len(names)))
    return tuple(names)


def _rng(seed: int | SeedPath) -> np.random.Generator:
    entropy = [seed] if isinstance(seed, int) else list(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True, eq=False)
class FamilyModel:
    """A Markov opcode source: initial distribution plus transition matrix.

    The arrays are treated as fixed: the first walk caches their cumulative
    rows.
    """

    family_label: str
    subfamily_label: str
    alphabet: tuple[str, ...]
    initial: np.ndarray
    transition: np.ndarray

    @cached_property
    def _cdfs(self) -> tuple[list[float], list[list[float]]]:
        """Cumulative initial and transition rows, as Python lists for ``bisect``."""
        return (
            np.cumsum(self.initial).tolist(),
            np.cumsum(self.transition, axis=1).tolist(),
        )


def make_family_model(
    alphabet: Sequence[str],
    seed: int | SeedPath,
    family_label: str = "",
    subfamily_label: str = "",
) -> FamilyModel:
    """Draw a fresh sparse chain; deterministic per seed.

    The model picks a random active subset of the alphabet, gives every
    opcode a small random successor set inside it with Dirichlet weights,
    and starts deterministically at one active opcode. All coordinates are
    treated symmetrically; only the seed decides which become active.
    """
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    rng = _rng(seed)
    size = len(alphabet)
    active_size = min(size, max(2, round(size * ACTIVE_FRACTION)))
    active = np.sort(rng.choice(size, size=active_size, replace=False))
    low, high = ROW_SUPPORT
    transition = np.zeros((size, size))
    for row in range(size):
        successors = min(int(rng.integers(low, high + 1)), active_size)
        cols = rng.choice(active, size=successors, replace=False)
        transition[row, cols] = rng.dirichlet(np.full(successors, ROW_CONCENTRATION))
    initial = np.zeros(size)
    initial[int(rng.choice(active))] = 1.0
    return FamilyModel(family_label, subfamily_label, tuple(alphabet), initial, transition)


def derive_subfamily(
    base: FamilyModel,
    perturbation: float,
    seed: int | SeedPath,
    subfamily_label: str = "",
) -> FamilyModel:
    """Convex mix of the base chain with a fresh seeded chain.

    perturbation 0 returns the base unchanged; 1 replaces it entirely.
    """
    perturbation = check_real("perturbation", perturbation, 0, 1)
    fresh = make_family_model(base.alphabet, seed)
    initial = (1.0 - perturbation) * base.initial + perturbation * fresh.initial
    transition = (1.0 - perturbation) * base.transition + perturbation * fresh.transition
    return FamilyModel(
        base.family_label,
        subfamily_label or base.subfamily_label,
        base.alphabet,
        initial,
        transition,
    )


def sample_sequence(
    model: FamilyModel,
    length: int,
    seed: int | SeedPath,
    sample_id: str = "sample",
    label: str | None = None,
) -> OpcodeSequence:
    """Walk the chain for ``length`` steps; deterministic per seed.

    Each state is ``bisect_right`` of one uniform draw on a cumulative row,
    with the CDFs held as Python lists. ``hi=top`` clamps a draw beyond the
    last entry of a row summing to less than 1 to the last opcode. The
    sample's ``coding`` is the walk's states against ``model.alphabet``.
    """
    length = check_integer("length", length, 2)
    draws = _rng(seed).random(length).tolist()
    initial_cdf, transition_cdf = model._cdfs
    top = len(model.alphabet) - 1
    state = bisect_right(initial_cdf, draws[0], 0, top)
    states = [state]
    for draw in draws[1:]:
        state = bisect_right(transition_cdf[state], draw, 0, top)
        states.append(state)
    label = label if label is not None else model.family_label
    return OpcodeSequence._coded(sample_id, model.alphabet, states, label)


@dataclass(frozen=True)
class CorpusConfig:
    """Shape and seeding of a generated corpus.

    Benign heterogeneity comes from many small unrelated sources: merging
    them into one signature washes out any single source, while per-source
    clusters stay recoverable.
    """

    families: int = 6
    subfamilies_per_family: int = 3
    samples_per_subfamily: int = 40
    benign_sources: int = 20
    samples_per_benign_source: int = 10
    alphabet_size: int = 40
    length_range: tuple[int, int] = (500, 2000)
    subfamily_perturbation: float = 0.3
    seed: int = 7

    def __post_init__(self) -> None:
        """Check every field; each integer one is stored back as a plain ``int``."""
        for name in ("families", "subfamilies_per_family", "samples_per_subfamily",
                     "benign_sources", "samples_per_benign_source", "alphabet_size"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        low, high = check_pair("length_range", self.length_range)
        low = check_integer("length_range low end", low, 2)
        high = check_integer("length_range high end", high, low)
        object.__setattr__(self, "length_range", (low, high))
        perturbation = check_real("subfamily_perturbation", self.subfamily_perturbation, 0, 1)
        object.__setattr__(self, "subfamily_perturbation", perturbation)
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))


DEFAULT_CONFIG = CorpusConfig()


def _sources(
    config: CorpusConfig, alphabet: tuple[str, ...]
) -> Iterator[tuple[FamilyModel, dict, list[int], int]]:
    """Each sample source in corpus order, built only when it is reached.

    Yields the source's model, its manifest fields beyond the names, the seed
    path its samples extend and its sample count. Building lazily keeps only
    the current model's cached CDF lists alive.
    """
    root = config.seed
    for i in range(config.families):
        family = f"fam{i:02d}"
        base_seed = [root, _FAMILY_STREAM, i]
        base = make_family_model(alphabet, base_seed, family, family)
        for j in range(config.subfamilies_per_family):
            seed = [root, _SUBFAMILY_STREAM, i, j]
            model = derive_subfamily(base, config.subfamily_perturbation, seed, f"{family}-s{j}")
            fields = {"kind": "malware", "base_seed": base_seed, "model_seed": seed}
            yield model, fields, [root, _SAMPLE_STREAM, i, j], config.samples_per_subfamily
    for b in range(config.benign_sources):
        seed = [root, _BENIGN_STREAM, b]
        model = make_family_model(alphabet, seed, BENIGN_LABEL, f"{BENIGN_LABEL}-src{b}")
        fields = {"kind": "benign", "model_seed": seed}
        seed_path = [root, _SAMPLE_STREAM, config.families + 1, b]
        yield model, fields, seed_path, config.samples_per_benign_source


def generate_corpus(config: CorpusConfig = DEFAULT_CONFIG) -> tuple[list[OpcodeSequence], dict]:
    """Generate all samples plus a ground-truth manifest, in one pass over the sources.

    Sources come in a fixed order: each family's sub-families, then the
    benign sources. Every benign source behaves like one small sub-family of
    the shared "benign" class and contributes ``samples_per_benign_source``
    samples. Sample ``k`` of a source draws its length and its walk from
    their own seed streams, so the corpus is a pure function of ``config``.
    """
    alphabet = default_alphabet(config.alphabet_size)
    low, high = config.length_range
    samples: list[OpcodeSequence] = []
    model_entries: list[dict] = []
    sample_entries: list[dict] = []
    for model, fields, seed_path, count in _sources(config, alphabet):
        family, subfamily = model.family_label, model.subfamily_label
        names = {"label": family, "family": family, "subfamily": subfamily}
        model_entries.append({**names, **fields})
        for k in range(count):
            seq_seed = [*seed_path, k]
            length_seed = [config.seed, _LENGTH_STREAM, *seed_path[2:], k]
            length = int(_rng(length_seed).integers(low, high + 1))
            sample_id = f"{subfamily}-{k:03d}"
            samples.append(sample_sequence(model, length, seq_seed, sample_id=sample_id))
            sample_entries.append(
                {**names, "sample_id": sample_id, "length": length, "sequence_seed": seq_seed}
            )

    manifest = {
        "config": {**asdict(config), "length_range": list(config.length_range)},
        "alphabet": list(alphabet),
        "row_concentration": ROW_CONCENTRATION,
        "models": model_entries,
        "samples": sample_entries,
    }
    return samples, manifest


def write_corpus(
    samples: Sequence[OpcodeSequence], manifest: dict, root: str | Path
) -> Path:
    """Write the ``<root>/<label>/<sample_id>.ops`` layout plus manifest.json."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for label in {seq.label or "unlabeled" for seq in samples}:  # each directory once
        (root / label).mkdir(parents=True, exist_ok=True)
    for seq in samples:
        (root / (seq.label or "unlabeled") / f"{seq.sample_id}{OPS_SUFFIX}").write_text(
            format_mnemonic_lines(seq), encoding="utf-8"
        )
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return root
