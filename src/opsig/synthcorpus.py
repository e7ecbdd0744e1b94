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
from typing import Sequence

import numpy as np

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
    if size < 1:
        raise ValueError("alphabet size must be >= 1")
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
    concentration: float | None = None,
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
    if concentration is None:
        concentration = ROW_CONCENTRATION
    rng = _rng(seed)
    size = len(alphabet)
    active_size = min(size, max(2, round(size * ACTIVE_FRACTION)))
    active = np.sort(rng.choice(size, size=active_size, replace=False))
    low, high = ROW_SUPPORT
    transition = np.zeros((size, size))
    for row in range(size):
        successors = min(int(rng.integers(low, high + 1)), active_size)
        cols = rng.choice(active, size=successors, replace=False)
        transition[row, cols] = rng.dirichlet(np.full(successors, concentration))
    initial = np.zeros(size)
    initial[int(rng.choice(active))] = 1.0
    return FamilyModel(family_label, subfamily_label, tuple(alphabet), initial, transition)


def derive_subfamily(
    base: FamilyModel,
    perturbation: float,
    seed: int | SeedPath,
    concentration: float | None = None,
    subfamily_label: str = "",
) -> FamilyModel:
    """Convex mix of the base chain with a fresh seeded chain.

    perturbation 0 returns the base unchanged; 1 replaces it entirely.
    """
    if not 0.0 <= perturbation <= 1.0:
        raise ValueError(f"perturbation must lie in [0, 1], got {perturbation}")
    fresh = make_family_model(base.alphabet, seed, concentration)
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
    last entry of a row summing to less than 1 to the last opcode.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    draws = _rng(seed).random(length).tolist()
    initial_cdf, transition_cdf = model._cdfs
    top = len(model.alphabet) - 1
    state = bisect_right(initial_cdf, draws[0], 0, top)
    states = [state]
    for draw in draws[1:]:
        state = bisect_right(transition_cdf[state], draw, 0, top)
        states.append(state)
    opcodes = tuple(model.alphabet[s] for s in states)
    return OpcodeSequence(sample_id, opcodes, label if label is not None else model.family_label)


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
        for name in ("families", "subfamilies_per_family", "samples_per_subfamily",
                     "benign_sources", "samples_per_benign_source", "alphabet_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        low, high = self.length_range
        if low < 2 or high < low:
            raise ValueError(f"invalid length_range {self.length_range}")
        if not 0.0 <= self.subfamily_perturbation <= 1.0:
            raise ValueError("subfamily_perturbation must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


DEFAULT_CONFIG = CorpusConfig()


def _sample_length(config: CorpusConfig, seed_path: SeedPath) -> int:
    low, high = config.length_range
    return int(_rng(seed_path).integers(low, high + 1))


def generate_corpus(config: CorpusConfig = DEFAULT_CONFIG) -> tuple[list[OpcodeSequence], dict]:
    """Generate all samples plus a ground-truth manifest.

    Every benign source behaves like one small sub-family of the shared
    "benign" class and contributes ``samples_per_benign_source`` samples.
    """
    alphabet = default_alphabet(config.alphabet_size)
    root = config.seed
    samples: list[OpcodeSequence] = []
    model_entries: list[dict] = []
    sample_entries: list[dict] = []

    def emit(
        model: FamilyModel, family: str, subfamily: str, sample_seed_base: SeedPath, count: int
    ) -> None:
        for k in range(count):
            seq_seed = [*sample_seed_base, k]
            length_seed = [root, _LENGTH_STREAM, *sample_seed_base[2:], k]
            length = _sample_length(config, length_seed)
            sample_id = f"{subfamily}-{k:03d}"
            samples.append(
                sample_sequence(model, length, seq_seed, sample_id=sample_id, label=family)
            )
            sample_entries.append(
                {
                    "sample_id": sample_id,
                    "label": family,
                    "family": family,
                    "subfamily": subfamily,
                    "length": length,
                    "sequence_seed": list(seq_seed),
                }
            )

    for i in range(config.families):
        family = f"fam{i:02d}"
        base_seed = [root, _FAMILY_STREAM, i]
        base = make_family_model(alphabet, base_seed, family_label=family, subfamily_label=family)
        for j in range(config.subfamilies_per_family):
            subfamily = f"{family}-s{j}"
            sub_seed = [root, _SUBFAMILY_STREAM, i, j]
            model = derive_subfamily(
                base, config.subfamily_perturbation, sub_seed, subfamily_label=subfamily
            )
            model_entries.append(
                {
                    "label": family,
                    "family": family,
                    "subfamily": subfamily,
                    "kind": "malware",
                    "base_seed": base_seed,
                    "model_seed": sub_seed,
                }
            )
            emit(
                model, family, subfamily,
                [root, _SAMPLE_STREAM, i, j], config.samples_per_subfamily,
            )

    for b in range(config.benign_sources):
        subfamily = f"{BENIGN_LABEL}-src{b}"
        model_seed = [root, _BENIGN_STREAM, b]
        model = make_family_model(
            alphabet, model_seed, family_label=BENIGN_LABEL, subfamily_label=subfamily
        )
        model_entries.append(
            {
                "label": BENIGN_LABEL,
                "family": BENIGN_LABEL,
                "subfamily": subfamily,
                "kind": "benign",
                "model_seed": model_seed,
            }
        )
        emit(
            model, BENIGN_LABEL, subfamily,
            [root, _SAMPLE_STREAM, config.families + 1, b],
            config.samples_per_benign_source,
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
    for seq in samples:
        label_dir = root / (seq.label or "unlabeled")
        label_dir.mkdir(parents=True, exist_ok=True)
        (label_dir / f"{seq.sample_id}{OPS_SUFFIX}").write_text(
            format_mnemonic_lines(seq), encoding="utf-8"
        )
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return root
