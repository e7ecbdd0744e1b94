"""Parsers turning sample inputs into normalized opcode sequences.

Two input shapes are supported: a mnemonic-per-line text format used for
corpus storage, and linear disassembly listings whose instruction lines look
like ``<addr>: <hex bytes> <mnemonic> [operands]``. A loaded corpus keeps one
string per distinct opcode, shared by every sample that holds it.

A sample carries its opcodes as integers too, as ``OpcodeSequence.coding``.
A producer that already holds them (``load_corpus``, and the generator's
walk) stores them where the sample is made; a sample built by hand codes its
opcodes on first use. Counting consumers read the coding, so they map a
sample's few names, not its every opcode.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyCorpusError, EmptySampleError, ParseError

BENIGN_LABEL = "benign"
OPS_SUFFIX = ".ops"
LISTING_DIALECTS = ("linear-listing",)

_COMMENT_PREFIX = "#"
_HEX_BYTE = re.compile(r"^[0-9a-fA-F]{2}$")
_INSTR_LINE = re.compile(r"^\s*[0-9a-fA-F]+:\s+(\S.*)$")


@dataclass(frozen=True)
class OpcodeSequence:
    """Ordered opcodes for one sample, with its id and optional class label."""

    sample_id: str
    opcodes: tuple[str, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.sample_id:
            raise ValueError("sample_id must be non-empty")

    def __len__(self) -> int:
        return len(self.opcodes)

    @cached_property
    def coding(self) -> tuple[Sequence[str], np.ndarray]:
        """``(names, codes)`` with ``names[codes[k]] == opcodes[k]``; ``codes`` is read-only.

        ``codes`` has the smallest unsigned dtype that indexes ``names``. A
        name may repeat in ``names``, and one name may stand for an equal but
        distinct string, so a consumer maps names by value. Not a field: it
        takes no part in ``==``, ``hash`` or ``repr``. A sample built by hand
        codes its distinct opcodes in order of first appearance on first use.
        """
        code = defaultdict(count().__next__)
        codes = np.fromiter(map(code.__getitem__, self.opcodes), np.intp, len(self.opcodes))
        return tuple(code), _code_array(codes, len(code))

    @classmethod
    def _coded(
        cls, sample_id: str, names: Sequence[str], codes: Sequence[int], label: str | None = None
    ) -> "OpcodeSequence":
        """The sample whose opcode ``k`` is ``names[codes[k]]``, with that coding stored."""
        codes = _code_array(codes, len(names))
        seq = cls(sample_id, tuple(np.array(names, dtype=object).take(codes).tolist()), label)
        seq.__dict__["coding"] = (names, codes)  # what ``cached_property`` would store
        return seq


def _code_array(codes: Sequence[int], size: int) -> np.ndarray:
    """``codes`` as a read-only array of the smallest unsigned dtype that indexes ``size`` names.

    An array that already has that dtype is used as it is.
    """
    array = np.asarray(codes, dtype=np.min_scalar_type(max(size - 1, 0)))
    array.setflags(write=False)
    return array


def normalize_mnemonic(token: str) -> str:
    """Trim and uppercase a raw mnemonic token."""
    text = token.strip()
    if not text:
        raise ParseError("empty mnemonic token")
    if any(ch.isspace() for ch in text):
        raise ParseError(f"mnemonic contains whitespace: {token!r}")
    return text.upper()


def _mnemonics(text: str, sample_id: str) -> list[str]:
    """``parse_mnemonic_lines``'s opcodes, as a list of the strings that parsing made."""
    upper = text.upper()
    fields = upper.split()
    if fields and _COMMENT_PREFIX not in upper and upper.removesuffix("\n") == "\n".join(fields):
        return fields
    kept = [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith(_COMMENT_PREFIX)]
    if not kept:
        raise EmptySampleError(f"no opcodes parsed for sample {sample_id!r}")
    if len(" ".join(kept).split()) != len(kept):
        for line in kept:
            normalize_mnemonic(line)
    return list(map(str.upper, kept))


def parse_mnemonic_lines(text: str, sample_id: str, label: str | None = None) -> OpcodeSequence:
    """Parse one opcode per non-blank, non-comment line, in file order.

    Canonical text, as ``format_mnemonic_lines`` writes it, takes one ``split``:
    if the upper-cased text has no ``#`` and equals its fields joined by ``"\n"``,
    with or without one trailing ``"\n"``, the fields are the opcodes, because
    ``str.upper`` maps whitespace to itself and never creates whitespace or ``#``.
    Other text has its internal whitespace checked once: ``strip``, ``split`` and
    ``splitlines`` share one whitespace definition, so a stripped line holds
    whitespace exactly when it splits into more than one field. A text that
    fails the check goes through ``normalize_mnemonic`` line by line, so the
    first bad line raises.
    """
    return OpcodeSequence(sample_id, tuple(_mnemonics(text, sample_id)), label)


def format_mnemonic_lines(seq: OpcodeSequence) -> str:
    """Inverse of parse_mnemonic_lines for corpus storage."""
    return "\n".join(seq.opcodes) + "\n"


def parse_disassembly_listing(
    text: str, dialect: str, sample_id: str, label: str | None = None
) -> OpcodeSequence:
    """Extract the mnemonic of every instruction line of a disassembly listing.

    Section headers, symbol lines and pure-data lines (address plus hex bytes
    with no mnemonic field) are skipped.
    """
    if dialect not in LISTING_DIALECTS:
        raise ParseError(f"unsupported dialect {dialect!r}; expected one of {LISTING_DIALECTS}")
    opcodes = []
    for line in text.splitlines():
        match = _INSTR_LINE.match(line)
        if match is None:
            continue
        fields = match.group(1).split()
        pos = 0
        while pos < len(fields) and _HEX_BYTE.match(fields[pos]):
            pos += 1
        if pos == 0 or pos >= len(fields):
            continue  # no byte column, or bytes-only data line
        opcodes.append(normalize_mnemonic(fields[pos]))
    if not opcodes:
        raise EmptySampleError(f"no instruction lines found in listing for sample {sample_id!r}")
    return OpcodeSequence(sample_id, tuple(opcodes), label)


def _read_sample_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read sample file {path}: {exc}") from exc


def parse_sample_file(path: str | Path, dialect: str | None = None) -> OpcodeSequence:
    """Read one unlabelled sample file named by its stem; ``dialect=None`` reads mnemonic lines."""
    path = Path(path)
    text = _read_sample_text(path)
    if dialect is None:
        return parse_mnemonic_lines(text, path.stem)
    return parse_disassembly_listing(text, dialect, path.stem)


def load_corpus(root: str | Path) -> list[OpcodeSequence]:
    """Read a ``<root>/<label>/<sample_id>.ops`` corpus tree.

    Samples are returned sorted by label then sample id; sample ids must be
    unique across the whole tree. The corpus keeps one string per distinct
    opcode: each parsed mnemonic is coded through one table local to this
    call, so the strings that parsing made are freed as loading goes on. Each
    sample's tuple is then gathered from the table's names, the first
    instance of each opcode, and the sample keeps those codes as its
    ``coding``.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpusError(f"corpus root {root} is not a directory")
    coded = []
    seen: dict[str, str] = {}
    code = defaultdict(count().__next__)  # opcode -> code, in order of first appearance
    for label_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        label = label_dir.name
        for ops_file in sorted(label_dir.glob(f"*{OPS_SUFFIX}")):
            sample_id = ops_file.stem
            if sample_id in seen:
                raise ParseError(
                    f"duplicate sample id {sample_id!r} in {label!r} and {seen[sample_id]!r}"
                )
            seen[sample_id] = label
            ops = _mnemonics(_read_sample_text(ops_file), sample_id)
            codes = np.fromiter(map(code.__getitem__, ops), np.uint32, len(ops))
            coded.append((sample_id, _code_array(codes, len(code)), label))
    if not coded:
        raise EmptyCorpusError(f"no samples found under {root}")
    names = tuple(code)
    return [OpcodeSequence._coded(sample_id, names, codes, label)
            for sample_id, codes, label in coded]
