"""Parsers turning sample inputs into normalized opcode sequences.

Two input shapes are supported: a mnemonic-per-line text format used for
corpus storage, and linear disassembly listings whose instruction lines look
like ``<addr>: <hex bytes> <mnemonic> [operands]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

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


def normalize_mnemonic(token: str) -> str:
    """Trim and uppercase a raw mnemonic token."""
    text = token.strip()
    if not text:
        raise ParseError("empty mnemonic token")
    if any(ch.isspace() for ch in text):
        raise ParseError(f"mnemonic contains whitespace: {token!r}")
    return text.upper()


def parse_mnemonic_lines(text: str, sample_id: str, label: str | None = None) -> OpcodeSequence:
    """Parse one opcode per non-blank, non-comment line, in file order.

    Internal whitespace is checked once per text: ``strip``, ``split`` and
    ``splitlines`` share one whitespace definition, so a stripped line holds
    whitespace exactly when it splits into more than one field. A text that
    fails the check goes through ``normalize_mnemonic`` line by line, so the
    first bad line raises.
    """
    kept = [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith(_COMMENT_PREFIX)]
    if not kept:
        raise EmptySampleError(f"no opcodes parsed for sample {sample_id!r}")
    if len(" ".join(kept).split()) != len(kept):
        for line in kept:
            normalize_mnemonic(line)
    return OpcodeSequence(sample_id, tuple(map(str.upper, kept)), label)


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
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read sample file {path}: {exc}") from exc


def parse_sample_file(
    path: str | Path,
    sample_id: str | None = None,
    label: str | None = None,
    dialect: str | None = None,
) -> OpcodeSequence:
    """Read one sample file; ``dialect=None`` selects the mnemonic-per-line format."""
    path = Path(path)
    text = _read_sample_text(path)
    sid = sample_id if sample_id is not None else path.stem
    if dialect is None:
        return parse_mnemonic_lines(text, sid, label)
    return parse_disassembly_listing(text, dialect, sid, label)


def load_corpus(root: str | Path) -> list[OpcodeSequence]:
    """Read a ``<root>/<label>/<sample_id>.ops`` corpus tree.

    Samples are returned sorted by label then sample id; sample ids must be
    unique across the whole tree.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpusError(f"corpus root {root} is not a directory")
    samples = []
    seen: dict[str, str] = {}
    for label_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        label = label_dir.name
        for ops_file in sorted(label_dir.glob(f"*{OPS_SUFFIX}")):
            sample_id = ops_file.stem
            if sample_id in seen:
                raise ParseError(
                    f"duplicate sample id {sample_id!r} in {label!r} and {seen[sample_id]!r}"
                )
            seen[sample_id] = label
            samples.append(parse_mnemonic_lines(_read_sample_text(ops_file), sample_id, label))
    if not samples:
        raise EmptyCorpusError(f"no samples found under {root}")
    return samples
