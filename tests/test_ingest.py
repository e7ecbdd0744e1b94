import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.errors import EmptyCorpusError, EmptySampleError, ParseError
from opsig.ingest import (
    OpcodeSequence,
    format_mnemonic_lines,
    load_corpus,
    normalize_mnemonic,
    parse_disassembly_listing,
    parse_mnemonic_lines,
    parse_sample_file,
)

from helpers import TABLE1_SEQ1


class TestNormalizeMnemonic:
    @pytest.mark.parametrize(
        "raw,expected",
        [("push", "PUSH"), ("MOV", "MOV"), ("  jmp\t", "JMP"), (".word", ".WORD")],
    )
    def test_normalizes(self, raw, expected):
        assert normalize_mnemonic(raw) == expected

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_empty_after_trim_rejected(self, raw):
        with pytest.raises(ParseError):
            normalize_mnemonic(raw)

    def test_internal_whitespace_rejected(self):
        with pytest.raises(ParseError):
            normalize_mnemonic("rep movsb")


class TestParseMnemonicLines:
    def test_table1_sequence(self):
        text = "\n".join(op.lower() for op in TABLE1_SEQ1)
        seq = parse_mnemonic_lines(text, "seq1", "famA")
        assert len(seq) == 12
        assert seq.opcodes[:3] == ("PUSH", "POP", "MOV")
        assert seq.opcodes == TABLE1_SEQ1
        assert seq.label == "famA"

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySampleError):
            parse_mnemonic_lines("", "empty")

    def test_comments_and_blanks_skipped(self):
        seq = parse_mnemonic_lines("# hdr\nmov\n\npush", "s")
        assert seq.opcodes == ("MOV", "PUSH")

    def test_comment_only_rejected(self):
        with pytest.raises(EmptySampleError):
            parse_mnemonic_lines("# one\n# two\n", "s")

    def test_deterministic(self):
        text = "mov\npush\ncall\n"
        assert parse_mnemonic_lines(text, "s") == parse_mnemonic_lines(text, "s")

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        alphabet = ["MOV", "PUSH", "POP", "XCHG", "J.NE", "OP_1"]
        for _ in range(50):
            opcodes = tuple(rng.choice(alphabet) for _ in range(int(rng.integers(1, 40))))
            seq = OpcodeSequence("s", opcodes, "lab")
            parsed = parse_mnemonic_lines(format_mnemonic_lines(seq), "s", "lab")
            assert parsed == seq

    @given(
        st.lists(
            st.from_regex(r"[A-Za-z][A-Za-z0-9.]*", fullmatch=True).map(str.upper),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_property(self, mnemonics):
        seq = OpcodeSequence("s", tuple(mnemonics), "lab")
        assert parse_mnemonic_lines(format_mnemonic_lines(seq), "s", "lab") == seq


def per_line_parse(text, sample_id, label=None):
    """Reference parser: ``normalize_mnemonic`` on every kept line."""
    opcodes = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        opcodes.append(normalize_mnemonic(stripped))
    if not opcodes:
        raise EmptySampleError(f"no opcodes parsed for sample {sample_id!r}")
    return OpcodeSequence(sample_id, tuple(opcodes), label)


def _outcome(parse, text):
    try:
        return parse(text, "s", "lab")
    except (ParseError, EmptySampleError) as exc:
        return type(exc), str(exc)


# Letters, comment marks, a character that grows under upper(), a non-space
# format character, and whitespace that is and is not a line boundary.
_PIECES = st.sampled_from(
    ["a", "b", "Z", "#", "\u00df", "\ufeff", " ", "\t", "\r\n", "\n",
     "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
)


class TestOnePassParse:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_PIECES, max_size=40).map("".join))
    def test_equals_per_line_parse(self, text):
        assert _outcome(parse_mnemonic_lines, text) == _outcome(per_line_parse, text)

    def test_first_bad_line_named(self):
        text = "mov\nrep movsb\nlock add\n"
        with pytest.raises(ParseError, match="'rep movsb'"):
            parse_mnemonic_lines(text, "s")


LISTING = """\
Disassembly of section .text:

401000: 55                push ebp
401001: 89 e5             mov ebp, esp
401003: 00 00 00 00
401007: c3                ret
"""


class TestParseDisassemblyListing:
    def test_single_instruction_line(self):
        seq = parse_disassembly_listing("401000: 55 push ebp", "linear-listing", "s")
        assert seq.opcodes == ("PUSH",)

    def test_skips_headers_and_data(self):
        seq = parse_disassembly_listing(LISTING, "linear-listing", "s")
        assert seq.opcodes == ("PUSH", "MOV", "RET")

    def test_data_only_listing_rejected(self):
        text = "401000: 00 00 00\n401003: ff ff\n"
        with pytest.raises(EmptySampleError):
            parse_disassembly_listing(text, "linear-listing", "s")

    def test_unknown_dialect_rejected(self):
        with pytest.raises(ParseError):
            parse_disassembly_listing("401000: 55 push ebp", "intel-hex", "s")

    def test_tab_separated_fields(self):
        seq = parse_disassembly_listing("401000:\tff 25 12\tjmp\t[0x401200]", "linear-listing", "s")
        assert seq.opcodes == ("JMP",)

    def test_deterministic(self):
        a = parse_disassembly_listing(LISTING, "linear-listing", "s")
        b = parse_disassembly_listing(LISTING, "linear-listing", "s")
        assert a == b


class TestLoadCorpus:
    def _write(self, root, label, name, text):
        d = root / label
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{name}.ops").write_text(text, encoding="utf-8")

    def test_reads_layout_sorted(self, tmp_path):
        self._write(tmp_path, "famB", "b1", "mov\npush\n")
        self._write(tmp_path, "famA", "a2", "call\nret\n")
        self._write(tmp_path, "famA", "a1", "xor\nxor\n")
        samples = load_corpus(tmp_path)
        assert [(s.label, s.sample_id) for s in samples] == [
            ("famA", "a1"), ("famA", "a2"), ("famB", "b1"),
        ]
        assert samples[0].opcodes == ("XOR", "XOR")

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            load_corpus(tmp_path / "nope")

    def test_empty_tree_rejected(self, tmp_path):
        (tmp_path / "fam").mkdir()
        with pytest.raises(EmptyCorpusError):
            load_corpus(tmp_path)

    def test_non_utf8_file_rejected(self, tmp_path):
        self._write(tmp_path, "famA", "ok", "mov\n")
        (tmp_path / "famA" / "bad.ops").write_bytes(b"mov\n\xff\xfe\n")
        with pytest.raises(ParseError, match="bad.ops"):
            load_corpus(tmp_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        self._write(tmp_path, "famA", "dup", "mov\n")
        self._write(tmp_path, "famB", "dup", "push\n")
        with pytest.raises(ParseError):
            load_corpus(tmp_path)


class TestParseSampleFile:
    def test_lines_format(self, tmp_path):
        path = tmp_path / "x.ops"
        path.write_text("mov\npush\n", encoding="utf-8")
        seq = parse_sample_file(path)
        assert seq.sample_id == "x"
        assert seq.opcodes == ("MOV", "PUSH")

    def test_listing_format(self, tmp_path):
        path = tmp_path / "x.lst"
        path.write_text("401000: 55 push ebp\n", encoding="utf-8")
        seq = parse_sample_file(path, dialect="linear-listing")
        assert seq.opcodes == ("PUSH",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_sample_file(tmp_path / "gone.ops")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "x.ops"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="x.ops"):
            parse_sample_file(path)
