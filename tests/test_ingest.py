import sys
import tempfile
import tracemalloc
from pathlib import Path

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


class TestCanonicalTextParse:
    def test_upper_keeps_whitespace_and_comment_marks(self):
        # the one-split parse of canonical text relies on this for every code point
        changed = [c for c in map(chr, range(sys.maxunicode + 1)) if c.upper() != c]
        assert changed
        for c in changed:
            upper = c.upper()
            assert not c.isspace(), f"whitespace {c!r} changes under upper()"
            assert not any(ch.isspace() for ch in upper), f"{c!r} gains whitespace"
            assert c != "#" and "#" not in upper, f"{c!r} changes a comment mark"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("MOV\nPUSH\nMOV\n", ("MOV", "PUSH", "MOV")),
            ("MOV\nPUSH\nMOV", ("MOV", "PUSH", "MOV")),
            ("mov\nPush\n", ("MOV", "PUSH")),
            ("\nMOV\nPUSH\n", ("MOV", "PUSH")),
            ("MOV\r\nPUSH\r\n", ("MOV", "PUSH")),
            ("#header\nMOV\nPUSH\n", ("MOV", "PUSH")),
            ("MOV\nPUSH\n\n", ("MOV", "PUSH")),
        ],
        ids=["canonical", "no-final-newline", "lower-case", "leading-blank", "crlf",
             "comment", "two-final-newlines"],
    )
    def test_equals_per_line_parse(self, text, expected):
        assert parse_mnemonic_lines(text, "s", "lab") == per_line_parse(text, "s", "lab")
        assert parse_mnemonic_lines(text, "s", "lab").opcodes == expected

    def test_two_tokens_on_a_line_name_the_original_line(self):
        text = "MOV\nrep Movsb\nPUSH\n"
        assert _outcome(parse_mnemonic_lines, text) == _outcome(per_line_parse, text)
        with pytest.raises(ParseError, match="'rep Movsb'"):
            parse_mnemonic_lines(text, "s")

    @pytest.mark.parametrize("text", ["", "\n", " \n"])
    def test_blank_text_rejected(self, text):
        with pytest.raises(EmptySampleError):
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

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_reads_layout_sorted(self, tmp_path, bom):
        self._write(tmp_path, "famB", "b1", bom + "mov\npush\n")
        self._write(tmp_path, "famA", "a2", bom + "call\nret\n")
        self._write(tmp_path, "famA", "a1", bom + "xor\nxor\n")
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
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_lines_format(self, tmp_path, bom):
        path = tmp_path / "x.ops"
        path.write_text(bom + "mov\npush\n", encoding="utf-8")
        seq = parse_sample_file(path)
        assert seq.sample_id == "x"
        assert seq.opcodes == ("MOV", "PUSH")

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_listing_format(self, tmp_path, bom):
        path = tmp_path / "x.lst"
        path.write_text(bom + "401000: 55 push ebp\n401001: 8b ec mov ebp, esp\n", encoding="utf-8")
        seq = parse_sample_file(path, dialect="linear-listing")
        assert seq.opcodes == ("PUSH", "MOV")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_sample_file(tmp_path / "gone.ops")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "x.ops"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="x.ops"):
            parse_sample_file(path)


_MNEMONICS = tuple(f"OP{i:02d}" for i in range(40))


def _mixed_text(rng, opcodes, canonical):
    """``opcodes`` as canonical corpus text, or lower case with comments and blank lines."""
    if canonical:
        return "\n".join(opcodes) + "\n"
    lines = ["# header"]
    for op in opcodes:
        if rng.random() < 0.1:
            lines.append("")
        lines.append(f"  {op.lower()}" if rng.random() < 0.1 else op.lower())
    return "\n".join(lines) + "\n"


class TestLoadedCorpusMemory:
    @pytest.fixture(scope="class")
    def mixed_corpus(self, tmp_path_factory):
        """51 files of about 4,000 opcodes; every other file is not canonical."""
        root = tmp_path_factory.mktemp("mixed")
        rng = np.random.default_rng(5)
        for i in range(51):
            label = ("benign", "famA", "famB")[i % 3]
            size = int(rng.integers(3500, 4500))
            opcodes = [str(op) for op in rng.choice(_MNEMONICS, size=size)]
            (root / label).mkdir(exist_ok=True)
            (root / label / f"s{i:02d}.ops").write_text(
                _mixed_text(rng, opcodes, canonical=i % 2 == 0), encoding="utf-8"
            )
        return root

    def test_retained_bytes_per_opcode(self, mixed_corpus):
        # one shared string per distinct opcode leaves a tuple slot (8 bytes) per
        # opcode; a fresh string per opcode costs about 61
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = load_corpus(mixed_corpus)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        opcodes = sum(map(len, samples))
        assert opcodes > 150_000
        assert retained / opcodes < 12

    def test_one_string_per_distinct_opcode(self, mixed_corpus):
        samples = load_corpus(mixed_corpus)
        ops = [op for sample in samples for op in sample.opcodes]
        assert len({id(op) for op in ops}) == len(set(ops)) == len(_MNEMONICS)


def _expected_load(root, files):
    """``parse_sample_file`` of every file in ``load_corpus`` order, or its first error."""
    samples = []
    for label, name in sorted(files):
        try:
            seq = parse_sample_file(root / label / f"{name}.ops")
        except (ParseError, EmptySampleError) as exc:
            return type(exc), str(exc)
        samples.append(OpcodeSequence(seq.sample_id, seq.opcodes, label))
    return samples


_TREE_FILES = st.lists(
    st.tuples(
        st.sampled_from(["benign", "famA", "famB"]),
        st.lists(st.sampled_from(["MOV", "PUSH", "POP", "J.NE", "OP_1"]), max_size=12),
        st.booleans(),  # canonical text
        st.sampled_from([None, "rep movsb", "# only a comment"]),  # an extra line
    ),
    min_size=1,
    max_size=6,
)


class TestLoadCorpusParity:
    @settings(max_examples=150, deadline=None)
    @given(_TREE_FILES, st.randoms(use_true_random=False))
    def test_equals_parse_sample_file(self, files, rng):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            names = []
            for i, (label, opcodes, canonical, extra) in enumerate(files):
                text = _mixed_text(rng, opcodes, canonical)
                if extra is not None:
                    text += extra + "\n"
                (root / label).mkdir(exist_ok=True)
                (root / label / f"s{i}.ops").write_text(text, encoding="utf-8")
                names.append((label, f"s{i}"))
            expected = _expected_load(root, names)
            try:
                loaded = load_corpus(root)
            except (ParseError, EmptySampleError) as exc:
                loaded = type(exc), str(exc)
            assert loaded == expected
