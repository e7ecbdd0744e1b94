import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest

from opsig.cli import dispatch
from opsig.synthcorpus import CorpusConfig, generate_corpus, write_corpus


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """Small three-class corpus on disk (benign + two families)."""
    root = tmp_path_factory.mktemp("corpus")
    config = CorpusConfig(
        families=2, subfamilies_per_family=2, samples_per_subfamily=6,
        benign_sources=3, samples_per_benign_source=6,
        alphabet_size=16, length_range=(200, 400), seed=13,
    )
    samples, manifest = generate_corpus(config)
    return write_corpus(samples, manifest, root)


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert dispatch(["train", "--corpus", "x"]) == 2
        capsys.readouterr()

    def test_bad_eps_exits_2(self, tmp_path, capsys):
        code = dispatch([
            "train", "--corpus", str(tmp_path), "--db", str(tmp_path / "d.sigdb.json"),
            "--eps", "0.5,0.1",
        ])
        assert code == 2
        capsys.readouterr()

    def test_bad_retain_exits_2(self, tmp_path, capsys):
        code = dispatch([
            "train", "--corpus", str(tmp_path), "--db", str(tmp_path / "d.sigdb.json"),
            "--retain", "1.5",
        ])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "compare-baseline"])
    def test_negative_seed_exits_2(self, command, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out", str(out)],
            "train": ["train", "--corpus", str(tiny_corpus), "--db", str(out)],
            "eval": ["eval", "--corpus", str(tiny_corpus), "--out", str(out)],
            "compare-baseline": [
                "compare-baseline", "--corpus", str(tiny_corpus), "--out", str(out)
            ],
        }[command]
        assert dispatch([*argv, "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("eval", "--k", "2.5", "k must be an integer, got 2.5"),
            ("eval", "--k", "1", "k must be >= 2, got 1"),
            ("train", "--seed", "1.5", "seed must be an integer, got 1.5"),
            ("eval", "--seed", "nan", "seed must be an integer, got nan"),
            ("train", "--min-pts", "x", "min_pts must be an integer, got 'x'"),
            ("train", "--min-pts", "2.0", "min_pts must be an integer, got 2.0"),
            ("train", "--retain", "abc", "could not convert string to float: 'abc'"),
            ("train", "--eps", "0.2,0.1", "eps values must be strictly increasing, got (0.2, 0.1)"),
        ],
    )
    def test_bad_flag_value_exits_2_naming_the_flag(
        self, command, flag, value, message, tiny_corpus, tmp_path, capsys
    ):
        out = tmp_path / "out"
        destination = "--db" if command == "train" else "--out"
        argv = [command, "--corpus", str(tiny_corpus), destination, str(out), flag, value]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {message}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()


class TestDomainErrors:
    def test_train_missing_corpus_exits_1(self, tmp_path, capsys):
        code = dispatch([
            "train", "--corpus", str(tmp_path / "missing"),
            "--db", str(tmp_path / "out.sigdb.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_classify_missing_db_exits_1(self, tmp_path, capsys):
        sample = tmp_path / "s.ops"
        sample.write_text("mov\npush\n")
        code = dispatch([
            "classify", "--db", str(tmp_path / "gone.sigdb.json"), "--input", str(sample)
        ])
        assert code == 1
        capsys.readouterr()

    def test_train_non_utf8_sample_exits_1(self, tmp_path, capsys):
        (tmp_path / "corpus" / "famA").mkdir(parents=True)
        (tmp_path / "corpus" / "famA" / "s1.ops").write_bytes(b"\xff\xfe")
        code = dispatch([
            "train", "--corpus", str(tmp_path / "corpus"),
            "--db", str(tmp_path / "out.sigdb.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "s1.ops" in err
        assert "Traceback" not in err

    def test_classify_non_utf8_db_exits_1(self, tmp_path, capsys):
        db_path = tmp_path / "bad.sigdb.json"
        db_path.write_bytes(b"\xff\xfe\x00\x01")
        sample = tmp_path / "s.ops"
        sample.write_text("mov\npush\n")
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "bad.sigdb.json: not UTF-8 text" in err

    def test_classify_db_with_overlong_integer_exits_1(self, tmp_path, capsys):
        db_path = tmp_path / "long.sigdb.json"
        db_path.write_text('{"version": ' + "1" * 5_000 + "}")
        sample = tmp_path / "s.ops"
        sample.write_text("mov\npush\n")
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "long.sigdb.json: cannot decode JSON" in err

    def test_classify_db_with_retain_fraction_outside_unit_interval_exits_1(
        self, tiny_corpus, tmp_path, capsys
    ):
        db_path = tmp_path / "tiny.sigdb.json"
        assert dispatch(["train", "--corpus", str(tiny_corpus), "--db", str(db_path)]) == 0
        capsys.readouterr()
        doc = json.loads(db_path.read_text())
        doc["vocabulary"]["retain_fraction"] = 5
        del doc["checksum"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        db_path.write_text(json.dumps(doc))
        sample = tmp_path / "s.ops"
        sample.write_text("mov\npush\n")
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "retain_fraction must be in (0, 1], got 5.0" in err
        assert "Traceback" not in err

    def test_classify_db_with_weightless_signature_exits_1(self, tmp_path, capsys):
        saved = Path(__file__).parent / "data" / "saved_v1.sigdb.json"
        doc = json.loads(saved.read_text())
        doc["signatures"][0]["rows"] = {}
        del doc["checksum"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        db_path = tmp_path / "weightless.sigdb.json"
        db_path.write_text(json.dumps(doc))
        sample = tmp_path / "s.ops"
        sample.write_text("mov\npush\n")
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "signature 'benign/r1/0' has no weight" in captured.err
        assert "Traceback" not in captured.err

    def test_classify_sample_without_retained_bigram_exits_1(self, tiny_corpus, tmp_path, capsys):
        db_path = tmp_path / "tiny.sigdb.json"
        assert dispatch(["train", "--corpus", str(tiny_corpus), "--db", str(db_path)]) == 0
        capsys.readouterr()
        sample = tmp_path / "unknown.ops"
        sample.write_text("ZZZ\nQQQ\nZZZ\n")
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: sample 'unknown' has no retained bigram" in captured.err

    def test_investigate_one_class_corpus_exits_1(self, tmp_path, capsys):
        (tmp_path / "corpus" / "famA").mkdir(parents=True)
        for i in range(3):
            (tmp_path / "corpus" / "famA" / f"s{i}.ops").write_text("mov\npush\npop\n")
        assert dispatch(["investigate", "--corpus", str(tmp_path / "corpus")]) == 1
        err = capsys.readouterr().err
        assert "error: similarity table needs at least two classes" in err
        assert "Traceback" not in err

    def test_eval_without_benign_class_exits_1(self, tiny_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus, ignore=shutil.ignore_patterns("benign"))
        assert dispatch(["eval", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: corpus has no 'benign' class, which the binary view needs\n"
        )

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 763. MiB for an array"),
         "Unable to allocate 763. MiB for an array"),
        (MemoryError(), "out of memory"),  # as the interpreter itself raises it
    ])
    def test_database_too_large_for_memory_exits_1(
        self, error, line, monkeypatch, tmp_path, capsys
    ):
        def load_database(path):
            raise error

        monkeypatch.setattr("opsig.cli.load_database", load_database)
        sample = tmp_path / "s.ops"
        sample.write_text("mov\npush\n")
        db_path = str(tmp_path / "huge.sigdb.json")
        assert dispatch(["classify", "--db", db_path, "--input", str(sample)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"


class TestUnsignedClassNotes:
    """A class in which no sample holds a retained bigram gets no signature, and is named."""

    NOTE = "note: class 'famC' has no retained bigram, so it has no signature\n"

    @pytest.fixture
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        for label, opcodes in (("famA", "MOV\nPUSH\n"), ("benign", "XOR\nNOP\n")):
            (root / label).mkdir(parents=True)
            for i in range(10):
                (root / label / f"{label}{i}.ops").write_text(opcodes * 12)
        (root / "famC").mkdir()
        (root / "famC" / "c0.ops").write_text("XOR\nAND\n")
        return root

    def test_train_names_the_class(self, corpus, tmp_path, capsys):
        db_path = tmp_path / "model.sigdb.json"
        assert dispatch(["train", "--corpus", str(corpus), "--db", str(db_path)]) == 0
        err = capsys.readouterr().err
        assert f"over 2 classes (vocabulary size 4) -> {db_path}\n{self.NOTE}" in err
        assert err.count("note:") == 1

    def test_investigate_names_the_class(self, corpus, capsys):
        assert dispatch(["investigate", "--corpus", str(corpus)]) == 0
        captured = capsys.readouterr()
        assert captured.err == self.NOTE
        assert [line.split(",")[0] for line in captured.out.splitlines()] == [
            "family", "benign", "famA"
        ]


class TestPipeline:
    def test_train_then_classify(self, tiny_corpus, tmp_path, capsys):
        db_path = tmp_path / "tiny.sigdb.json"
        assert dispatch([
            "train", "--corpus", str(tiny_corpus), "--db", str(db_path),
        ]) == 0
        assert db_path.exists()
        capsys.readouterr()

        sample = next((tiny_corpus / "fam00").glob("*.ops"))
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 0
        out = capsys.readouterr().out.strip()
        fields = out.split(",")
        assert fields[0] == sample.stem
        assert fields[1] == "fam00"
        float(fields[3])

    def test_classify_listing_dialect(self, tiny_corpus, tmp_path, capsys):
        db_path = tmp_path / "tiny2.sigdb.json"
        dispatch(["train", "--corpus", str(tiny_corpus), "--db", str(db_path)])
        capsys.readouterr()
        listing = tmp_path / "sample.lst"
        ops = next((tiny_corpus / "benign").glob("*.ops")).read_text().split()
        lines = [f"40{i:04x}: 55 {op.lower()} eax" for i, op in enumerate(ops)]
        listing.write_text("\n".join(lines) + "\n")
        code = dispatch([
            "classify", "--db", str(db_path), "--input", str(listing),
            "--dialect", "linear-listing",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("sample,benign,")

    def test_eval_writes_reports(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "reports"
        code = dispatch([
            "eval", "--corpus", str(tiny_corpus), "--out", str(out),
            "--k", "3", "--seed", "5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "macro_tpr=" in captured.out
        rundirs = list(out.iterdir())
        assert len(rundirs) == 1
        assert rundirs[0].name.endswith("-seed5")
        names = sorted(p.name for p in rundirs[0].iterdir())
        assert "multiclass_confusion.csv" in names
        assert "summary.txt" in names

    def test_compare_baseline(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = dispatch([
            "compare-baseline", "--corpus", str(tiny_corpus), "--out", str(out),
            "--k", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "macro_tpr_delta=" in captured.out
        rundir = next(out.iterdir())
        names = {p.name for p in rundir.iterdir()}
        assert "clustered_metrics.csv" in names
        assert "monolithic_metrics.csv" in names

    def test_investigate_prints_table(self, tiny_corpus, capsys):
        assert dispatch(["investigate", "--corpus", str(tiny_corpus)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("family,")
        assert "benign" in out

    def test_cluster_report_prints_rows(self, tiny_corpus, capsys):
        assert dispatch(["cluster-report", "--corpus", str(tiny_corpus)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "eps_setting,family,samples,clusters,unclustered"
        settings = {line.split(",")[0] for line in lines[1:]}
        assert settings == {"0.01", "0.1", "proposed"}

    def test_cluster_report_default_corpus_pinned(self, tmp_path, capsys):
        assert dispatch(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
        assert dispatch(["cluster-report", "--corpus", str(tmp_path)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a07a27155aabcb3d02eb3a47c04cbfb18847268359b676a6d4534dc23abb8aa3"


class TestThinAdapter:
    def test_cli_train_matches_library_call(self, tiny_corpus, tmp_path, capsys):
        """The subcommand must produce the same artifact as the direct API."""
        from opsig.ingest import load_corpus
        from opsig.signatures import build_database, save_database

        cli_db = tmp_path / "cli.sigdb.json"
        api_db = tmp_path / "api.sigdb.json"
        assert dispatch([
            "train", "--corpus", str(tiny_corpus), "--db", str(cli_db),
            "--retain", "0.95", "--eps", "0.05,0.2", "--min-pts", "2", "--seed", "21",
        ]) == 0
        capsys.readouterr()
        db = build_database(
            load_corpus(tiny_corpus),
            retain_fraction=0.95, eps_schedule=(0.05, 0.2), min_pts=2, seed=21,
        )
        save_database(db, api_db)
        assert cli_db.read_bytes() == api_db.read_bytes()


class TestSynth:
    def test_synth_writes_corpus_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert dispatch(["synth", "--out", str(out), "--seed", "3"]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        ops_files = list(out.glob("*/*.ops"))
        assert len(ops_files) == 6 * 3 * 40 + 200


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestCsvQuoting:
    """Labels and sample ids holding CSV syntax come back from every CSV output intact."""

    LABELS = ["benign", 'fam"b', "fam,a"]

    @pytest.fixture(scope="class")
    def awkward_corpus(self, tiny_corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("awkward") / "corpus"
        shutil.copytree(tiny_corpus, root)
        (root / "fam00").rename(root / "fam,a")
        (root / "fam01").rename(root / 'fam"b')
        sample = sorted((root / "fam,a").glob("*.ops"))[0]
        sample.rename(root / "fam,a" / "x,y.ops")
        return root

    def test_classify_row(self, awkward_corpus, tmp_path, capsys):
        db_path = tmp_path / "awkward.sigdb.json"
        assert dispatch(["train", "--corpus", str(awkward_corpus), "--db", str(db_path)]) == 0
        capsys.readouterr()
        sample = awkward_corpus / "fam,a" / "x,y.ops"
        assert dispatch(["classify", "--db", str(db_path), "--input", str(sample)]) == 0
        [row] = _csv_rows(capsys.readouterr().out)
        assert len(row) == 4
        assert row[:2] == ["x,y", "fam,a"]
        assert row[2].startswith("fam,a/")
        float(row[3])

    def test_eval_reports(self, awkward_corpus, tmp_path, capsys):
        out = tmp_path / "reports"
        assert dispatch(["eval", "--corpus", str(awkward_corpus), "--out", str(out),
                         "--k", "3"]) == 0
        capsys.readouterr()
        rundir = next(out.iterdir())
        multiclass = _csv_rows((rundir / "multiclass_confusion.csv").read_text())
        assert multiclass[0] == ["true/predicted", *self.LABELS]
        assert [row[0] for row in multiclass[1:]] == self.LABELS
        assert {len(row) for row in multiclass} == {4}
        binary = _csv_rows((rundir / "binary_confusion.csv").read_text())
        assert {len(row) for row in binary} == {3}
        metrics = _csv_rows((rundir / "metrics.csv").read_text())
        assert {len(row) for row in metrics} == {2}
        assert [row[0] for row in metrics[-3:]] == [f"tpr_{label}" for label in self.LABELS]

    def test_investigate_table(self, awkward_corpus, capsys):
        assert dispatch(["investigate", "--corpus", str(awkward_corpus)]) == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert rows[0] == ["family", *self.LABELS]
        assert [row[0] for row in rows[1:]] == self.LABELS
        assert {len(row) for row in rows} == {4}

    def test_cluster_report_rows(self, awkward_corpus, capsys):
        assert dispatch(["cluster-report", "--corpus", str(awkward_corpus)]) == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert {len(row) for row in rows} == {5}
        assert {row[1] for row in rows[1:]} == set(self.LABELS)


class TestEpsFlag:
    """``--eps`` parses to floats, then every value goes through the library's check."""

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0.1,abc", "could not convert string to float: 'abc'"),
            ("true", "could not convert string to float: 'true'"),
            ("0.1,nan", "eps values must lie in (0, 1], got nan"),
            ("0,0.1", "eps values must lie in (0, 1], got 0.0"),
        ],
    )
    def test_bad_eps_exits_2_without_traceback(self, value, message, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "db.sigdb.json"
        assert dispatch(["train", "--corpus", str(tiny_corpus), "--db", str(out), "--eps", value]) == 2
        err = capsys.readouterr().err
        assert f"error: argument --eps: {message}\n" in err
        assert "Traceback" not in err
        assert not out.exists()
