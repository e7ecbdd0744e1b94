import hashlib
import json

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
