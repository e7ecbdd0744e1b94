"""Opcode-graph signatures for malware detection and family attribution.

Pipeline: parse samples into opcode sequences, build bigram transition
graphs over a filtered shared vocabulary, discover per-family sub-family
clusters with multi-round density clustering over graph distances, merge
each cluster into a signature graph, and classify unknown samples by their
nearest signature. A Markov-chain corpus generator and a k-fold evaluation
harness support desk-scale experiments with planted ground truth.
"""

from .classifier import Prediction, classify, classify_batch, classify_binary
from .clusterer import (
    DEFAULT_EPS_SCHEDULE,
    DEFAULT_MIN_PTS,
    Cluster,
    ClusterSet,
    DistanceMatrix,
    compute_distance_matrix,
    dbscan,
    multi_round_cluster,
    submatrix,
)
from .errors import OpsigError
from .evaluation import (
    DEFAULT_K,
    EvalConfig,
    baseline_comparison,
    family_similarity_table,
    run_crossval,
    stratified_kfold,
)
from .ingest import (
    BENIGN_LABEL,
    OpcodeSequence,
    load_corpus,
    normalize_mnemonic,
    parse_disassembly_listing,
    parse_mnemonic_lines,
)
from .opgraph import (
    DEFAULT_RETAIN_FRACTION,
    BigramCounts,
    OpcodeGraph,
    OpcodeVocabulary,
    ScoreValue,
    build_graph,
    build_vocabulary,
    count_bigrams,
    graph_distance,
    merge_counts,
)
from .signatures import (
    DEFAULT_SEED,
    Signature,
    SignatureDatabase,
    build_database,
    load_database,
    save_database,
)
from .synthcorpus import (
    DEFAULT_CONFIG,
    CorpusConfig,
    FamilyModel,
    derive_subfamily,
    generate_corpus,
    make_family_model,
    sample_sequence,
    write_corpus,
)

__version__ = "0.1.0"
