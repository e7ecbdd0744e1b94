"""Opcode-graph signatures for malware detection and family attribution.

Pipeline: parse samples into opcode sequences, build bigram transition
graphs over a filtered shared vocabulary, discover per-family sub-family
clusters with multi-round density clustering over graph distances, merge
each cluster into a signature graph, and classify unknown samples by their
nearest signature. A Markov-chain corpus generator and a k-fold evaluation
harness support desk-scale experiments with planted ground truth.

The root exports the README example's names and ``EvalConfig``; import the rest from their modules.
"""

from .classifier import classify
from .evaluation import baseline_comparison, family_similarity_table, run_crossval
from .signatures import EvalConfig, build_database
from .synthcorpus import generate_corpus

__version__ = "0.1.0"
