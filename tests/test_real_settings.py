"""One rule for real-valued settings, ``errors.check_real``, and one for pairs, ``check_pair``.

A real number (numpy's too, never a ``bool`` or a string) inside the
setting's interval is kept as a ``float``; anything else is a ``ValueError``
naming the setting, never a bare ``TypeError`` from a comparison.
"""

import math

import numpy as np
import pytest

from opsig.clusterer import DistanceMatrix, dbscan, validate_eps_schedule
from opsig.errors import check_pair, check_real
from opsig.signatures import build_database
from opsig.synthcorpus import (
    CorpusConfig,
    default_alphabet,
    derive_subfamily,
    generate_corpus,
    make_family_model,
)

_MATRIX = DistanceMatrix(("a", "b"), np.array([[0.0, 0.05], [0.05, 0.0]]))
_BASE = make_family_model(default_alphabet(6), 1)


def test_dbscan_string_eps_names_eps():
    with pytest.raises(ValueError, match=r"^eps must be positive, got '0\.1'$"):
        dbscan(_MATRIX, "0.1", 2)


def test_corpus_config_string_perturbation_names_it():
    message = r"^subfamily_perturbation must be in \[0, 1\], got '0\.3'$"
    with pytest.raises(ValueError, match=message):
        CorpusConfig(subfamily_perturbation="0.3")


def test_derive_subfamily_string_perturbation_names_it():
    with pytest.raises(ValueError, match=r"^perturbation must be in \[0, 1\], got '0\.2'$"):
        derive_subfamily(_BASE, "0.2", 3)


def test_corpus_config_scalar_length_range_names_it():
    with pytest.raises(ValueError, match=r"^length_range must be a pair of values, got 5$"):
        CorpusConfig(length_range=5)


@pytest.mark.parametrize("value", [0.0, 0.5, 1, np.float64(0.25), np.int64(1), np.float32(0.5)])
def test_real_in_interval_kept_as_float(value):
    kept = check_real("x", value, 0, 1)
    assert type(kept) is float and kept == float(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, r"^x must be in \[0, 1\], got True$"),
        ("0.5", r"^x must be in \[0, 1\], got '0\.5'$"),
        (None, r"^x must be in \[0, 1\], got None$"),
        (float("nan"), r"^x must be in \[0, 1\], got nan$"),
        (1.5, r"^x must be in \[0, 1\], got 1\.5$"),
        (-0.1, r"^x must be in \[0, 1\], got -0\.1$"),
    ],
)
def test_other_values_rejected_naming_the_setting(value, message):
    with pytest.raises(ValueError, match=message):
        check_real("x", value, 0, 1)


def test_open_low_end_and_unbounded_interval():
    with pytest.raises(ValueError, match=r"^x must be in \(0, 1\], got 0$"):
        check_real("x", 0, 0, 1, low_open=True)
    assert check_real("eps", math.inf, 0, math.inf, low_open=True) == math.inf
    with pytest.raises(ValueError, match="^eps must be positive, got 0.0$"):
        check_real("eps", 0.0, 0, math.inf, low_open=True)


@pytest.mark.parametrize("value", [(40, 120), [40, 120], np.array([40, 120])])
def test_pair_items_returned(value):
    assert check_pair("length_range", value) == (40, 120)
    assert CorpusConfig(length_range=value).length_range == (40, 120)


@pytest.mark.parametrize("value", [5, "ab", b"ab", (40,), (40, 80, 120), None])
def test_non_pairs_rejected(value):
    with pytest.raises(ValueError, match="^length_range must be a pair of values, got "):
        check_pair("length_range", value)


class TestEpsSchedule:
    """``validate_eps_schedule`` checks each value with ``check_real`` and keeps its own message."""

    @pytest.mark.parametrize(
        "schedule, kept",
        [([0.01, 0.1], (0.01, 0.1)), ([np.float64(0.5), 1], (0.5, 1.0)), ((), ())],
    )
    def test_real_values_kept_as_floats(self, schedule, kept):
        checked = validate_eps_schedule(schedule)
        assert checked == kept and all(type(value) is float for value in checked)

    @pytest.mark.parametrize(
        "schedule, shown",
        [((True,), "True"), (["0.1", "0.5"], "'0.1'"), ([None], "None"), ([0.1, math.nan], "nan")],
        ids=["bool", "strings", "none", "nan"],
    )
    def test_non_real_value_rejected_as_value_error(self, schedule, shown):
        with pytest.raises(ValueError) as caught:
            validate_eps_schedule(schedule)
        assert str(caught.value) == f"eps values must lie in (0, 1], got {shown}"

    def test_out_of_range_and_order_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^eps values must lie in \(0, 1\], got 1\.5$"):
            validate_eps_schedule([0.5, 1.5])
        with pytest.raises(ValueError, match=r"^eps values must be strictly increasing"):
            validate_eps_schedule([0.2, 0.1])

    def test_training_rejects_string_schedule(self):
        samples, _ = generate_corpus(CorpusConfig(
            families=1, subfamilies_per_family=1, samples_per_subfamily=3,
            benign_sources=1, samples_per_benign_source=3, alphabet_size=6, length_range=(20, 30),
        ))
        with pytest.raises(ValueError, match=r"^eps values must lie in \(0, 1\], got '0\.1'$"):
            build_database(samples, eps_schedule=["0.1"])
        for schedule in ("0.1", b"0.1", 0.1, None):  # read whole, not value by value
            with pytest.raises(ValueError) as caught:
                build_database(samples, eps_schedule=schedule)
            message = f"eps_schedule must be a sequence of numbers, got {schedule!r}"
            assert str(caught.value) == message
