"""Fixed-seed outputs of the batched engines stay bit-identical.

See :mod:`tests.golden.cases` for what is hashed and how to regenerate
``digests.json`` when a change is meant to alter an output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.registry import list_experiments
from tests.golden.cases import (
    DIGESTS_PATH,
    EXPERIMENTS,
    REGENERATE,
    UNDIGESTED_EXPERIMENTS,
    cases,
)

RECORD = json.loads(DIGESTS_PATH.read_text())
CASES = cases()


def _numpy_minor(version: str) -> tuple[str, ...]:
    return tuple(version.split(".")[:2])


def test_case_set_matches_record():
    assert sorted(CASES) == sorted(RECORD["digests"])


def test_every_registered_experiment_is_digested_or_excused():
    # A new experiment fails here until it gets a case or a stated reason.
    registered = sorted(spec.experiment_id for spec in list_experiments())
    assert not set(EXPERIMENTS) & set(UNDIGESTED_EXPERIMENTS)
    assert registered == sorted([*EXPERIMENTS, *UNDIGESTED_EXPERIMENTS])


def test_record_names_its_provenance():
    assert RECORD["command"] == REGENERATE
    assert RECORD["numpy"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_digest_unchanged(case_id):
    if _numpy_minor(np.__version__) != _numpy_minor(RECORD["numpy"]):
        # Generator streams may change between numpy feature releases, so a
        # digest is only meaningful under the release series it was taken on.
        pytest.skip(f"digests recorded under numpy {RECORD['numpy']}, running {np.__version__}")
    assert CASES[case_id]() == RECORD["digests"][case_id], (
        f"{case_id}: fixed-seed output changed; if intended, regenerate with `{REGENERATE}`"
    )
