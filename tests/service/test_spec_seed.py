"""A study spec's ``seed`` is checked when the study is created and loaded.

The seed roots the study's proposal RNG, so it must be a non-negative
``int``: a negative value, a ``bool`` or a string is refused with
:class:`InvalidParamsError` naming ``seed``, and nothing is left on disk.
"""

from __future__ import annotations

import json

import pytest

from repro.service import InvalidParamsError, StudySpec
from repro.service.store import STUDY_JOURNAL_FORMAT, ManagedStudy
from repro.space.params import ContinuousParameter
from repro.space.space import SearchSpace

pytestmark = pytest.mark.service

BAD_SEEDS = [
    pytest.param(-1, id="negative"),
    pytest.param(True, id="bool"),
    pytest.param("3", id="str"),
]


def _spec(seed) -> dict:
    space = SearchSpace([ContinuousParameter("lr", 1e-3, 1.0, log=True)])
    return {"name": "seeded", "space": space.to_dict(), "seed": seed}


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_bad_seed_is_refused_at_create(service, seed):
    with pytest.raises(InvalidParamsError, match="seed"):
        service.create_study(_spec(seed))
    assert not (service.root / "seeded").exists()
    assert service.list_studies() == []


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_bad_seed_in_a_journal_header_fails_load(tmp_path, seed):
    directory = tmp_path / "seeded"
    directory.mkdir()
    header = {"format": STUDY_JOURNAL_FORMAT, "meta": {"spec": _spec(seed)}}
    (directory / "study.jsonl").write_text(json.dumps(header) + "\n")
    with pytest.raises(InvalidParamsError, match="seed"):
        ManagedStudy.load(directory)


def test_a_study_that_cannot_be_built_leaves_no_directory(tmp_path, monkeypatch):
    def fail(spec):
        raise InvalidParamsError("cannot build")

    monkeypatch.setattr("repro.service.store._build_study", fail)
    spec = StudySpec.from_dict(_spec(0))
    with pytest.raises(InvalidParamsError):
        ManagedStudy.create(spec, tmp_path / "seeded")
    assert not (tmp_path / "seeded").exists()
