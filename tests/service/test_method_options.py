"""A study spec's ``method_options`` are checked when the study is created.

They are :class:`~repro.core.spec.RunSpec` method fields: an ill-typed
value, an unknown choice, an unknown key or a budget, pool or scheduler
key is refused with :class:`InvalidParamsError` before anything reaches
disk, and a journal header carrying such a spec refuses to load with the
same typed error instead of failing on a later ``suggest``.
"""

from __future__ import annotations

import json

import pytest

from repro.service import InvalidParamsError, StudySpec
from repro.service.store import STUDY_JOURNAL_FORMAT, ManagedStudy
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace

pytestmark = pytest.mark.service


def _spec(solver: str, method_options) -> dict:
    space = SearchSpace(
        [
            IntegerParameter("units", 0, 64),
            ContinuousParameter("lr", 1e-3, 1.0, log=True),
        ]
    )
    return {
        "name": "opts",
        "space": space.to_dict(),
        "solver": solver,
        "seed": 5,
        "power_budget_w": 100.0,
        "method_options": method_options,
    }


@pytest.mark.parametrize(
    "solver, options, field",
    [
        ("HW-IECI", {"gp_restarts": 2.5}, "gp_restarts"),
        ("Rand", {"surrogate": "bogus"}, "surrogate"),
        ("Rand", {"n_init": True}, "n_init"),
        ("Rand", {"backend": "serial"}, "backend"),
        ("Rand", {"no_such_knob": 1}, "no_such_knob"),
        ("HW-IECI", {"fantasy": "cl-min"}, "fantasy"),
    ],
)
def test_bad_method_options_are_refused_at_create(service, solver, options, field):
    with pytest.raises(InvalidParamsError, match=field):
        service.create_study(_spec(solver, options))
    assert not (service.root / "opts" / "study.jsonl").exists()
    assert service.list_studies() == []


def test_knobs_the_solver_ignores_are_accepted(service):
    service.create_study(_spec("Rand", {"n_init": 3, "gp_restarts": 1}))
    assert len(service.suggest("opts", 2)) == 2


def test_refused_spec_in_a_journal_header_fails_load(tmp_path):
    directory = tmp_path / "opts"
    directory.mkdir()
    header = {
        "format": STUDY_JOURNAL_FORMAT,
        "meta": {"spec": _spec("HW-IECI", {"gp_restarts": 2.5})},
    }
    (directory / "study.jsonl").write_text(json.dumps(header) + "\n")
    with pytest.raises(InvalidParamsError, match="gp_restarts"):
        ManagedStudy.load(directory)
    with pytest.raises(InvalidParamsError, match="gp_restarts"):
        StudySpec.from_dict(header["meta"]["spec"])


def test_a_stored_fantasy_option_fails_load(tmp_path):
    # ``fantasy`` was a method option; cl-min is now the only behaviour,
    # so a stored spec that still names it is refused, not ignored.
    directory = tmp_path / "opts"
    directory.mkdir()
    header = {
        "format": STUDY_JOURNAL_FORMAT,
        "meta": {"spec": _spec("HW-IECI", {"fantasy": "cl-mean"})},
    }
    (directory / "study.jsonl").write_text(json.dumps(header) + "\n")
    with pytest.raises(InvalidParamsError, match="fantasy"):
        ManagedStudy.load(directory)
