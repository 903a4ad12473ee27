"""A study spec's budgets are checked when the study is created and loaded.

A budget that is NaN or infinite never binds, so every report would be
recorded feasible: a silently disabled constraint.  A ``bool`` or a
string is not a budget either.  Each is refused with
:class:`InvalidParamsError` naming the budget, and nothing is left on
disk.
"""

from __future__ import annotations

import json

import pytest

from repro.service import InvalidParamsError
from repro.service.store import STUDY_JOURNAL_FORMAT, ManagedStudy
from repro.space.params import ContinuousParameter
from repro.space.space import SearchSpace

pytestmark = pytest.mark.service

BAD_BUDGETS = [
    pytest.param("power_budget_w", float("nan"), id="power-nan"),
    pytest.param("memory_budget_bytes", float("inf"), id="memory-inf"),
    pytest.param("latency_budget_s", True, id="latency-bool"),
    pytest.param("power_budget_w", "abc", id="power-str"),
    pytest.param("memory_budget_bytes", 0.0, id="memory-zero"),
]


def _spec(budget: str, value) -> dict:
    space = SearchSpace([ContinuousParameter("lr", 1e-3, 1.0, log=True)])
    return {"name": "budgeted", "space": space.to_dict(), budget: value}


@pytest.mark.parametrize("budget, value", BAD_BUDGETS)
def test_bad_budget_is_refused_at_create(service, budget, value):
    with pytest.raises(InvalidParamsError, match=budget):
        service.create_study(_spec(budget, value))
    assert not (service.root / "budgeted").exists()
    assert service.list_studies() == []


@pytest.mark.parametrize("budget, value", BAD_BUDGETS)
def test_bad_budget_in_a_journal_header_fails_load(tmp_path, budget, value):
    directory = tmp_path / "budgeted"
    directory.mkdir()
    header = {"format": STUDY_JOURNAL_FORMAT, "meta": {"spec": _spec(budget, value)}}
    (directory / "study.jsonl").write_text(json.dumps(header) + "\n")
    with pytest.raises(InvalidParamsError, match=budget):
        ManagedStudy.load(directory)

