"""Plain-data results for law checkers."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass


@dataclass(frozen=True)
class LawResult:
    """Outcome of one law check: "pass", or "fail" with a counterexample."""

    law: str
    status: str
    counterexample: Mapping | None = None

    def to_json_dict(self) -> dict:
        out = {"law": self.law, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
        return out


@dataclass(frozen=True)
class LawReport:
    """A batch of law results plus free-form notes about the check."""

    results: tuple[LawResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_list(self) -> list[dict]:
        return [r.to_json_dict() for r in self.results]


def law_result(law: str, counterexample: Mapping | None) -> LawResult:
    """A law passes exactly when it has no counterexample."""
    if counterexample is None:
        return LawResult(law, "pass")
    return LawResult(law, "fail", counterexample)
