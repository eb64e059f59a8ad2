"""Candidate-count accounting shared by every exhaustive enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_ENUM_BUDGET = 2**20


class BudgetExceeded(Exception):
    """An enumeration would scan more candidates than its budget allows."""

    def __init__(self, needed: int, limit: int, what: str = "enumeration"):
        self.needed = needed
        self.limit = limit
        self.what = what
        super().__init__(f"{what} needs {needed} candidates, budget is {limit}")


@dataclass
class EnumerationBudget:
    """Max candidates and a running count.  charge() must be called with
    the full candidate-space size before a scan starts; partial scans
    are never silently truncated."""

    limit: int = DEFAULT_ENUM_BUDGET
    spent: int = field(default=0)

    def charge(self, n: int, what: str = "enumeration") -> None:
        if n > self.limit:
            raise BudgetExceeded(n, self.limit, what)
        self.spent += n


def as_budget(budget) -> EnumerationBudget:
    if budget is None:
        return EnumerationBudget()
    if isinstance(budget, int):
        return EnumerationBudget(limit=budget)
    return budget
