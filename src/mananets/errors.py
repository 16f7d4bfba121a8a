"""Exception types shared across the package."""

from __future__ import annotations


class MananetsError(Exception):
    """Base class for all errors raised by this package."""


class CountOverflowError(MananetsError, OverflowError):
    """A multiset count exceeded the machine bound."""

    def __init__(self, symbol: str, count: int):
        super().__init__(f"count for {symbol!r} exceeds the bound: {count}")
        self.symbol = symbol
        self.count = count


class UnknownSymbolError(MananetsError):
    """A place or transition name that is not declared where it is used."""

    def __init__(self, symbol: str, context: str = ""):
        detail = f" in {context}" if context else ""
        super().__init__(f"unknown symbol {symbol!r}{detail}")
        self.symbol = symbol


class NotEnabledError(MananetsError):
    """A transition was fired in a marking that does not enable it."""

    def __init__(self, transition: str, index: int | None = None):
        at = f" (step {index})" if index is not None else ""
        super().__init__(f"transition {transition!r} is not enabled{at}")
        self.transition = transition
        self.index = index


class NotManaEnabledError(NotEnabledError):
    """A mana firing failed; records which side blocked it.

    `compound_ok` is False when the token side was short, `mana_ok` is
    False when the pool was short; both can be False at once.
    """

    def __init__(self, transition: str, compound_ok: bool, mana_ok: bool):
        super().__init__(transition)
        self.compound_ok = compound_ok
        self.mana_ok = mana_ok
        sides = []
        if not compound_ok:
            sides.append("tokens")
        if not mana_ok:
            sides.append("mana")
        self.args = (f"transition {transition!r} is not enabled: missing {' and '.join(sides)}",)


class TraceClassBudgetError(MananetsError):
    """A trace-equivalence search met more orderings than its budget allows."""

    def __init__(self, budget: int):
        super().__init__(f"trace class has more than {budget} orderings")
        self.budget = budget


class NameClashError(MananetsError):
    """A generated place name collides with an existing symbol."""

    def __init__(self, name: str):
        super().__init__(f"name {name!r} already exists in the net")
        self.name = name


class PolicyError(MananetsError):
    """A mana policy does not fit the net it is used with."""


class ShapeViolationError(MananetsError):
    """A net does not have the shape produced by the mana construction."""

    def __init__(self, transition: str, reason: str):
        super().__init__(f"transition {transition!r}: {reason}")
        self.transition = transition
        self.reason = reason


class DocumentError(MananetsError):
    """A net document failed to parse or validate.

    `path` points into JSON documents (e.g. ``$.pool.u``); `line`/`col`
    locate errors in DSL text.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, col: int | None = None):
        where = ""
        if path is not None:
            where = f" at {path}"
        elif line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)
        self.message = message
        self.path = path
        self.line = line
        self.col = col
