"""Finitely supported multisets over string symbols.

A :class:`Multiset` maps symbols to natural counts and stores only the
nonzero ones, so structural equality coincides with pointwise equality.
Together with :meth:`Multiset.__add__` and the empty multiset this is the
free commutative monoid on the symbol alphabet; markings, mana pools and
occurrence counts are all values of this one type.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import CountOverflowError

#: Hard bound on any stored count; exceeding it on a sum or scale raises
#: CountOverflowError instead of silently growing.
COUNT_MAX = 2**63 - 1


class Multiset:
    """An immutable multiset of symbols with natural-number counts.

    >>> a = Multiset({"ATP": 1})
    >>> b = Multiset({"ATP": 1, "H2O": 1})
    >>> (a + b).as_dict()
    {'ATP': 2, 'H2O': 1}
    >>> (a + b).minus(b) == a
    True
    >>> b.minus(Multiset({"H2O": 2})) is None
    True
    >>> 2 * a
    Multiset({'ATP': 2})
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[str, int] | Iterable[tuple[str, int]] | None = None):
        counts: dict[str, int] = {}
        if entries is not None:
            pairs = entries.items() if isinstance(entries, Mapping) else entries
            for symbol, count in pairs:
                if not isinstance(symbol, str):
                    raise TypeError(f"symbols must be strings, got {symbol!r}")
                if not isinstance(count, int) or isinstance(count, bool):
                    raise TypeError(f"count for {symbol!r} must be an int, got {count!r}")
                if count < 0:
                    raise ValueError(f"count for {symbol!r} must be >= 0, got {count}")
                if count == 0:
                    continue
                total = counts.get(symbol, 0) + count
                if total > COUNT_MAX:
                    raise CountOverflowError(symbol, total)
                counts[symbol] = total
        self._entries = counts
        self._hash = None

    @classmethod
    def sum(cls, parts: Iterable[Multiset]) -> Multiset:
        """Fold a sequence of multisets with ``+``."""
        acc: dict[str, int] = {}
        for part in parts:
            for symbol, count in part._entries.items():
                total = acc.get(symbol, 0) + count
                if total > COUNT_MAX:
                    raise CountOverflowError(symbol, total)
                acc[symbol] = total
        return cls(acc)

    # -- queries ---------------------------------------------------------

    def __getitem__(self, symbol: str) -> int:
        return self._entries.get(symbol, 0)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def support(self) -> tuple[str, ...]:
        """The symbols with nonzero count, sorted."""
        return tuple(sorted(self._entries))

    def items(self) -> list[tuple[str, int]]:
        """(symbol, count) pairs, sorted by symbol."""
        return sorted(self._entries.items())

    def total(self) -> int:
        """Number of elements counted with multiplicity."""
        return sum(self._entries.values())

    def as_dict(self) -> dict[str, int]:
        """Plain dict with sorted keys, e.g. for JSON emission."""
        return dict(self.items())

    def sort_key(self) -> tuple[tuple[str, int], ...]:
        """Deterministic ordering key (lexicographic on sorted entries)."""
        return tuple(self.items())

    # -- monoid operations -------------------------------------------------

    def __add__(self, other: Multiset) -> Multiset:
        if not isinstance(other, Multiset):
            return NotImplemented
        counts = dict(self._entries)
        for symbol, count in other._entries.items():
            total = counts.get(symbol, 0) + count
            if total > COUNT_MAX:
                raise CountOverflowError(symbol, total)
            counts[symbol] = total
        return _wrap(counts)

    def minus(self, other: Multiset) -> Multiset | None:
        """Pointwise difference; None when any count would go negative."""
        counts = dict(self._entries)
        for symbol, count in other._entries.items():
            left = counts.get(symbol, 0) - count
            if left < 0:
                return None
            if left == 0:
                counts.pop(symbol, None)
            else:
                counts[symbol] = left
        return _wrap(counts)

    def __mul__(self, n: int) -> Multiset:
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            raise ValueError(f"scale factor must be >= 0, got {n}")
        if n == 0:
            return EMPTY
        counts = {}
        for symbol, count in self._entries.items():
            total = count * n
            if total > COUNT_MAX:
                raise CountOverflowError(symbol, total)
            counts[symbol] = total
        return _wrap(counts)

    __rmul__ = __mul__

    def __le__(self, other: Multiset) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        theirs = other._entries
        for symbol, count in self._entries.items():
            if count > theirs.get(symbol, 0):
                return False
        return True

    # -- restriction helpers -----------------------------------------------

    def drop(self, symbols: Iterable[str]) -> Multiset:
        """Sub-multiset supported outside the given symbols."""
        away = set(symbols)
        return _wrap({s: c for s, c in self._entries.items() if s not in away})

    # -- object protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Multiset({self.as_dict()!r})"


def _wrap(counts: dict[str, int]) -> Multiset:
    # Internal fast path: counts are already canonical (no zeros, bounded).
    ms = object.__new__(Multiset)
    ms._entries = counts
    ms._hash = None
    return ms


def _of_counts(counts: dict[str, int]) -> Multiset:
    # _wrap, or the shared EMPTY for no counts (which wraps nothing).
    return _wrap(counts) if counts else EMPTY


#: The empty multiset, unit of ``+``.
EMPTY = Multiset()
