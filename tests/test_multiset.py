import pytest
from hypothesis import given
from hypothesis import strategies as st

from mananets import COUNT_MAX, EMPTY, CountOverflowError, Multiset

multisets = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), st.integers(1, 6), max_size=4
).map(Multiset)

naturals = st.integers(0, 5)


def test_sum_pointwise():
    assert Multiset({"ATP": 1}) + Multiset({"ATP": 1, "H2O": 1}) == Multiset({"ATP": 2, "H2O": 1})


def test_sum_unit():
    assert EMPTY + Multiset({"u": 3}) == Multiset({"u": 3})


def test_sum_merges_pool_knowledge():
    # 3+1 = 4 and 0+8 = 8
    assert Multiset({"u": 3}) + Multiset({"u": 1, "v": 8}) == Multiset({"u": 4, "v": 8})


def test_diff_pointwise():
    got = Multiset({"ATP": 2, "H2O": 1}).minus(Multiset({"ATP": 1, "H2O": 1}))
    assert got == Multiset({"ATP": 1})


def test_diff_undefined_is_none():
    assert EMPTY.minus(Multiset({"hydrolysis": 1})) is None


@given(multisets)
def test_diff_unit(a):
    assert a.minus(EMPTY) == a


def test_scale_examples():
    assert 2 * Multiset({"u": 1}) == Multiset({"u": 2})
    assert 0 * Multiset({"u": 5}) == EMPTY
    assert 3 * Multiset({"u": 1, "v": 2}) == Multiset({"u": 3, "v": 6})


def test_leq_examples():
    ab = Multiset({"A": 1, "B": 1})
    assert ab <= ab
    assert not ab <= Multiset({"A": 1})
    assert EMPTY <= ab


def test_geq_is_leq_reflected():
    # Multiset has no __ge__: Python answers a >= b with b <= a.
    ab, a = Multiset({"A": 1, "B": 1}), Multiset({"A": 1})
    assert ab >= a and ab >= ab and a >= EMPTY
    assert not a >= ab
    with pytest.raises(TypeError):
        ab >= 5
    with pytest.raises(TypeError):
        5 >= ab


@given(multisets, multisets, multisets)
def test_commutative_monoid(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + EMPTY == a


@given(multisets, multisets)
def test_diff_inverts_sum(a, b):
    assert (a + b).minus(b) == a


@given(multisets, multisets)
def test_diff_defined_iff_leq(a, b):
    assert (a.minus(b) is not None) == (b <= a)


@given(naturals, naturals, multisets)
def test_scale_distributes(m, n, a):
    assert (m + n) * a == m * a + n * a


@given(multisets, multisets)
def test_hash_respects_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_zero_counts_not_stored():
    assert Multiset({"a": 0, "b": 1}) == Multiset({"b": 1})
    assert "a" not in Multiset({"a": 0})


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        Multiset({"a": -1})


def test_non_int_count_rejected():
    with pytest.raises(TypeError):
        Multiset({"a": 1.5})
    with pytest.raises(TypeError):
        Multiset({"a": True})


def test_non_string_symbol_rejected():
    with pytest.raises(TypeError, match="symbols must be strings, got 1"):
        Multiset({1: 1})


def test_operands_of_the_wrong_type_or_sign_are_refused():
    # `+` and `*` answer NotImplemented for a foreign operand (a bool is not
    # a scale factor), so Python raises TypeError; a negative factor is a
    # ValueError.
    with pytest.raises(TypeError):
        Multiset() + 1
    with pytest.raises(TypeError):
        Multiset() * True
    with pytest.raises(ValueError, match="scale factor must be >= 0, got -1"):
        Multiset() * -1


def test_sum_overflow_is_hard_error():
    big = Multiset({"a": COUNT_MAX})
    with pytest.raises(CountOverflowError):
        big + Multiset({"a": 1})


def test_scale_overflow_is_hard_error():
    with pytest.raises(CountOverflowError):
        2 * Multiset({"a": COUNT_MAX})


def test_restrict_and_drop():
    m = Multiset({"a": 2, "b": 1})
    assert m.drop(["a"]) == Multiset({"b": 1})


def test_accessors():
    m = Multiset({"b": 2, "a": 1})
    assert m["a"] == 1 and m["missing"] == 0
    assert m.support() == ("a", "b")
    assert m.items() == [("a", 1), ("b", 2)]
    assert m.total() == 3
    assert m.as_dict() == {"a": 1, "b": 2}
    assert bool(m) and not bool(EMPTY)
