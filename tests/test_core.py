import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padc import GridParams, interval_width, shortest_path_point
from padc.reference import (
    DigitVec,
    common_path_len,
    cut_digits,
    digit_reverse,
    drop_digits,
    joint_trimmed_len,
    leading_path_digits,
    lift,
    ord_p,
    path_digit,
    prefix_agreement,
    prefix_rescale,
    squeeze_second_digit,
    take_digits,
    to_index,
    to_path,
    trimmed_len,
)
from oracles import brute_common_prefix, brute_select_point

P2N3 = GridParams(2, 3)
P2N2 = GridParams(2, 2)
P2N4 = GridParams(2, 4)
P3N2 = GridParams(3, 2)

# Index <-> path <-> path-value rows for the full level-3 binary grid.
LEVEL3 = [
    ((0, 0, 0), 0, 0),
    ((0, 0, 1), 4, 1),
    ((0, 1, 0), 2, 2),
    ((0, 1, 1), 6, 3),
    ((1, 0, 0), 1, 4),
    ((1, 0, 1), 5, 5),
    ((1, 1, 0), 3, 6),
    ((1, 1, 1), 7, 7),
]

LEVEL2_P3 = [
    ((0, 0), 0, 0),
    ((0, 1), 3, 1),
    ((0, 2), 6, 2),
    ((1, 0), 1, 3),
    ((1, 1), 4, 4),
    ((1, 2), 7, 5),
    ((2, 0), 2, 6),
    ((2, 1), 5, 7),
    ((2, 2), 8, 8),
]


def grids(max_n, primes=(2, 3, 5)):
    for p in primes:
        for n in range(1, max_n + 1):
            yield GridParams(p, n)


class TestGridParams:
    def test_valid(self):
        params = GridParams(2, 31)
        assert params.size == 2**31
        assert params.powers[31] == 2**31

    def test_derived_fields_stay_out_of_eq_and_repr(self):
        params = GridParams(5, 3)
        assert params.powers == (1, 5, 25, 125)
        assert params.size == 125
        assert "size" not in repr(params) and "powers" not in repr(params)

    @pytest.mark.parametrize(
        "p, n, cap", [(2, 31, 2**29), (3, 20, 3**18), (5, 2, 1), (3, 1, 0)]
    )
    def test_cap_is_derived_and_leaves_the_record_as_it_was(self, p, n, cap):
        # cap = P**(N-2), 0 below level 2, stays out of eq, hash and repr,
        # and copy and pickle keep it.
        params = GridParams(p, n)
        assert params.cap == cap
        assert params == GridParams(P=p, N=n) and hash(params) == hash((p, n))
        assert repr(params) == f"GridParams(P={p}, N={n})"
        for twin in (copy.copy(params), pickle.loads(pickle.dumps(params))):
            assert twin == params and hash(twin) == hash(params)
            assert twin.cap == cap

    def test_subclass_is_never_equal(self):
        class Child(GridParams):
            pass

        assert Child(3, 20) != GridParams(3, 20)
        assert repr(Child(3, 20)).endswith("Child(P=3, N=20)")

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100])
    def test_rejects_nonprime(self, p):
        with pytest.raises(ValueError):
            GridParams(p, 3)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            GridParams(2, 0)
        with pytest.raises(ValueError):
            GridParams(2, 80)


# Each frozen record with an equal twin, a record that differs in one
# field, and its repr.
FROZEN = [
    (
        GridParams(3, 20),
        GridParams(P=3, N=20),
        GridParams(3, 19),
        "GridParams(P=3, N=20)",
    ),
    (
        DigitVec([1, 0, 2], 3),
        DigitVec((1, 0, 2), p=3),
        DigitVec((1, 0, 2), 5),
        "DigitVec(digits=(1, 0, 2), p=3)",
    ),
]


@pytest.mark.parametrize("x, twin, other, text", FROZEN, ids=["GridParams", "DigitVec"])
class TestFrozenRecords:
    def test_eq_hash_repr(self, x, twin, other, text):
        assert x == twin and hash(x) == hash(twin)
        assert x != other
        assert len({x, twin, other}) == 2
        assert repr(x) == text
        # Equal only to the same class, as a dataclass is.
        assert x.__eq__(tuple(vars(x).values())) is NotImplemented

    def test_copy_and_pickle(self, x, twin, other, text):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert vars(y) == vars(x)

    def test_immutable(self, x, twin, other, text):
        name = next(iter(vars(x)))
        for attr in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 1)
            with pytest.raises(AttributeError):
                delattr(x, attr)
        assert vars(x) == vars(twin)


class TestDigitVec:
    def test_value_and_indexing(self):
        x = DigitVec((0, 1, 1), 2)
        assert x.value == 6
        assert x[0] == 0 and x[2] == 1
        assert len(x) == 3

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            DigitVec((0, 2), 2)

    def test_from_value(self):
        assert DigitVec.from_value(6, 2, 3).digits == (0, 1, 1)
        with pytest.raises(ValueError):
            DigitVec.from_value(8, 2, 3)


class TestIndexPathMapping:
    @pytest.mark.parametrize("digits,value,index", LEVEL3)
    def test_level3_table(self, digits, value, index):
        path = to_path(index, P2N3)
        assert path.digits == digits
        assert path.value == value
        assert to_index(DigitVec(digits, 2)) == index
        assert digit_reverse(index, P2N3) == value

    @pytest.mark.parametrize("digits,value,index", LEVEL2_P3)
    def test_level2_p3_table(self, digits, value, index):
        path = to_path(index, P3N2)
        assert path.digits == digits
        assert path.value == value
        assert to_index(path) == index

    def test_to_path_examples(self):
        assert to_path(1, P2N3).digits == (0, 0, 1)
        assert to_path(1, P2N3).value == 4
        assert to_path(0, GridParams(5, 4)).digits == (0, 0, 0, 0)
        assert to_path(1, P3N2).digits == (0, 1)
        assert to_path(1, P3N2).value == 3

    def test_to_index_examples(self):
        assert to_index(DigitVec((0, 1, 1), 2)) == 3
        assert to_index(DigitVec((0, 0, 0), 2)) == 0
        assert to_index(DigitVec((1, 0, 0), 2)) == 4

    def test_involution_exhaustive(self):
        for params in grids(8):
            for k in range(params.size):
                assert to_index(to_path(k, params)) == k
                assert digit_reverse(digit_reverse(k, params), params) == k

    def test_rejects_out_of_ring(self):
        with pytest.raises(ValueError):
            to_path(8, P2N3)
        with pytest.raises(ValueError):
            to_path(-1, P2N3)


class TestValuation:
    def test_examples(self):
        assert ord_p(6, 2) == 1
        assert ord_p(4, 2) == 2

    def test_against_trial_division(self):
        def oracle(x, p):
            r = 0
            while x % p == 0:
                x //= p
                r += 1
            return r

        assert oracle(18, 3) == 2
        assert ord_p(18, 3) == 2
        for p in (2, 3, 5):
            for x in range(1, 2000):
                assert ord_p(x, p) == oracle(x, p)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ord_p(0, 2)

    def test_ring_symmetry(self):
        # ord of k and of P**N - k agree below valuation N
        for params in grids(6, primes=(2, 3)):
            for k in range(1, params.size):
                if ord_p(k, params.P) < params.N:
                    assert ord_p(k, params.P) == ord_p(params.size - k, params.P)


class TestPrefixAgreement:
    def test_examples(self):
        assert prefix_agreement(0, 2, P2N2) == 1
        assert prefix_agreement(3, 3, P2N2) == 2
        assert prefix_agreement(0, 1, P2N2) == 0

    def test_distance_table(self):
        # pairwise distances P**-agreement for path values {2, 6, 1}
        assert prefix_agreement(2, 6, P2N3) == 2
        assert prefix_agreement(2, 1, P2N3) == 0
        assert prefix_agreement(6, 1, P2N3) == 0

    def test_ultrametric_exhaustive(self):
        import numpy as np

        for params in grids(5, primes=(2, 3)):
            size = params.size
            table = np.empty((size, size), dtype=np.int64)
            for x in range(size):
                for y in range(size):
                    table[x, y] = prefix_agreement(x, y, params)
            for y in range(size):
                lhs = np.minimum.outer(table[:, y], table[y, :])
                assert (table >= lhs).all()

    def test_kozyrev_inequality(self):
        # |a - b| * P**-N <= P**-agreement(path(a), path(b))
        for params in grids(5, primes=(2, 3)):
            for a in range(params.size):
                for b in range(params.size):
                    va = digit_reverse(a, params)
                    vb = digit_reverse(b, params)
                    n = prefix_agreement(va, vb, params)
                    assert abs(a - b) * params.powers[n] <= params.size


COMMON_PATH_TABLE = [
    (0, 1, 2, (0, 0)),
    (0, 2, 1, (0,)),
    (0, 3, 0, ()),
    (0, 0, 0, ()),
    (1, 2, 2, (0, 1)),
    (1, 3, 0, ()),
    (1, 0, 0, ()),
    (2, 3, 2, (1, 0)),
    (2, 0, 1, (1,)),
    (3, 0, 2, (1, 1)),
]


class TestCommonPathLen:
    @pytest.mark.parametrize("l,r,n,prefix", COMMON_PATH_TABLE)
    def test_level2_table(self, l, r, n, prefix):
        assert common_path_len(l, r, P2N2) == n
        assert take_digits(to_path(l, P2N2), n) == prefix
        assert brute_common_prefix(l, r, P2N2) == prefix

    def test_matches_path_value_form(self):
        for params in grids(5, primes=(2, 3)):
            for l in range(params.size):
                for r in range(params.size):
                    if r != 0 and r <= l:
                        continue
                    r1 = (r - 1) % params.size
                    expect = prefix_agreement(
                        digit_reverse(l, params), digit_reverse(r1, params), params
                    )
                    assert common_path_len(l, r, params) == expect

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            common_path_len(3, 3, P2N2)

    def test_brute_agreement_exhaustive(self):
        for params in grids(4, primes=(2, 3)):
            for l in range(params.size):
                for r in list(range(l + 1, params.size)) + [0]:
                    n = common_path_len(l, r, params)
                    assert len(brute_common_prefix(l, r, params)) == n

    def test_nesting_monotonicity(self):
        params = GridParams(2, 6)
        for l1, r1, l, r in [(0, 32, 8, 16), (4, 40, 8, 12), (32, 0, 40, 48)]:
            assert common_path_len(l1, r1, params) <= common_path_len(l, r, params)

    def test_msb_rule_p2(self):
        import random

        rng = random.Random(5)
        for _ in range(500):
            params = GridParams(2, rng.randint(2, 16))
            l = rng.randrange(params.size)
            r = rng.choice([0, *range(l + 1, params.size)] if l else [0])
            if r == 0 and l == 0:
                r = rng.randrange(1, params.size)
            msb = params.size // 2
            r1 = (r - 1) % params.size
            assert (common_path_len(l, r, params) > 0) == ((l >= msb) == (r1 >= msb))


class TestDigitSurgery:
    def test_take(self):
        assert take_digits(DigitVec((0, 0, 1), 2), 1) == (0,)
        assert take_digits(DigitVec((1, 0), 2), 0) == ()
        assert take_digits(DigitVec((1, 1, 0, 1), 2), 3) == (1, 1, 0)
        assert take_digits(DigitVec((1, 1, 0, 1), 2)) == (1, 1, 0, 1)
        with pytest.raises(ValueError):
            take_digits(DigitVec((1,), 2), 2)

    def test_drop(self):
        out = drop_digits(DigitVec((0, 0, 1), 2), 1)
        assert out.digits == (0, 1) and out.value == 2
        assert drop_digits(DigitVec((1, 1, 0), 2), 0).digits == (1, 1, 0)
        assert to_index(drop_digits(DigitVec((0, 1, 1), 2), 1)) == 3
        with pytest.raises(ValueError):
            drop_digits(DigitVec((1,), 2), 2)

    def test_lift(self):
        assert lift(DigitVec((0, 1, 0), 2), 1).digits == (0, 1, 0, 0)
        x = DigitVec((1, 0, 1), 2)
        assert lift(x, 0).digits == x.digits
        assert lift(DigitVec((1, 1, 0, 0), 2), -2).digits == (1, 1)
        with pytest.raises(ValueError):
            lift(DigitVec((1, 1), 2), -1)

    def test_lift_preserves_value(self):
        x = DigitVec((0, 1, 2), 3)
        assert lift(x, 2).value == x.value

    def test_cut(self):
        assert cut_digits(DigitVec((0, 1, 1, 0), 2), 1, 1).digits == (0, 1, 0)
        x = DigitVec((1, 0, 1), 2)
        assert cut_digits(x, 0, 0).digits == x.digits
        assert cut_digits(DigitVec((1, 0, 1, 0), 2), 1, 1).digits == (1, 1, 0)
        with pytest.raises(ValueError):
            cut_digits(x, 2, 2)

    def test_trimmed_len(self):
        assert trimmed_len(DigitVec((1, 0, 0, 0), 2)) == 1
        assert trimmed_len(DigitVec((0, 0, 0), 2)) == 0
        assert trimmed_len(DigitVec((0, 1, 0, 1), 2)) == 4

    def test_joint_trimmed_len(self):
        assert joint_trimmed_len(DigitVec((1, 0, 0, 0), 2), DigitVec((0, 1, 0, 1), 2)) == 4
        assert joint_trimmed_len(DigitVec((0, 0), 2), DigitVec((0, 0), 2)) == 0
        assert joint_trimmed_len(DigitVec((0, 1), 2), DigitVec((1, 0), 2)) == 2


class TestShortestPathPoint:
    def test_examples(self):
        assert shortest_path_point(5, 10, P2N4) == 8
        assert shortest_path_point(0, 13, P2N4) == 0
        assert shortest_path_point(3, 5, P2N3) == 4

    def test_full_interval(self):
        assert shortest_path_point(0, 0, P2N4) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            shortest_path_point(4, 4, P2N4)
        with pytest.raises(ValueError):
            shortest_path_point(5, 3, P2N4)

    def test_brute_agreement_exhaustive(self):
        for params in grids(4, primes=(2, 3)):
            for l in range(params.size):
                for r in list(range(l + 1, params.size)) + ([0] if l else []):
                    assert shortest_path_point(l, r, params) == brute_select_point(
                        l, r, params
                    )


@st.composite
def grid_and_index(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=2, max_value=12 if p == 2 else 6))
    params = GridParams(p, n)
    k = draw(st.integers(min_value=0, max_value=params.size - 1))
    return params, k


class TestIndexFormHelpers:
    """The codec-facing index arithmetic must match the digit-vector ops."""

    @given(grid_and_index())
    @settings(max_examples=300, deadline=None)
    def test_prefix_rescale(self, pk):
        params, k = pk
        for n in range(params.N + 1):
            expect = to_index(lift(drop_digits(to_path(k, params), n), n))
            assert prefix_rescale(k, n, params) == expect

    @given(grid_and_index())
    @settings(max_examples=300, deadline=None)
    def test_squeeze_second_digit(self, pk):
        params, k = pk
        expect = to_index(lift(cut_digits(to_path(k, params), 1, 1), 1))
        assert squeeze_second_digit(k, params) == expect

    @given(grid_and_index())
    @settings(max_examples=300, deadline=None)
    def test_leading_digits(self, pk):
        params, k = pk
        path = to_path(k, params)
        for n in range(params.N + 1):
            assert leading_path_digits(k, n, params) == path.digits[:n]
        for i in range(params.N):
            assert path_digit(k, i, params) == path[i]

    @given(grid_and_index())
    @settings(max_examples=200, deadline=None)
    def test_digit_reverse_is_path_value(self, pk):
        params, k = pk
        assert digit_reverse(k, params) == to_path(k, params).value


class TestIntervalWidth:
    def test_ring_semantics(self):
        assert interval_width(0, 0, P2N4) == 16
        assert interval_width(3, 0, P2N4) == 13
        assert interval_width(3, 7, P2N4) == 4
