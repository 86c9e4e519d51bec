import random
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padc import (
    AdaptiveModel,
    GridParams,
    HuffmanModel,
    StaticModel,
    UnaryModel,
    canonical_codebook,
    code_lengths,
    decode,
    encode,
    huffman_code_lengths,
    interval_width,
)
from helpers import random_binary_book, random_pary_book, scaled_counts

P2N4 = GridParams(2, 4)
P2N6 = GridParams(2, 6)

PAPER_BOOK = {0: (0, 0, 0), 1: (0, 0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1)}


def tile_check(model, l, r):
    """Symbol subintervals must tile [l, r) exactly, in cum order."""
    size = model.params.size
    w = interval_width(l, r, model.params)
    seen = []
    for s in range(model.num_symbols):
        seen.append(model.code(s, l, r))
    widths = sum(interval_width(a, b, model.params) for a, b in seen)
    assert widths == w
    # edges chain once sorted by offset from l
    seen.sort(key=lambda ab: (ab[0] - l) % size)
    assert seen[0][0] == l
    assert seen[-1][1] == r
    for (a1, b1), (a2, b2) in zip(seen, seen[1:]):
        assert b1 == a2


class TestStaticModel:
    def test_paper_weight_table(self):
        m = StaticModel([8, 4, 2, 2], P2N4)
        assert m.cum == [0, 8, 12, 14, 16]

    def test_minimal_table(self):
        m = StaticModel([1, 1], P2N4)
        assert m.cum == [0, 1, 2]
        assert m.eom == 1

    def test_code_sequence(self):
        m = StaticModel([8, 4, 2, 2], P2N4)
        assert m.code(0, 0, 0) == (0, 8)
        assert m.code(1, 0, 8) == (4, 6)
        assert m.code(0, 4, 6) == (4, 5)

    def test_decode_inverse(self):
        m = StaticModel([8, 4, 2, 2], P2N4)
        assert m.decode(4, 0, 0) == (0, 8, 0)

    def test_decode_code_inverse_exhaustive(self):
        params = P2N6
        m = StaticModel([5, 3, 2, 1, 1], params)
        for l, r in [(0, 0), (0, 40), (12, 0), (7, 61), (32, 0)]:
            w = interval_width(l, r, params)
            for off in range(w):
                g = (l + off) % params.size
                l2, r2, s = m.decode(g, l, r)
                assert m.code(s, l, r) == (l2, r2)
                assert (g - l2) % params.size < interval_width(l2, r2, params)

    def test_errors(self):
        with pytest.raises(ValueError):
            StaticModel([3, 0, 1], P2N4)
        with pytest.raises(ValueError):
            StaticModel([], P2N4)
        m = StaticModel([8, 4, 2, 2], P2N4)
        with pytest.raises(ValueError):
            m.code(9, 0, 0)
        with pytest.raises(ValueError):
            m.decode(9, 0, 8)
        with pytest.raises(ValueError):
            m.code(1, 4, 5)  # width 1 collapses the 8..12 slot

    def test_grid_cap(self):
        StaticModel([8, 4, 2, 2], GridParams(2, 8)).validate_for_coding()
        with pytest.raises(ValueError):
            StaticModel([8, 4, 2, 2], P2N4).validate_for_coding()

    def test_partition_random_tables(self):
        rng = random.Random(11)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            n = rng.randint(5, 9)
            params = GridParams(p, n)
            cap = params.powers[n - 2]
            counts = scaled_counts(rng, rng.randint(2, min(12, cap - 1)), cap)
            m = StaticModel(counts, params)
            size = params.size
            l = rng.randrange(size - m.total)
            wmax = size - l if l else size
            w = rng.randint(m.total, wmax)
            r = (l + w) % size
            tile_check(m, l, r)


class TestAdaptiveModel:
    def test_fresh_counts(self):
        m = AdaptiveModel(2, P2N6)
        assert m.counts() == [1, 1, 1]
        assert m.total == 3
        assert m.eom == 2

    def test_increment_on_code(self):
        m = AdaptiveModel(2, P2N6)
        m.code(0, 0, 0)
        assert m.counts() == [2, 1, 1]

    def test_increment_on_decode(self):
        m = AdaptiveModel(2, P2N6)
        m.decode(3, 0, 0)
        assert sum(m.counts()) == 4

    def test_halving_at_cap(self):
        params = GridParams(2, 6)  # cap 16
        m = AdaptiveModel(3, params)
        for s in [0, 0, 2, 2, 2] + [1] * 7:
            m.code(s, 0, 0)
        assert m.counts() == [3, 8, 4, 1]
        assert m.total == 16  # at the cap, not past it: no halving yet
        m.code(2, 0, 0)  # total 17 passes the cap: [3, 8, 5, 1] is halved
        assert m.counts() == [1, 4, 2, 1]
        assert m.total == 8

    def test_sync_code_vs_decode(self):
        params = GridParams(2, 20)
        enc = AdaptiveModel(8, params)
        dec = AdaptiveModel(8, params)
        rng = random.Random(3)
        for _ in range(10_000):
            s = rng.randrange(8)
            l, r = enc.code(s, 0, 0)
            l2, r2, s2 = dec.decode(l, 0, 0)
            assert (l2, r2, s2) == (l, r, s)
            assert enc.counts() == dec.counts()

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(ValueError):
            AdaptiveModel(64, GridParams(2, 6))

    @pytest.mark.parametrize(
        "params, alphabet, stretch",
        [
            (GridParams(2, 8), 5, 0),  # cap 64: halving fires again and again
            (GridParams(3, 6), 7, 0),
            (GridParams(2, 10), 100, 63),  # fresh counts, then 63 zeros
        ],
    )
    def test_matches_naive_reference(self, params, alphabet, stretch):
        """code/decode agree with a plain count list whose cumulative sums
        are recomputed at every symbol, under the same halving rule."""
        rng = random.Random(alphabet)
        size, cap = params.size, params.powers[params.N - 2]
        m = AdaptiveModel(alphabet, params)
        counts = [1] * (alphabet + 1)
        stale_steps = 0
        for step in range(4000):
            total = sum(counts)
            if step % 7 == 0:
                l, r = 0, 0
            else:
                l = rng.randrange(size)
                w = rng.randint(1 if step % 5 == 0 else total, size)
                r = (l + w) % size
            w = interval_width(l, r, params)
            cells = [
                ((l + w * lo // total) % size, (l + w * (lo + c) // total) % size)
                for lo, c in zip(accumulate(counts, initial=0), counts)
            ]
            if step < stretch or rng.random() < 0.5:
                s = 0 if step < stretch else min(int(rng.expovariate(0.6)), alphabet)
                a, b = cells[s]
                if a == b and counts[s] != total:
                    with pytest.raises(ValueError):
                        m.code(s, l, r)
                    assert m.counts() == counts
                    continue
                assert m.code(s, l, r) == (a, b)
            else:
                g = (l + rng.randrange(w)) % size
                s = next(
                    i for i, (a, b) in enumerate(cells)
                    if (g - a) % size < interval_width(a, b, params) and a != b
                )
                x = (total * ((g - l) % size + 1) - 1) // w
                stale_steps += bisect_right(m._cum, x) - 1 - s
                assert m.decode(g, l, r) == (*cells[s], s)
            counts[s] += 1
            if sum(counts) > cap:
                counts = [max(1, c // 2) for c in counts]
            assert m.counts() == counts
            assert m.total == sum(counts)
        if stretch:  # the stale table overshot and decode stepped down
            assert stale_steps > 0
        with pytest.raises(ValueError):
            m.decode(5, 3, 5)  # point outside [3, 5)
        with pytest.raises(ValueError):
            m.code(alphabet + 1, 0, 0)


class TestHuffmanModel:
    def test_paper_starting_indexes(self):
        m = HuffmanModel(PAPER_BOOK, GridParams(2, 3))
        starts = {s: m.code(s, 0, 0)[0] for s in PAPER_BOOK}
        assert starts == {0: 0, 1: 1, 2: 4, 3: 2, 4: 6}

    def test_cell_widths(self):
        params = GridParams(2, 3)
        m = HuffmanModel(PAPER_BOOK, params)
        for s, cw in PAPER_BOOK.items():
            l, r = m.code(s, 0, 0)
            assert interval_width(l, r, params) == params.powers[3 - len(cw)]

    def test_single_symbol_empty_code(self):
        m = HuffmanModel({0: ()}, P2N4)
        assert m.code(0, 0, 0) == (0, 0)

    def test_decode_arbitrary_order(self):
        params = GridParams(2, 3)
        m = HuffmanModel(PAPER_BOOK, params)
        for g in range(8):
            l, r, s = m.decode(g, 0, 0)
            assert l <= g and (g < r or r == 0)
            assert m.code(s, 0, 0) == (l, r)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            HuffmanModel({0: (0,)}, P2N4)  # Kraft sum 1/2

    def test_rejects_overlapping(self):
        with pytest.raises(ValueError):
            HuffmanModel({0: (0,), 1: (0, 1), 2: (1, 0), 3: (1, 1)}, P2N4)
        with pytest.raises(ValueError):
            HuffmanModel({0: (0,), 1: (0,)}, P2N4)  # Kraft sum 1, one cell twice

    def test_str_symbols_roundtrip(self):
        book = {"a": (0,), "b": (1, 0), "c": (1, 1, 0), "end": (1, 1, 1)}
        msg = list("abacabcaab")
        for ar in (True, False):
            model = HuffmanModel(book, P2N6, eom_symbol="end")
            digits = encode(msg, model, ar=ar)
            assert decode(digits, model, ar=ar) == msg

    def test_rejects_long_codeword(self):
        with pytest.raises(ValueError):
            HuffmanModel({0: (0, 0, 0, 0, 0), 1: (1,)}, P2N4)

    def test_tiling_random_trees(self):
        rng = random.Random(7)
        for _ in range(50):
            book = random_binary_book(rng, rng.randint(2, 40), max_len=12)
            n = max(len(cw) for cw in book.values())
            params = GridParams(2, n)
            m = HuffmanModel(book, params)
            total = sum(params.powers[n - len(cw)] for cw in book.values())
            assert total == params.size
            tile_check_huffman(m, params, book)

    def test_pary_books(self):
        rng = random.Random(9)
        for p in (3, 5):
            for _ in range(20):
                book = random_pary_book(rng, p, max_len=5)
                n = max(5, max(len(cw) for cw in book.values()))
                m = HuffmanModel(book, GridParams(p, n))
                for g in range(0, m.params.size, max(1, m.params.size // 50)):
                    l, r, s = m.decode(g, 0, 0)
                    assert m.code(s, 0, 0) == (l, r)


def tile_check_huffman(m, params, book):
    edges = sorted(m.code(s, 0, 0) for s in book)
    assert edges[0][0] == 0
    assert edges[-1][1] == 0  # wraps to ring size
    for (a1, b1), (a2, b2) in zip(edges, edges[1:]):
        assert b1 == a2


class TestUnaryModel:
    def test_code(self):
        m = UnaryModel(P2N4)
        assert m.code(0, 0, 0) == (0, 15)
        assert m.code(1, 0, 15) == (14, 15)

    def test_decode(self):
        m = UnaryModel(P2N4)
        assert m.decode(14, 0, 15) == (0, 15, 1)
        assert m.decode(3, 0, 15) == (0, 14, 0)

    def test_rejects_outside_point(self):
        m = UnaryModel(P2N4)
        with pytest.raises(ValueError):
            m.decode(15, 3, 15)


class TestHuffmanConstruction:
    def test_lengths_complete(self):
        rng = random.Random(1)
        for _ in range(40):
            freqs = [rng.randint(1, 100) for _ in range(rng.randint(2, 40))]
            lengths = huffman_code_lengths(freqs)
            assert sum(2**-l for l in lengths) == 1

    def test_max_len_flattening(self):
        freqs = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        lengths = huffman_code_lengths(freqs, max_len=5)
        assert max(lengths) <= 5
        assert sum(2**-l for l in lengths) == 1

    def test_single_symbol(self):
        assert huffman_code_lengths([7]) == [0]

    def test_too_many_symbols_for_depth(self):
        with pytest.raises(ValueError):
            huffman_code_lengths([1] * 40, max_len=5)

    def test_canonical_roundtrip(self):
        rng = random.Random(2)
        for _ in range(40):
            nsym = rng.randint(2, 30)
            freqs = [rng.randint(1, 50) for _ in range(nsym)]
            lengths = huffman_code_lengths(freqs)
            book = canonical_codebook(lengths)
            assert code_lengths(book, nsym) == lengths
            # prefix-free
            words = sorted(book.values(), key=len)
            for i, w1 in enumerate(words):
                for w2 in words[i + 1 :]:
                    assert w2[: len(w1)] != w1

    def test_absent_symbols(self):
        book = canonical_codebook([0, 2, 1, 0, 2])
        assert set(book) == {1, 2, 4}
        assert len(book[2]) == 1


@given(st.integers(2, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_subdivision_never_empty(pbits, data):
    rng_n = data.draw(st.integers(5, 10))
    p = {2: 2, 3: 3, 4: 3, 5: 5}[pbits]
    params = GridParams(p, rng_n)
    cap = params.powers[rng_n - 2]
    nsym = data.draw(st.integers(2, min(10, cap)))
    counts = [data.draw(st.integers(1, 5)) for _ in range(nsym)]
    while sum(counts) > cap:
        counts = [max(1, c // 2) for c in counts]
    m = StaticModel(counts, params)
    l = data.draw(st.integers(0, params.size - 1))
    wmax = params.size - l if l else params.size
    if wmax < m.total:
        l = 0
        wmax = params.size
    w = data.draw(st.integers(m.total, wmax))
    r = (l + w) % params.size
    for s in range(nsym):
        a, b = m.code(s, l, r)
        assert interval_width(a, b, params) >= 1
