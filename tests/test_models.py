import copy
import os
import random
import subprocess
import sys
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padc
from padc import (
    AdaptiveModel,
    GridParams,
    HuffmanModel,
    StaticModel,
    UnaryModel,
    canonical_codebook,
    decode,
    encode,
    huffman_code_lengths,
    width_floor,
)
from padc.models import _REBUILD_EVERY
from helpers import decoder_at, random_binary_book, random_pary_book, scaled_counts

P2N4 = GridParams(2, 4)
P2N6 = GridParams(2, 6)

PAPER_BOOK = {0: (0, 0, 0), 1: (0, 0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1)}


def tile_check(model, w):
    """Symbol cells must tile [0, w) exactly, in cum order."""
    seen = [model.code(s, w) for s in range(model.num_symbols)]
    assert sum(b - a for a, b in seen) == w
    assert seen[0][0] == 0
    assert seen[-1][1] == w
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
        # the intervals [0, 16), [0, 8) and [4, 6), as cells of their widths
        m = StaticModel([8, 4, 2, 2], P2N4)
        assert m.code(0, 16) == (0, 8)
        assert m.code(1, 8) == (4, 6)
        assert m.code(0, 2) == (0, 1)

    def test_decode_inverse(self):
        m = StaticModel([8, 4, 2, 2], P2N4)
        assert m.decode(4, 16) == (0, 8, 0)

    def test_decode_code_inverse_exhaustive(self):
        m = StaticModel([5, 3, 2, 1, 1], P2N6)
        for w in [64, 40, 52, 54, 32]:
            for off in range(w):
                a, b, s = m.decode(off, w)
                assert m.code(s, w) == (a, b)
                assert a <= off < b

    def test_errors(self):
        with pytest.raises(ValueError):
            StaticModel([3, 0, 1], P2N4)
        with pytest.raises(ValueError):
            StaticModel([], P2N4)
        m = StaticModel([8, 4, 2, 2], P2N4)
        with pytest.raises(ValueError):
            m.code(9, 16)
        # Width 1 collapses the 8..12 slot to an empty cell, which the coder
        # rejects, as it rejects a window outside the interval before the
        # model sees an offset (tests/test_codec.py, TestModelErrors).
        assert m.code(1, 1) == (0, 0)
        dec = decoder_at(StaticModel([8, 4, 2, 2], GridParams(2, 6)), 0, 8, 9)
        with pytest.raises(ValueError, match="outside interval"):
            dec.next_symbol()

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
            tile_check(m, rng.randint(m.total, params.size))


class TestAdaptiveModel:
    def test_fresh_counts(self):
        m = AdaptiveModel(2, P2N6)
        assert m.counts() == [1, 1, 1]
        assert m.total == 3
        assert m.eom == 2

    def test_increment_on_code(self):
        m = AdaptiveModel(2, P2N6)
        m.code(0, 64)
        assert m.counts() == [2, 1, 1]

    def test_increment_on_decode(self):
        m = AdaptiveModel(2, P2N6)
        m.decode(3, 64)
        assert sum(m.counts()) == 4

    def test_halving_at_cap(self):
        params = GridParams(2, 6)  # cap 16
        m = AdaptiveModel(3, params)
        for s in [0, 0, 2, 2, 2] + [1] * 7:
            m.code(s, 64)
        assert m.counts() == [3, 8, 4, 1]
        assert m.total == 16  # at the cap, not past it: no halving yet
        m.code(2, 64)  # total 17 passes the cap: [3, 8, 5, 1] is halved
        assert m.counts() == [1, 4, 2, 1]
        assert m.total == 8

    def test_sync_code_vs_decode(self):
        params = GridParams(2, 20)
        enc = AdaptiveModel(8, params)
        dec = AdaptiveModel(8, params)
        rng = random.Random(3)
        for _ in range(10_000):
            s = rng.randrange(8)
            a, b = enc.code(s, params.size)
            assert dec.decode(a, params.size) == (a, b, s)
            assert enc.counts() == dec.counts()

    @pytest.mark.parametrize(
        "params, alphabet",
        [(GridParams(2, 11), 5), (GridParams(3, 6), 7), (GridParams(5, 5), 30)],
    )
    def test_rebuilds_at_the_same_symbols_as_a_naive_model(self, params, alphabet):
        """The table is rebuilt when _REBUILD_EVERY symbols have been
        logged or the total passes the cap, which halves the counts: a
        plain count list that applies both rules at every symbol shows the
        same log, table and counts after each code or decode."""
        rng = random.Random(alphabet)
        size, cap = params.size, params.cap
        m = AdaptiveModel(alphabet, params)
        counts = [1] * (alphabet + 1)
        table, logged, fills, halvings = m._cum, 0, 0, 0
        for step in range(3000):
            s = min(int(rng.expovariate(0.4)), alphabet)
            if step % 2:
                lo, total = sum(counts[:s]), sum(counts)
                assert m.decode(size * lo // total, size)[2] == s
            else:
                m.code(s, size)
            counts[s] += 1
            logged += 1
            if logged == _REBUILD_EVERY or sum(counts) > cap:
                if sum(counts) > cap:
                    counts = [max(1, c // 2) for c in counts]
                    halvings += 1
                else:
                    fills += 1
                table, logged = list(accumulate(counts[:-1], initial=0)), 0
            assert len(m._recent) == logged
            assert m._cum == table and m.counts() == counts
        assert fills and halvings

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(ValueError):
            AdaptiveModel(64, GridParams(2, 6))

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError, match="alphabet size must be >= 1"):
            AdaptiveModel(0, GridParams(2, 6))

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
                w = size
            else:
                w = rng.randint(1 if step % 5 == 0 else total, size)
            cells = [
                (w * lo // total, w * (lo + c) // total)
                for lo, c in zip(accumulate(counts, initial=0), counts)
            ]
            if step < stretch or rng.random() < 0.5:
                s = 0 if step < stretch else min(int(rng.expovariate(0.6)), alphabet)
                # An empty cell is the coder's to reject, after this update.
                assert m.code(s, w) == cells[s]
            else:
                off = rng.randrange(w)
                s = next(i for i, (a, b) in enumerate(cells) if a <= off < b)
                x = (total * (off + 1) - 1) // w
                stale_steps += bisect_right(m._cum, x) - 1 - s
                assert m.decode(off, w) == (*cells[s], s)
            counts[s] += 1
            if sum(counts) > cap:
                counts = [max(1, c // 2) for c in counts]
            assert m.counts() == counts
            assert m.total == sum(counts)
        if stretch:  # the stale table overshot and decode stepped down
            assert stale_steps > 0
        with pytest.raises(ValueError, match="outside interval"):
            decoder_at(m, 3, 5, 5).next_symbol()  # point outside [3, 5)
        with pytest.raises(ValueError):
            m.code(alphabet + 1, size)


class TestTableModels:
    @pytest.mark.parametrize("case", ["static", "huffman-str", "huffman-p3"])
    def test_match_naive_reference(self, case):
        """StaticModel and HuffmanModel code/decode agree with the plain
        floor(w*C/T) subdivision over a cumulative table built here, on
        random widths: narrow ones empty some cells (the coder rejects
        them) and random points fall outside the interval (the coder
        raises before the model sees an offset)."""
        rng = random.Random(case)
        if case == "static":
            params = GridParams(2, 12)
            rows = list(range(30))
            counts = scaled_counts(rng, len(rows), params.powers[10])
            m = StaticModel(counts, params)
        else:
            if case == "huffman-str":
                params = GridParams(2, 10)
                book = random_binary_book(rng, 25, max_len=10)
                book = {f"s{s}": cw for s, cw in book.items()}
                m = HuffmanModel(book, params, eom_symbol="s0")
            else:
                params = GridParams(3, 6)
                book = random_pary_book(rng, 3, max_len=6)
                m = HuffmanModel(book, params)
            rows = sorted(book, key=book.get)
            counts = [params.powers[params.N - len(book[s])] for s in rows]
        size, total = params.size, sum(counts)
        cum = list(accumulate(counts, initial=0))
        found = {"empty": 0, "outside": 0}
        for step in range(3000):
            l = rng.randrange(size)
            w = rng.randint(1, size) if step % 3 else rng.randint(1, 3 * len(rows))
            cells = [(w * c // total, w * d // total) for c, d in zip(cum, cum[1:])]
            i = rng.randrange(len(rows))
            found["empty"] += cells[i][0] == cells[i][1]
            assert m.code(rows[i], w) == cells[i]
            g = rng.randrange(size)
            off = (g - l) % size
            if off >= w:
                with pytest.raises(ValueError, match="outside interval"):
                    decoder_at(m, l, (l + w) % size, g).next_symbol()
                found["outside"] += 1
                continue
            i = next(i for i, (a, b) in enumerate(cells) if a <= off < b)
            assert m.decode(off, w) == (*cells[i], rows[i])
        assert min(found.values()) > 0
        with pytest.raises(ValueError, match="unknown symbol"):
            m.code("absent", size)


    @pytest.mark.parametrize(
        "case",
        [
            "paper-p2n5",
            "deep-p2n5",
            "flat-p2n5",
            "p3n3",
            "one-codeword",
            "static-full",
            "static-below",
        ],
    )
    def test_whole_ring_exhaustive(self, case):
        """At w == T the subdivision floor(w*C/T) is C itself.  On the
        whole ring (width P**N, from any start) and on width T where
        T < P**N, code and decode match the naive floor form for every row
        and every offset."""
        P2N5 = GridParams(2, 5)
        books = {
            "paper-p2n5": (PAPER_BOOK, P2N5),
            "deep-p2n5": (canonical_codebook([5, 1, 4, 2, 5, 3]), P2N5),
            "flat-p2n5": (canonical_codebook([3] * 8), P2N5),
            "p3n3": (
                {"a": (0,), "b": (2,), "c": (1, 0), "d": (1, 1),
                 "e": (1, 2, 0), "f": (1, 2, 1), "g": (1, 2, 2)},
                GridParams(3, 3),
            ),
            "one-codeword": ({0: ()}, P2N5),
        }
        if case in books:
            book, params = books[case]
            m = HuffmanModel(book, params)
            rows = sorted(book, key=book.get)
            counts = [params.powers[params.N - len(book[s])] for s in rows]
        else:
            params = P2N5
            counts = [5, 11, 3, 13] if case == "static-full" else [5, 11, 3, 7]
            m = StaticModel(counts, params)
            rows = list(range(len(counts)))
        size, total = params.size, sum(counts)
        assert (total == size) == (case != "static-below")
        cum = list(accumulate(counts, initial=0))
        for w in sorted({size, total}):
            lo = [w * c // total for c in cum]
            for i, s in enumerate(rows):
                assert m.code(s, w) == (lo[i], lo[i + 1])
            for off in range(w):
                i = next(i for i in range(len(rows)) if lo[i] <= off < lo[i + 1])
                assert m.decode(off, w) == (lo[i], lo[i + 1], rows[i])


class TestHuffmanModel:
    def test_paper_starting_indexes(self):
        m = HuffmanModel(PAPER_BOOK, GridParams(2, 3))
        starts = {s: m.code(s, 8)[0] for s in PAPER_BOOK}
        assert starts == {0: 0, 1: 1, 2: 4, 3: 2, 4: 6}

    def test_cell_widths(self):
        params = GridParams(2, 3)
        m = HuffmanModel(PAPER_BOOK, params)
        for s, cw in PAPER_BOOK.items():
            a, b = m.code(s, params.size)
            assert b - a == params.powers[3 - len(cw)]

    def test_single_symbol_empty_code(self):
        m = HuffmanModel({0: ()}, P2N4)
        assert m.code(0, 16) == (0, 16)

    def test_decode_arbitrary_order(self):
        params = GridParams(2, 3)
        m = HuffmanModel(PAPER_BOOK, params)
        for off in range(8):
            a, b, s = m.decode(off, 8)
            assert a <= off < b
            assert m.code(s, 8) == (a, b)

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

    def test_rejects_empty_book(self):
        with pytest.raises(ValueError, match="empty codebook"):
            HuffmanModel({}, P2N4)

    def test_rejects_end_marker_outside_book(self):
        with pytest.raises(ValueError, match="not in codebook"):
            HuffmanModel({0: (0,), 1: (1,)}, P2N4, eom_symbol=2)

    def test_rejects_digit_outside_base(self):
        with pytest.raises(ValueError, match="outside base 2"):
            HuffmanModel({0: (0,), 1: (2,)}, P2N4)

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
                size = m.params.size
                for off in range(0, size, max(1, size // 50)):
                    a, b, s = m.decode(off, size)
                    assert m.code(s, size) == (a, b)


def tile_check_huffman(m, params, book):
    edges = sorted(m.code(s, params.size) for s in book)
    assert edges[0][0] == 0
    assert edges[-1][1] == params.size
    for (a1, b1), (a2, b2) in zip(edges, edges[1:]):
        assert b1 == a2


class TestUnaryModel:
    def test_code(self):
        m = UnaryModel(P2N4)
        assert m.code(0, 16) == (0, 15)
        assert m.code(1, 15) == (14, 15)

    def test_decode(self):
        m = UnaryModel(P2N4)
        assert m.decode(14, 15) == (14, 15, 1)
        assert m.decode(3, 15) == (0, 14, 0)

    def test_rejects_outside_point(self):
        # the coder checks the window before the model sees an offset
        with pytest.raises(ValueError, match="outside interval"):
            decoder_at(UnaryModel(P2N4), 3, 15, 15).next_symbol()


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

    @pytest.mark.parametrize(
        "freqs, max_len, lengths",
        [
            ([4] * 7, None, [3, 3, 3, 3, 3, 3, 2]),
            ([1] * 12, None, [4] * 8 + [3] * 4),
            ([9] * 16, None, [4] * 16),
            ([1, 1, 2, 3, 5, 8, 13, 21, 34, 55], None, [9, 9, 8, 7, 6, 5, 4, 3, 2, 1]),
            ([55, 34, 21, 13, 8, 5, 3, 2, 1, 1], None, [1, 2, 3, 4, 5, 6, 7, 8, 9, 9]),
            ([1, 1, 2, 3, 5, 8, 13, 21, 34, 55], 5, [5, 5, 5, 5, 4, 4, 3, 3, 2, 2]),
            ([3, 3, 1, 1, 2, 2, 5, 5], None, [3, 3, 4, 4, 4, 4, 2, 2]),
            ([2, 2, 2, 2, 4, 4, 8, 8, 1, 1], None, [4, 4, 4, 4, 4, 3, 2, 2, 5, 5]),
            ([3, 3, 1, 1, 2, 2, 5, 5, 7, 7, 30, 30], 4, [4] * 10 + [3, 2]),
        ],
        ids=[
            "equal-7",
            "equal-12",
            "equal-16",
            "fibonacci",
            "fibonacci-reversed",
            "fibonacci-max5",
            "pairs",
            "pairs-2",
            "pairs-max4",
        ],
    )
    def test_tie_order_pinned(self, freqs, max_len, lengths):
        # Ties decide which of several optimal trees is built, and the
        # lengths are stored in containers, so the tie order is fixed:
        # leaves before merged nodes, leaves by symbol, merges in order.
        assert huffman_code_lengths(freqs, max_len) == lengths

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="frequencies must be >= 1"):
            huffman_code_lengths([3, 0, 2])

    def test_too_many_symbols_for_depth(self):
        with pytest.raises(ValueError):
            huffman_code_lengths([1] * 40, max_len=5)

    def test_calls_leave_no_blocks_behind(self):
        # CPython 3.11 keeps every freed 20-item tuple on a free list that
        # allocation never draws from, so a call that builds one grows the
        # allocated blocks until that list is full.  A fresh interpreter
        # starts with the list empty; gc stays off, because a full
        # collection empties the free lists.  The histogram is the seed-0
        # 32 KiB one of the benchmark's skewed-huffman corpus (byte i
        # weighted 0.8**i), as the CLI builds it.
        code = """if True:
            import gc, random, sys
            from padc import huffman_code_lengths
            gc.disable()
            weights = [0.8**i for i in range(256)]
            data = random.Random(0).choices(range(256), weights, k=32768)
            freqs = [data.count(s) for s in sorted(set(data))]
            for _ in range(20):
                huffman_code_lengths(freqs, max_len=31)
            blocks = sys.getallocatedblocks()
            for _ in range(400):
                huffman_code_lengths(freqs, max_len=31)
            print((sys.getallocatedblocks() - blocks) / 400)
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(padc.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        )
        assert float(out.stdout) < 0.1

    def test_canonical_roundtrip(self):
        rng = random.Random(2)
        for _ in range(40):
            nsym = rng.randint(2, 30)
            freqs = [rng.randint(1, 50) for _ in range(nsym)]
            lengths = huffman_code_lengths(freqs)
            book = canonical_codebook(lengths)
            assert [len(book.get(s, ())) for s in range(nsym)] == lengths
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
    w = data.draw(st.integers(m.total, params.size))
    for s in range(nsym):
        a, b = m.code(s, w)
        assert b - a >= 1


@given(st.sampled_from(["static", "adaptive", "huffman", "unary"]), st.data())
@settings(max_examples=200, deadline=None)
def test_cells_tile_every_coding_width(kind, data):
    """For every width the coder can pass, from the width floor to the
    whole ring, the cells of the rows tile [0, w) in row order, none
    empty, and decode(off, w) returns the cell that holds off.  Huffman
    books here have no codeword longer than N-2, so every count is at
    least P**2 of the P**N total and no cell empties above the floor;
    coding meets a Huffman model at the whole ring alone."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="P")
    n = data.draw(st.integers(3, 12 if p == 2 else 6), label="N")
    params = GridParams(p, n)
    size, cap = params.size, params.powers[n - 2]
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if kind == "static":
        counts = scaled_counts(rng, rng.randint(1, min(20, cap)), cap)
        model = StaticModel(counts, params)
        rows = list(model.symbols)
    elif kind == "adaptive":
        model = AdaptiveModel(rng.randint(1, min(20, cap - 1)), params)
        for _ in range(rng.randint(0, 300)):  # uneven counts, maybe halved
            model.code(min(int(rng.expovariate(0.5)), model.eom), size)
        rows = list(range(model.num_symbols))
    elif kind == "huffman":
        if p == 2:
            book = random_binary_book(rng, rng.randint(2, min(40, 2 ** (n - 2))), n - 2)
        else:
            book = random_pary_book(rng, p, max_len=n - 2)
        model = HuffmanModel(book, params)
        rows = sorted(book, key=book.get)
    else:
        model = UnaryModel(params)
        rows = [0, model.eom]
    w = data.draw(st.integers(width_floor(params), size), label="w")
    # The adaptive model updates at every call, so each call gets a copy.
    cells = [copy.deepcopy(model).code(s, w) for s in rows]
    assert cells[0][0] == 0 and cells[-1][1] == w
    assert all(a < b for a, b in cells)
    for (_, b), (a, _) in zip(cells, cells[1:]):
        assert b == a
    starts = [a for a, _ in cells]
    offsets = starts + [b - 1 for _, b in cells] + [data.draw(st.integers(0, w - 1))]
    for off in offsets:
        i = bisect_right(starts, off) - 1
        assert copy.deepcopy(model).decode(off, w) == (*cells[i], rows[i])
