import math

import pytest

from padc import GridParams
from oracles import (
    brute_common_prefix,
    brute_select_point,
    entropy,
    huffman_encode,
    rice_encode,
)

PAPER_BOOK = {"a": (0, 0, 0), "b": (0, 0, 1), "c": (1, 0), "d": (0, 1), "e": (1, 1)}


class TestHuffmanEncode:
    def test_paper_fixture(self):
        assert huffman_encode(PAPER_BOOK, "ca") == [1, 0, 0, 0, 0]

    def test_empty(self):
        assert huffman_encode(PAPER_BOOK, "") == []

    def test_length_accounting(self):
        msg = "abcde" * 7
        out = huffman_encode(PAPER_BOOK, msg)
        assert len(out) == sum(len(PAPER_BOOK[s]) for s in msg)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            huffman_encode(PAPER_BOOK, "ax")


class TestRiceEncode:
    def test_zero(self):
        assert rice_encode(3, 0) == [0, 0, 0, 0]

    def test_paper_rows_via_not(self):
        assert [1 - b for b in rice_encode(3, 8)] == [0, 1, 1, 1, 1]
        assert [1 - b for b in rice_encode(3, 5)] == [1, 0, 1, 0]

    def test_structure(self):
        assert rice_encode(2, 11) == [1, 1, 0, 1, 1]  # q=2 ones, 0, rem=3
        assert rice_encode(0, 4) == [1, 1, 1, 1, 0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rice_encode(-1, 3)


class TestBruteOracles:
    def test_single_point_interval(self):
        params = GridParams(2, 3)
        assert brute_common_prefix(5, 6, params) == (1, 0, 1)

    def test_budget_guard(self):
        params = GridParams(2, 30)
        with pytest.raises(ValueError):
            brute_common_prefix(0, 0, params)
        with pytest.raises(ValueError):
            brute_select_point(0, 0, params, budget=100)

    def test_select_scan(self):
        params = GridParams(2, 4)
        assert brute_select_point(5, 10, params) == 8

    def test_rejects_empty(self):
        params = GridParams(2, 4)
        with pytest.raises(ValueError):
            brute_common_prefix(5, 5, params)


class TestEntropy:
    def test_uniform(self):
        assert entropy([3, 3, 3, 3]) == pytest.approx(2.0)

    def test_paper_weights(self):
        assert entropy([8, 4, 2, 2]) == pytest.approx(1.75)

    def test_single_symbol(self):
        assert entropy([17]) == pytest.approx(0.0)

    def test_matches_direct_formula(self):
        freqs = [5, 1, 3, 7]
        t = sum(freqs)
        expect = -sum(f / t * math.log2(f / t) for f in freqs)
        assert entropy(freqs) == pytest.approx(expect)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            entropy([3, 0])
