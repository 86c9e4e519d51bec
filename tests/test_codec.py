import random

import pytest

from padc import (
    AdaptiveModel,
    CoderState,
    Decoder,
    DigitReader,
    DigitWriter,
    Encoder,
    GridParams,
    HuffmanModel,
    MalformedStreamError,
    StaticModel,
    UnaryModel,
    decode,
    encode,
    interval_width,
    shortest_path_point,
    width_floor,
)
from padc.reference import (
    exits_left,
    exits_right,
    renorm_prefix,
    squeeze_second_digit,
    straddle_check,
    straddle_flush,
    straddle_fold,
    to_path,
    trimmed_len,
)
from oracles import rice_encode
from helpers import decoder_at, random_binary_book, random_trial

P2N3 = GridParams(2, 3)
P2N4 = GridParams(2, 4)

GOLOMB_TABLE = {
    0: [1, 1, 1, 1],
    1: [1, 1, 1, 0],
    2: [1, 1, 0, 1],
    3: [1, 1, 0, 0],
    4: [1, 0, 1, 1],
    5: [1, 0, 1, 0],
    6: [1, 0, 0, 1],
    7: [1, 0, 0, 0],
    8: [0, 1, 1, 1, 1],
    9: [0, 1, 1, 1, 0],
    10: [0, 1, 1, 0, 1],
    11: [0, 1, 1, 0, 0],
    12: [0, 1, 0, 1, 1],
    13: [0, 1, 0, 1, 0],
    14: [0, 1, 0, 0, 1],
    15: [0, 1, 0, 0, 0],
}


def state(params, l, r, pivot=0, pending=0):
    st = CoderState(params)
    st.l, st.r, st.pivot, st.pending = l, r, pivot, pending
    return st


class TestPrefixRenorm:
    def test_example(self):
        st = state(P2N3, 1, 3)
        assert renorm_prefix(st) == [0]
        assert (st.l, st.r) == (2, 6)

    def test_full_interval_noop(self):
        st = state(P2N3, 0, 0)
        assert renorm_prefix(st) == []
        assert (st.l, st.r) == (0, 0)

    def test_whole_subinterval_resets(self):
        # a full level-2 cell rescales back to the full interval
        st = state(P2N4, 4, 8)
        assert renorm_prefix(st) == [0, 1]
        assert (st.l, st.r) == (0, 0)


class TestStraddle:
    def test_check_examples(self):
        assert straddle_check(6, 10, P2N4) is True
        assert straddle_check(0, 0, P2N4) is False
        assert straddle_check(4, 12, P2N4) is False

    def test_fold_example(self):
        st = state(P2N4, 6, 10)
        straddle_fold(st)
        assert st.as_tuple() == (4, 12, 1, 1)

    def test_second_fold_keeps_pivot(self):
        st = state(P2N4, 7, 9)
        straddle_fold(st)
        assert st.as_tuple() == (6, 10, 1, 1)
        straddle_fold(st)
        assert st.as_tuple() == (4, 12, 1, 2)

    def test_pivot_point_is_fixed(self):
        # the straddled point's own path (n, 0, ..., 0) maps to itself
        for params in (P2N4, GridParams(3, 4)):
            for n in range(1, params.P):
                point = n * params.powers[params.N - 1]
                assert squeeze_second_digit(point, params) == point

    def test_flush_left_exit(self):
        st = state(P2N4, 10, 12, pivot=1, pending=2)
        assert straddle_flush(st) == [1, 0, 0]
        assert st.as_tuple() == (4, 8, 0, 0)

    def test_flush_right_exit(self):
        st = state(P2N4, 2, 7, pivot=1, pending=1)
        assert straddle_flush(st) == [0, 1]
        assert st.as_tuple() == (4, 14, 0, 0)

    def test_flush_right_exact_pivot_edge(self):
        st = state(P2N4, 2, 8, pivot=1, pending=1)
        assert exits_right(1, 8, P2N4) is True
        assert straddle_flush(st) == [0, 1]

    def test_flush_still_straddling(self):
        st = state(P2N4, 6, 10, pivot=1, pending=1)
        assert straddle_flush(st) is None
        assert st.as_tuple() == (6, 10, 1, 1)

    def test_exit_predicates(self):
        assert exits_left(1, 8, P2N4) is True
        assert exits_left(1, 7, P2N4) is False
        assert exits_right(1, 7, P2N4) is True
        assert exits_right(1, 9, P2N4) is False

    def test_wraparound_right_edge_prefers_left_exit(self):
        # r = 0 masquerades as a path of zeros; the left exit must win
        st = state(P2N4, 9, 0, pivot=1, pending=1)
        assert straddle_flush(st) == [1, 0]
        assert st.as_tuple() == (2, 0, 0, 0)


class TestWidthFloor:
    def test_values(self):
        assert width_floor(GridParams(2, 8)) == 65
        assert width_floor(GridParams(3, 5)) == 28

    def test_floor_holds_with_folds(self):
        rng = random.Random(17)
        params = GridParams(2, 10)
        model = StaticModel([120, 130, 5, 1], params)
        enc = Encoder(model)
        for _ in range(500):
            enc.step(rng.randrange(3))
            assert interval_width(enc.state.l, enc.state.r, params) >= enc.floor

    def test_both_directions_reject_level_1_alike(self):
        params = GridParams(2, 1)
        with pytest.raises(ValueError) as floor:
            width_floor(params)
        with pytest.raises(ValueError) as enc:
            Encoder(UnaryModel(params))
        with pytest.raises(ValueError) as dec:
            Decoder(DigitReader(params, b"", 0), UnaryModel(params))
        assert str(enc.value) == str(dec.value) == str(floor.value)


class TestGolombRice:
    @pytest.mark.parametrize("w,code", GOLOMB_TABLE.items())
    def test_paper_table(self, w, code):
        assert encode([0] * w, UnaryModel(P2N4), flush="left") == bytes(code)

    @pytest.mark.parametrize("w,code", GOLOMB_TABLE.items())
    def test_table_decodes(self, w, code):
        assert decode(code, UnaryModel(P2N4)) == [0] * w

    def test_rice_not_equivalence(self):
        for w in range(0, 1001):
            out = encode([0] * w, UnaryModel(P2N4), flush="left")
            assert [1 - d for d in out] == rice_encode(3, w)

    def test_structure(self):
        # floor(W / 2^3) leading zeros, then the 4-digit path of -(W%8 + 1)
        from padc.reference import to_path

        for w in (3, 8, 20, 100):
            out = encode([0] * w, UnaryModel(P2N4), flush="left")
            q, rem = divmod(w, 8)
            assert out[:q] == bytes([0] * q)
            tail = to_path((16 - 1 - rem) % 16, P2N4)
            assert out[q:] == bytes(tail.digits)


class TestHuffmanEquivalence:
    def test_per_symbol_emission(self):
        book = {0: (0, 0, 0), 1: (0, 0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
        model = HuffmanModel(book, P2N3)
        enc = Encoder(model)
        rng = random.Random(4)
        for _ in range(100):
            s = rng.randrange(5)
            assert tuple(enc.step(s)) == book[s]
            assert enc.state.as_tuple() == (0, 0, 0, 0)

    def test_random_trees(self):
        rng = random.Random(12)
        for _ in range(30):
            book = random_binary_book(rng, rng.randint(2, 40), max_len=16)
            n = max(len(cw) for cw in book.values())
            model = HuffmanModel(book, GridParams(2, max(2, n)))
            enc = Encoder(model)
            for s in list(book) + [rng.randrange(len(book)) for _ in range(40)]:
                assert tuple(enc.step(s)) == book[s]
                assert enc.state.as_tuple() == (0, 0, 0, 0)

    def test_delimiterless_stream(self):
        rng = random.Random(13)
        book = random_binary_book(rng, 12, max_len=10)
        params = GridParams(2, 10)
        msg = [rng.randrange(12) for _ in range(200)]
        digits = encode(msg, HuffmanModel(book, params))
        assert digits == bytes(d for s in msg for d in book[s])
        assert decode(digits, HuffmanModel(book, params)) == msg

    def test_stream_with_end_marker(self):
        rng = random.Random(14)
        book = random_binary_book(rng, 8, max_len=8)
        params = GridParams(2, 8)
        eom = 7
        msg = [rng.randrange(7) for _ in range(100)]
        model = HuffmanModel(book, params, eom_symbol=eom)
        digits = encode(msg, model)
        assert decode(digits, HuffmanModel(book, params, eom_symbol=eom)) == msg

    def test_delimiterless_stream_ends_in_step_mode(self):
        # Without an end marker the digit count ends the stream, also when
        # symbols are pulled one at a time or a few per call.
        book = {"a": (0,), "b": (1, 0), "c": (1, 1)}
        params = GridParams(2, 8)
        model = HuffmanModel(book, params)
        digits = encode("abcab", model)
        dec = Decoder(DigitReader.from_digits(params, digits), model)
        assert [dec.next_symbol() for _ in range(6)] == [*"abcab", None]
        dec = Decoder(DigitReader.from_digits(params, digits), model)
        assert [dec.run(limit=3) for _ in range(3)] == [[*"abc"], [*"ab"], []]

    def test_empty_codeword_rejected_for_delimiterless_decode(self):
        model = HuffmanModel({0: ()}, P2N4)
        reader = DigitReader.from_digits(P2N4, [])
        with pytest.raises(ValueError):
            Decoder(reader, model)

    def test_empty_codeword_rejected_for_delimiterless_encode(self):
        # Its symbols emit no digits, so the stream could not count them.
        with pytest.raises(ValueError, match="nonempty codewords"):
            Encoder(HuffmanModel({0: ()}, P2N4))
        model = HuffmanModel({0: ()}, P2N4, eom_symbol=0)
        digits = encode([], model)
        assert decode(digits, HuffmanModel({0: ()}, P2N4, eom_symbol=0)) == []


class TestRoundtrips:
    def test_static_abacabad(self):
        params = GridParams(2, 8)
        msg = [0, 1, 0, 2, 0, 1, 0, 3]
        digits = encode(msg, StaticModel([8, 4, 2, 2, 1], params))
        assert decode(digits, StaticModel([8, 4, 2, 2, 1], params)) == msg

    def test_static_abacabad_rescaled_counts(self):
        params = GridParams(2, 6)  # cap 16 forces a halved table
        counts = [4, 2, 1, 1, 1]
        msg = [0, 1, 0, 2, 0, 1, 0, 3]
        digits = encode(msg, StaticModel(counts, params))
        assert decode(digits, StaticModel(counts, params)) == msg

    def test_empty_message(self):
        params = GridParams(2, 8)
        digits = encode([], AdaptiveModel(4, params))
        assert decode(digits, AdaptiveModel(4, params)) == []

    def test_golomb_empty(self):
        assert decode([1, 1, 1, 1], UnaryModel(P2N4)) == []

    def test_flush_modes(self):
        params = GridParams(2, 12)
        msg = [0, 0, 1, 2, 1, 0]
        for flush in ("min", "left"):
            m = lambda: StaticModel([10, 5, 2, 1], params)
            assert decode(encode(msg, m(), flush=flush), m()) == msg

    def test_no_ar_straddling_model(self):
        # midpoint-straddling symbol keeps the interval over the boundary;
        # without folds the narrowing valve must keep the coder alive
        params = GridParams(2, 10)
        counts = [1, 2, 1]
        msg = [1] * 400
        digits = encode(msg, StaticModel(counts, params), ar=False)
        assert decode(digits, StaticModel(counts, params), ar=False) == msg

    def test_no_ar_grows_output(self):
        params = GridParams(2, 10)
        counts = [1, 2, 1]
        msg = [1] * 400 + [0, 1] * 10
        with_ar = encode(msg, StaticModel(counts, params), ar=True)
        without = encode(msg, StaticModel(counts, params), ar=False)
        assert decode(without, StaticModel(counts, params), ar=False) == msg
        assert len(without) >= len(with_ar)

    def test_determinism(self):
        params = GridParams(3, 8)
        msg = [0, 1, 2, 2, 1, 0, 1] * 30
        a = encode(msg, AdaptiveModel(3, params))
        b = encode(msg, AdaptiveModel(3, params))
        assert a == b

    def test_long_fold_run(self):
        # symbol glued to the midpoint: folds defer every digit until the
        # end, then the run flushes at once (cost stays ~1 bit/symbol)
        params = GridParams(2, 16)
        counts = [1, 2, 1]
        msg = [1] * 2000
        enc = Encoder(StaticModel(counts, params))
        for s in msg:
            assert enc.step(s) == b""
        assert enc.state.pending == 1999
        digits = list(enc.finish())
        assert 2000 <= len(digits) <= 2005
        assert decode(digits, StaticModel(counts, params)) == msg


@pytest.mark.parametrize("p", [2, 3, 251])
def test_digit_sequences_are_bytes(p):
    params = GridParams(p, 6)
    msg = [random.Random(p).randrange(4) for _ in range(300)]
    enc = Encoder(StaticModel([5, 3, 2, 1, 1], params))
    steps = [enc.step(s) for s in msg]
    last = enc.finish()
    digits = encode(msg, StaticModel([5, 3, 2, 1, 1], params))
    assert {type(d) for d in steps + [last, digits]} == {bytes}
    assert b"".join(steps) + last == digits
    writer = DigitWriter(params)
    writer.push_digits(digits)
    assert type(writer.digits()) is bytes
    reader = DigitReader(params, writer.to_bytes(), writer.digit_count)
    assert type(reader.get_digits(1)) is bytes  # shorter than a block
    assert type(reader.get_digits(len(digits) + 600)) is bytes


class _FinalInterval:
    """Stub model whose end marker leaves a chosen final interval.  It is
    coded from the full ring, so the cell's offsets are the interval's
    edges, with r = 0 standing for the width P**N."""

    eom = "end"

    def __init__(self, params, l, r):
        self.params = params
        self.final = (l, r)

    def validate_for_coding(self):
        pass

    def code(self, s, w):
        l, r = self.final
        return l, r or w


def _finish(params, l, r, pivot, pending, flush):
    enc = Encoder(_FinalInterval(params, l, r))
    enc.state.pivot, enc.state.pending = pivot, pending
    return enc.finish(flush=flush)


def _reference_finish(params, l, r, pivot, pending, flush):
    """The final digits in the paper's notation, one event at a time."""
    st = state(params, l, r, pivot, pending)
    out = []
    if pending:
        flushed = straddle_flush(st)
        if flushed is None:
            return [pivot]
        out += flushed
    if flush == "left":
        return out + list(to_path(st.l, params).digits)
    path = to_path(shortest_path_point(st.l, st.r, params), params)
    return out + list(path.digits[: trimmed_len(path)])


class TestFinish:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_reference_on_random_end_states(self, p):
        rng = random.Random(60 + p)
        for _ in range(400):
            params = GridParams(p, rng.randrange(2, 9))
            size, top = params.size, params.powers[params.N - 1]
            l = rng.randrange(size)
            r = rng.randrange(l + 1, size + 1) % size
            pivot, pending = 0, 0
            if rng.random() < 0.4:
                # A folded interval stays inside the two cells around its
                # pivot, short of the right one's end.
                pivot, pending = rng.randrange(1, p), rng.randrange(1, 4)
                l = rng.randrange((pivot - 1) * top, (pivot + 1) * top - 1)
                r = rng.randrange(l + 1, (pivot + 1) * top)
            for flush in ("min", "left"):
                args = (params, l, r, pivot, pending, flush)
                assert _finish(*args) == bytes(_reference_finish(*args))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_edge_cases(self, p):
        params = GridParams(p, 6)
        n, top = params.N, params.powers[params.N - 1]
        q = (p - 1) * top + params.powers[n - 2]  # path (p-1, 1, 0, 0, 0, 0)
        cases = [
            ((0, 5, 0, 0, "min"), []),  # a final point of 0 emits nothing
            ((0, 5, 0, 0, "left"), [0] * n),
            ((q, q + 1, 0, 0, "min"), [p - 1, 1]),  # zero low digits trimmed
            ((q, q + 1, 0, 0, "left"), [p - 1, 1] + [0] * (n - 2)),
            ((top - 1, top + 1, 1, 3, "min"), [1]),  # still on the pivot
            ((top - 1, top + 1, 1, 3, "left"), [1]),
        ]
        for args, expected in cases:
            assert _finish(params, *args) == bytes(expected)
            assert _reference_finish(params, *args) == expected


class TestLockstep:
    def test_states_match_at_every_symbol(self):
        rng = random.Random(21)
        for _ in range(40):
            params, make_model, msg, ar, flush = random_trial(rng)
            if len(msg) > 300:
                msg = msg[:300]
            enc = Encoder(make_model(), ar=ar)
            enc_states = []
            out = []
            for s in msg:
                out.extend(enc.step(s))
                enc_states.append(enc.state.as_tuple())
            out.extend(enc.finish(flush=flush))
            dec = Decoder(
                DigitReader.from_digits(params, out), make_model(), ar=ar
            )
            for s, expect_state in zip(msg, enc_states):
                got = dec.next_symbol()
                assert got == s
                assert dec.state.as_tuple() == expect_state


class TestFuzzRoundtrip:
    def test_randomized_roundtrips(self):
        rng = random.Random(31)
        for _ in range(300):
            params, make_model, msg, ar, flush = random_trial(rng)
            digits = encode(msg, make_model(), ar=ar, flush=flush)
            assert decode(digits, make_model(), ar=ar) == msg


class TestMalformedStreams:
    def test_truncated_stream_reported(self):
        # a truncated stream must either fail loudly or terminate early;
        # it must never hang or reproduce the original message
        params = GridParams(2, 12)
        rng = random.Random(44)
        msg = [rng.randrange(8) for _ in range(300)]
        model = lambda: StaticModel([3, 5, 2, 8, 1, 1, 4, 2, 1], params)
        digits = encode(msg, model())
        for frac in (4, 3, 2):
            reader = DigitReader.from_digits(params, digits[: len(digits) // frac])
            try:
                out = decode(reader, model())
            except ValueError:
                pass
            else:
                assert out != msg

    def test_exhausted_stream_fails_loudly(self):
        # an all-zero window never decodes the unary end marker, so the
        # read budget must trip instead of spinning forever
        params = GridParams(2, 8)
        reader = DigitReader(params, b"", 0)
        with pytest.raises(MalformedStreamError):
            decode(reader, UnaryModel(params))

    def test_empty_stream_for_nonempty_message_model(self):
        params = GridParams(2, 12)
        model = StaticModel([1, 1, 1], params)
        reader = DigitReader(params, b"", 0)
        dec = Decoder(reader, model)
        with pytest.raises(ValueError):
            for _ in range(10_000):
                if dec.next_symbol() == model.eom:
                    break

    def test_encoder_finish_guard(self):
        enc = Encoder(StaticModel([1, 1], GridParams(2, 8)))
        enc.finish()
        with pytest.raises(ValueError):
            enc.step(0)
        with pytest.raises(ValueError):
            enc.finish()

    def test_decoder_finish_guard(self):
        model = StaticModel([1, 1], GridParams(2, 8))
        dec = Decoder(DigitReader.from_digits(model.params, encode([0] * 3, model)), model)
        assert dec.run() == [0] * 3
        assert dec.finished
        with pytest.raises(ValueError, match="decoder already finished"):
            dec.run()
        with pytest.raises(ValueError, match="decoder already finished"):
            dec.next_symbol()

    def test_finish_rejects_unknown_flush_mode(self):
        enc = Encoder(StaticModel([1, 1], GridParams(2, 8)))
        with pytest.raises(ValueError, match="unknown flush mode 'x'"):
            enc.finish(flush="x")
        assert not enc.finished

    def test_delimiterless_finish_needs_the_full_interval(self):
        # Without an end marker nothing is flushed, so a state away from
        # the full interval would be lost.
        enc = Encoder(HuffmanModel({0: (0,), 1: (1,)}, P2N4))
        enc.state.l = 3
        with pytest.raises(ValueError, match="residual state"):
            enc.finish()

    def test_decoder_rejects_a_reader_past_its_count(self):
        model = StaticModel([1, 1], P2N4)
        reader = DigitReader.from_digits(P2N4, encode([0, 0], model))
        reader.get_digits(reader.declared_count + 1)
        with pytest.raises(MalformedStreamError, match="exhausted"):
            Decoder(reader, model)

    def test_step_rejects_end_marker(self):
        enc = Encoder(StaticModel([1, 1], GridParams(2, 8)))
        with pytest.raises(ValueError):
            enc.step(1)


class _EmptyCell(StaticModel):
    """Static model whose symbol `empty` gets an empty cell."""

    def __init__(self, counts, params, empty):
        super().__init__(counts, params)
        self.empty = empty

    def code(self, s, w):
        a, b = super().code(s, w)
        return (a, a) if s == self.empty else (a, b)


# An unknown symbol or a window outside the interval is rejected before
# a model updates, so the tests of those errors share these instances.
ONE_OF_EACH = [
    StaticModel([3, 5, 2, 1], GridParams(2, 12)),
    AdaptiveModel(5, GridParams(2, 12)),
    HuffmanModel({"a": (0,), "b": (1,)}, GridParams(2, 12)),
    UnaryModel(GridParams(2, 12)),
]
ONE_OF_EACH_IDS = ["static", "adaptive", "huffman", "unary"]


class TestModelErrors:
    """The coder rejects an empty cell and a window outside the interval
    for every model; a model rejects a symbol it does not know."""

    PARAMS = GridParams(2, 12)
    COUNTS = [3, 5, 2, 1]
    MSG = [0, 1, 0, 2, 1, 1, 0]

    def boundary(self, symbols):
        """State and digits of a clean encoder after symbols."""
        enc = Encoder(StaticModel(self.COUNTS, self.PARAMS))
        writer = DigitWriter(self.PARAMS)
        enc.run(symbols, writer)
        return enc.state.as_tuple(), writer.digits()

    def test_empty_cell_in_run_stops_at_the_last_boundary(self):
        enc = Encoder(_EmptyCell(self.COUNTS, self.PARAMS, 2))
        writer = DigitWriter(self.PARAMS)
        with pytest.raises(ValueError, match="empty symbol interval"):
            enc.run(self.MSG, writer)
        assert (enc.state.as_tuple(), writer.digits()) == self.boundary(self.MSG[:3])

    def test_empty_cell_in_step_leaves_the_state(self):
        enc = Encoder(_EmptyCell(self.COUNTS, self.PARAMS, 2))
        for s in self.MSG[:3]:
            enc.step(s)
        with pytest.raises(ValueError, match="empty symbol interval"):
            enc.step(2)
        assert enc.state.as_tuple() == self.boundary(self.MSG[:3])[0]

    def test_empty_end_marker_cell_in_finish(self):
        enc = Encoder(_EmptyCell(self.COUNTS, self.PARAMS, 3))
        enc.run(self.MSG, DigitWriter(self.PARAMS))
        with pytest.raises(ValueError, match="empty symbol interval"):
            enc.finish()
        assert enc.state.as_tuple() == self.boundary(self.MSG)[0]
        assert not enc.finished

    @pytest.mark.parametrize("model", ONE_OF_EACH, ids=ONE_OF_EACH_IDS)
    def test_window_outside_the_interval(self, model):
        # left of l, at r, and past r on an interval that ends at r = 0
        for l, r, g in [(1000, 3000, 999), (1000, 3000, 3000), (3000, 0, 5)]:
            dec = decoder_at(model, l, r, g)
            with pytest.raises(ValueError, match="outside interval"):
                dec.next_symbol()
            assert dec.state.as_tuple() == (l, r, 0, 0)

    @pytest.mark.parametrize("model", ONE_OF_EACH, ids=ONE_OF_EACH_IDS)
    def test_unknown_symbol_raises_from_the_model(self, model):
        enc = Encoder(model)
        with pytest.raises(ValueError, match="unknown symbol"):
            enc.step(7)
        assert enc.state.as_tuple() == (0, 0, 0, 0)
