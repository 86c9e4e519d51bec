"""The fused coding loops against the reference transitions.

ReferenceEncoder composes renorm_prefix, straddle_flush, straddle_check
and straddle_fold with the narrowing valve in the per-symbol sequence
the loops fuse (flush -> prefix -> folds -> valve, one fold at a time).
The fused encoder must emit the same digits, reach the same state at
every symbol boundary and count the same rescaling work; the fused
decoder must follow in lockstep, reading exactly the digits those
events shift in.  ReferenceDecoder mirrors the reference transitions on
the decoder's window with one digit read per shifted-in digit; it is
the reference for the decoder's read-ahead.
"""

import random

import pytest

import padc.codec as codec
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
    width_floor,
)
from padc.reference import (
    renorm_prefix,
    squeeze_second_digit,
    straddle_check,
    straddle_flush,
    straddle_fold,
)
from helpers import random_binary_book, random_pary_book, scaled_counts

COUNTERS = ("prefix_digits", "flushes", "flush_digits", "folds", "valves")


class ReferenceEncoder:
    """One-event-at-a-time encoder built from the reference transitions,
    counting the same events as Encoder plus the longest fold run and the
    model outputs whose right edge sits on a level-1 point."""

    def __init__(self, model, ar):
        self.model = model
        self.params = model.params
        self.ar = ar
        self.state = CoderState(self.params)
        self.floor = width_floor(self.params)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.longest_fold_run = 0
        self.pivot_right_edges = 0

    def _prefix_and_folds(self, out):
        st = self.state
        if st.pending == 0:
            digits = renorm_prefix(st)
            out += digits
            self.counts["prefix_digits"] += len(digits)
        run = 0
        while self.ar and straddle_check(st.l, st.r, self.params):
            straddle_fold(st)
            run += 1
        self.counts["folds"] += run
        self.longest_fold_run = max(self.longest_fold_run, run)

    def step(self, symbol):
        st, params = self.state, self.params
        top = params.powers[params.N - 1]
        st.l, st.r = self.model.code(symbol, st.l, st.r)
        if st.r and st.r % top == 0:
            self.pivot_right_edges += 1
        out = []
        if st.pending:
            flushed = straddle_flush(st)
            if flushed is not None:
                out += flushed
                self.counts["flushes"] += 1
                self.counts["flush_digits"] += len(flushed)
        self._prefix_and_folds(out)
        while st.pending == 0 and interval_width(st.l, st.r, params) < self.floor:
            self.counts["valves"] += 1
            boundary = (st.l // top + 1) * top
            right_edge = st.r if st.r else params.size
            if boundary - st.l >= right_edge - boundary:
                st.r = boundary
            else:
                st.l = boundary
            self._prefix_and_folds(out)
        assert interval_width(st.l, st.r, params) >= self.floor
        return out


class EdgeModel:
    """Cells cut around the first level-1 point p after l: [l, p-2), then
    [p-2, p+1) and [p-2, p) on alternate calls, then up to R-1, and the
    end marker [R-1, R) (R is r, or P**N for r = 0).  The first middle
    cell is a fold run of N-2, the largest a batch can take; the second
    leaves a right edge whose low digits are all zero.  Intervals with
    no room around p are cut into rough thirds."""

    kind = "edge"
    eom = 3

    def __init__(self, params):
        self.params = params
        self.calls = 0

    def validate_for_coding(self):
        pass

    def _cuts(self, l, r):
        top = self.params.powers[self.params.N - 1]
        end = r or self.params.size
        p = (l // top + 1) * top
        self.calls += 1
        if l < p - 2 and p + 2 < end:
            mid = p + 1 if self.calls % 2 else p
            return [l, p - 2, mid, end - 1, end]
        w = end - l
        return [l, l + w // 3, l + 2 * w // 3, end - 1, end]

    def code(self, symbol, l, r):
        cuts = self._cuts(l, r)
        return cuts[symbol], cuts[symbol + 1] % self.params.size

    def decode(self, g, l, r):
        cuts = self._cuts(l, r)
        for s in range(4):
            if cuts[s] <= g < cuts[s + 1]:
                return cuts[s], cuts[s + 1] % self.params.size, s
        raise ValueError(f"code point {g} outside interval [{l}, {r})")


def trial(rng, kind, params, length):
    """(model factory, message) of one configuration."""
    cap = params.powers[params.N - 2]
    if kind == "unary":
        return (lambda: UnaryModel(params)), [0] * length
    if kind == "edge":
        return (lambda: EdgeModel(params)), [rng.randrange(3) for _ in range(length)]
    if kind == "huffman":
        if params.P == 2:
            alphabet = rng.randint(2, min(40, 2 ** params.N))
            book = random_binary_book(rng, alphabet, max_len=params.N)
        else:
            book = random_pary_book(rng, params.P, max_len=params.N)
        eom = max(book)
        msg = [rng.randrange(eom) for _ in range(length)] if eom else []
        return (lambda: HuffmanModel(book, params, eom_symbol=eom)), msg
    alphabet = rng.randint(1, min(40, cap - 1))
    msg = [rng.randrange(alphabet) for _ in range(length)]
    if kind == "static":
        counts = scaled_counts(rng, alphabet + 1, cap)
        return (lambda: StaticModel(counts, params)), msg
    return (lambda: AdaptiveModel(alphabet, params)), msg


GRIDS = [(2, 4), (2, 30), (2, 31), (2, 32), (2, 40), (2, 61), (3, 5), (3, 12), (5, 4), (5, 9)]
KINDS = ["static", "adaptive", "huffman", "unary", "edge"]


@pytest.mark.parametrize("ar", [True, False])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,n", GRIDS)
def test_fused_loops_match_reference(p, n, kind, ar):
    params = GridParams(p, n)
    rng = random.Random(f"{p}-{n}-{kind}-{ar}")
    for flush in ("min", "left"):
        make_model, msg = trial(rng, kind, params, rng.randint(0, 400))
        ref = ReferenceEncoder(make_model(), ar)
        enc = Encoder(make_model(), ar=ar)
        digits, boundaries = [], []
        for s in msg:
            want = ref.step(s)
            assert enc.step(s) == want
            assert enc.state.as_tuple() == ref.state.as_tuple()
            digits += want
            c = ref.counts
            read = c["prefix_digits"] + c["flushes"] + c["folds"]
            boundaries.append((ref.state.as_tuple(), n + read))
        assert {k: getattr(enc, k) for k in COUNTERS} == ref.counts

        # The same message in one run gives the same digits, state and counts.
        whole = Encoder(make_model(), ar=ar)
        writer = DigitWriter(params)
        whole.run(msg, writer)
        assert writer.digits() == digits
        assert whole.state.as_tuple() == ref.state.as_tuple()
        assert {k: getattr(whole, k) for k in COUNTERS} == ref.counts

        digits += enc.finish(flush=flush)
        assert encode(msg, make_model(), ar=ar, flush=flush) == digits

        reader = DigitReader.from_digits(params, digits)
        dec = Decoder(reader, make_model(), ar=ar)
        for s, (state, consumed) in zip(msg, boundaries):
            assert dec.next_symbol() == s
            assert dec.state.as_tuple() == state
            assert reader.consumed == consumed
        assert decode(digits, make_model(), ar=ar) == msg

        if kind == "edge" and ar and len(msg) > 50:
            assert ref.longest_fold_run == n - 2
        if kind == "edge" and len(msg) > 50:
            assert ref.pivot_right_edges > 0


def test_counters_include_finish_flush():
    # a symbol glued to the midpoint keeps every fold pending until finish()
    params = GridParams(2, 16)
    enc = Encoder(StaticModel([1, 2, 1], params))
    for _ in range(50):
        assert enc.step(1) == []
    assert (enc.folds, enc.flushes, enc.prefix_digits) == (49, 0, 0)
    digits = enc.finish()
    assert enc.flushes == 1
    assert enc.flush_digits == 50
    assert len(digits) >= 50


def test_all_zero_stream_trips_budget_at_fixed_point():
    # An all-zero adaptive stream decodes a fixed number of symbols before
    # the read budget trips; batched window refills must not move that point.
    params = GridParams(2, 31)
    reader = DigitReader(params, bytes(250), 2000)
    out = []
    with pytest.raises(MalformedStreamError):
        Decoder(reader, AdaptiveModel(256, params)).run(out)
    assert (len(out), reader.consumed) == (21_408, 2031)

    reader = DigitReader(params, bytes(250), 2000)
    dec = Decoder(reader, AdaptiveModel(256, params))
    decoded = 0
    with pytest.raises(MalformedStreamError):
        while True:
            dec.next_symbol()
            decoded += 1
    assert (decoded, reader.consumed) == (21_408, 2031)


class ReferenceDecoder:
    """Mirror of ReferenceEncoder on a window g of N stream digits: each
    event shifts the window like the interval edges and takes the digits
    it is owed at once, one DigitReader.get_digit() per digit, so nothing
    is read ahead of the window."""

    def __init__(self, reader, model, ar):
        self.reader = reader
        self.model = model
        self.params = model.params
        self.ar = ar
        self.state = CoderState(self.params)
        self.floor = width_floor(self.params)
        self.g = 0
        for d in reader.get_digits(self.params.N):
            self.g = self.g * self.params.P + d

    def boundary(self):
        return self.reader.consumed, self.g, self.state.as_tuple()

    def _prefix_and_folds(self):
        st, params, get = self.state, self.params, self.reader.get_digit
        top = params.powers[params.N - 1]
        if st.pending == 0:
            for _ in renorm_prefix(st):
                self.g = (self.g % top) * params.P + get()
        while self.ar and straddle_check(st.l, st.r, params):
            straddle_fold(st)
            self.g = squeeze_second_digit(self.g, params) + get()

    def next_symbol(self):
        st, params = self.state, self.params
        top = params.powers[params.N - 1]
        st.l, st.r, s = self.model.decode(self.g, st.l, st.r)
        if s == self.model.eom:
            return s
        if st.pending and straddle_flush(st) is not None:
            self.g = (self.g % top) * params.P + self.reader.get_digit()
        self._prefix_and_folds()
        while st.pending == 0 and interval_width(st.l, st.r, params) < self.floor:
            boundary = (st.l // top + 1) * top
            if self.g < boundary:
                st.r = boundary
            else:
                st.l = boundary
            self._prefix_and_folds()
        return s


@pytest.mark.parametrize("chunk", [1, 3, codec._READ_DIGITS])
@pytest.mark.parametrize("kind", KINDS + ["huffman-count"])
@pytest.mark.parametrize("p,n", [(2, 4), (2, 30), (2, 31), (2, 32), (2, 61), (3, 5), (5, 9)])
def test_read_ahead_lockstep(p, n, kind, chunk, monkeypatch):
    """Read-ahead digits are cached, not consumed: one run() and runs of
    random length both end where the per-event reference does, in
    consumed digits, window and state.  Chunks of 1 and 3 digits make
    owed runs (up to N-2 fold digits) span several refills; short
    messages end their declared digits inside the first chunk."""
    monkeypatch.setattr(codec, "_READ_DIGITS", chunk)
    params = GridParams(p, n)
    rng = random.Random(f"ahead-{p}-{n}-{kind}-{chunk}")
    for ar, flush, length in [(True, "min", 1), (False, "left", 5),
                              (True, "left", 300), (False, "min", 300)]:
        if kind == "huffman-count":  # no end marker: delimited by digit count
            if p == 2:
                book = random_binary_book(rng, rng.randint(2, min(40, 2**n)), max_len=n)
            else:
                book = random_pary_book(rng, p, max_len=n)
            make_model = lambda: HuffmanModel(book, params)
            msg = [rng.choice(list(book)) for _ in range(length)]
        else:
            make_model, msg = trial(rng, kind, params, rng.randint(0, length))
        digits = encode(msg, make_model(), ar=ar, flush=flush)

        def reader():
            return DigitReader.from_digits(params, digits)

        ref = ReferenceDecoder(reader(), make_model(), ar)
        boundaries = [ref.boundary()]
        for s in msg:
            assert ref.next_symbol() == s
            boundaries.append(ref.boundary())
        if ref.model.eom is not None:
            assert ref.next_symbol() == ref.model.eom
        final = ref.boundary()

        dec = Decoder(reader(), make_model(), ar=ar)
        assert dec.run() == msg
        assert (dec.reader.consumed, dec.g, dec.state.as_tuple()) == final

        dec = Decoder(reader(), make_model(), ar=ar)
        out = []
        while not dec.done and len(out) < len(msg):
            dec.run(out, limit=min(rng.randint(1, 40), len(msg) - len(out)))
            want = final if dec.done else boundaries[len(out)]
            assert (dec.reader.consumed, dec.g, dec.state.as_tuple()) == want
        assert out == msg


@pytest.mark.parametrize("chunk", [1, 3, codec._READ_DIGITS])
def test_budget_trip_point_independent_of_chunk(chunk, monkeypatch):
    monkeypatch.setattr(codec, "_READ_DIGITS", chunk)
    params = GridParams(2, 31)
    reader = DigitReader(params, bytes(250), 2000)
    out = []
    with pytest.raises(MalformedStreamError):
        Decoder(reader, AdaptiveModel(256, params)).run(out)
    assert (len(out), reader.consumed) == (21_408, 2031)
