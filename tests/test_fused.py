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
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
    common_path_len,
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
    model outputs whose right edge sits on a level-1 point.  starts holds
    the interval's left edge at each model call, and straddles the state
    at each straddle_flush call."""

    def __init__(self, model, ar):
        self.model = model
        self.params = model.params
        self.ar = ar
        self.state = CoderState(self.params)
        self.floor = width_floor(self.params)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.longest_fold_run = 0
        self.pivot_right_edges = 0
        self.starts = []
        self.straddles = []

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
        top, size = params.powers[params.N - 1], params.size
        self.starts.append(st.l)
        a, b = self.model.code(symbol, interval_width(st.l, st.r, params))
        assert a < b
        st.l, st.r = (st.l + a) % size, (st.l + b) % size
        if st.r and st.r % top == 0:
            self.pivot_right_edges += 1
        out = []
        if st.pending:
            self.straddles.append(st.as_tuple())
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
    """Cells cut around the first level-1 point p after the interval's
    left edge l: [l, p-2), then [p-2, p+1) and [p-2, p) on alternate
    calls, then up to R-1, and the end marker [R-1, R) (R = l + w).  The
    first middle cell is a fold run of N-2, the largest a batch can take;
    the second leaves a right edge whose low digits are all zero.
    Intervals with no room around p are cut into rough thirds.

    The cuts depend on l, which a model is not given, so the model
    replays starts[k] at its k-th call: the left edges a ReferenceEncoder
    run of the same message met (edge_starts).  The fused loops must reach
    those same states, so a divergence still shows as wrong digits."""

    eom = 3

    def __init__(self, params, starts):
        self.params = params
        self.starts = starts
        self.calls = 0

    def validate_for_coding(self):
        pass

    def _cuts(self, w):
        top = self.params.powers[self.params.N - 1]
        l = self.starts[self.calls]
        p = (l // top + 1) * top - l  # offset of the level-1 point
        self.calls += 1
        if 2 < p and p + 2 < w:
            mid = p + 1 if self.calls % 2 else p
            return [0, p - 2, mid, w - 1, w]
        return [0, w // 3, 2 * w // 3, w - 1, w]

    def code(self, symbol, w):
        cuts = self._cuts(w)
        return cuts[symbol], cuts[symbol + 1]

    def decode(self, off, w):
        cuts = self._cuts(w)
        s = bisect_right(cuts, off) - 1
        return cuts[s], cuts[s + 1], s


def edge_starts(params, msg, ar):
    """The left edges at every EdgeModel call of msg's coding, the end
    marker's last.  The recording model reads each edge just after
    ReferenceEncoder appends it."""
    model = EdgeModel(params, [])
    ref = ReferenceEncoder(model, ar)
    ref.starts = model.starts
    for s in msg:
        ref.step(s)
    return model.starts + [ref.state.l]


def trial(rng, kind, params, length, ar):
    """(model factory, message) of one configuration."""
    cap = params.powers[params.N - 2]
    if kind == "unary":
        return (lambda: UnaryModel(params)), [0] * length
    if kind == "edge":
        msg = [rng.randrange(3) for _ in range(length)]
        starts = edge_starts(params, msg, ar)
        return (lambda: EdgeModel(params, starts)), msg
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
        make_model, msg = trial(rng, kind, params, rng.randint(0, 400), ar)
        ref = ReferenceEncoder(make_model(), ar)
        enc = Encoder(make_model(), ar=ar)
        digits, boundaries = [], []
        for s in msg:
            want = ref.step(s)
            assert enc.step(s) == bytes(want)
            assert enc.state.as_tuple() == ref.state.as_tuple()
            digits += want
            c = ref.counts
            read = c["prefix_digits"] + c["flushes"] + c["folds"]
            boundaries.append((ref.state.as_tuple(), n + read))
        assert {k: getattr(enc, k) for k in COUNTERS} == ref.counts
        if ar:  # straddle renorm keeps the width floor without the valve
            assert ref.counts["valves"] == 0

        # The same message in one run gives the same digits, state and counts.
        whole = Encoder(make_model(), ar=ar)
        writer = DigitWriter(params)
        whole.run(msg, writer)
        assert writer.digits() == bytes(digits)
        assert whole.state.as_tuple() == ref.state.as_tuple()
        assert {k: getattr(whole, k) for k in COUNTERS} == ref.counts

        digits += enc.finish(flush=flush)
        assert encode(msg, make_model(), ar=ar, flush=flush) == bytes(digits)

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
        assert enc.step(1) == b""
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


@pytest.mark.parametrize("p,n", [(2, 8), (2, 31), (3, 5), (3, 12), (5, 4), (5, 9), (7, 4), (7, 8)])
def test_straddle_exit_is_a_shared_first_digit(p, n):
    # The fused loops find a straddle exit by the prefix test alone: with
    # folds pending, straddle_flush resolves the folds exactly when the
    # edges share a first digit.  Checked at every state the reference
    # encoder reaches with folds pending: where it calls straddle_flush,
    # and at each symbol boundary.
    params = GridParams(p, n)
    rng = random.Random(f"exit-{p}-{n}")
    outcomes = set()
    for kind in ("static", "adaptive", "unary", "edge"):
        make_model, msg = trial(rng, kind, params, 400, True)
        ref = ReferenceEncoder(make_model(), True)
        boundaries = []
        for s in msg:
            ref.step(s)
            boundaries.append(ref.state.as_tuple())
        for l, r, pivot, pending in ref.straddles + boundaries:
            if not pending:
                continue
            state = CoderState(params)
            state.l, state.r, state.pivot, state.pending = l, r, pivot, pending
            shared = common_path_len(l, r, params) >= 1
            assert (straddle_flush(state) is not None) == shared, (l, r, pivot, pending)
            outcomes.add(shared)
    assert outcomes == {False, True}


@settings(max_examples=150, deadline=None)
@given(
    grid=hst.sampled_from([(2, 6), (2, 16), (2, 31), (3, 5), (3, 12), (5, 4), (7, 4)]),
    kind=hst.sampled_from(["static", "adaptive", "unary"]),
    seed=hst.integers(0, 2**32),
    raw=hst.lists(hst.integers(0, 255), max_size=120),
    run=hst.integers(0, 40),
)
def test_reads_stay_within_the_budget_and_pending_folds(grid, kind, seed, raw, run):
    # The decoder checks its read budget only at prefix shifts.  That is
    # enough because c - pending <= declared_count + N holds at every
    # symbol boundary of any stream: each fold reads one digit and adds
    # one to pending.  Long runs of one digit drive the folds.
    params = GridParams(*grid)
    p = params.P
    digits = bytes(d % p for d in raw) + bytes([p - 1]) * run
    make_model, _ = trial(random.Random(seed), kind, params, 0, True)
    reader = DigitReader.from_digits(params, digits)
    dec = Decoder(reader, make_model())
    budget = reader.declared_count + params.N
    for _ in range(3000):
        try:
            dec.run(limit=1)
        except MalformedStreamError:
            break
        assert reader.consumed - dec.state.pending <= budget
        if dec.finished:
            break


class ReferenceDecoder:
    """Mirror of ReferenceEncoder on a window g of N stream digits: each
    event shifts the window like the interval edges and takes the digits
    it is owed at once, one DigitReader.get_digits(1) per digit, so
    nothing is read ahead of the window."""

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

    def _digit(self):
        (d,) = self.reader.get_digits(1)
        return d

    def _prefix_and_folds(self):
        st, params, get = self.state, self.params, self._digit
        top = params.powers[params.N - 1]
        if st.pending == 0:
            for _ in renorm_prefix(st):
                self.g = (self.g % top) * params.P + get()
        while self.ar and straddle_check(st.l, st.r, params):
            straddle_fold(st)
            self.g = squeeze_second_digit(self.g, params) + get()

    def next_symbol(self):
        st, params = self.state, self.params
        top, size = params.powers[params.N - 1], params.size
        w, off = interval_width(st.l, st.r, params), (self.g - st.l) % size
        assert off < w
        a, b, s = self.model.decode(off, w)
        st.l, st.r = (st.l + a) % size, (st.l + b) % size
        if s == self.model.eom:
            return s
        if st.pending and straddle_flush(st) is not None:
            self.g = (self.g % top) * params.P + self._digit()
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
            make_model, msg = trial(rng, kind, params, rng.randint(0, length), ar)
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
        while not dec.finished and len(out) < len(msg):
            dec.run(out, limit=min(rng.randint(1, 40), len(msg) - len(out)))
            want = final if dec.finished else boundaries[len(out)]
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
