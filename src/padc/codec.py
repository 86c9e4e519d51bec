"""Encoder and decoder loops.

Renormalization comes in two flavours.  *Prefix* renormalization emits
the leading path digits shared by both interval edges and shifts them
out of the state; it is all that is needed while the interval stays
inside one top-level grid cell.  When the interval instead hugs a
level-1 grid point from both sides, *straddle* renormalization folds the
interval linearly around that pivot point without emitting anything,
remembering the pivot digit and how many folds are pending; the deferred
digits are written once the interval finally leaves the pivot (a run of
zeros when it exits to the right of the pivot, a run of P-1 digits when
it exits to the left).  The decoder mirrors every rescaling step on a
sliding window of N stream digits, tracked as the window's index value.

If the interval straddles a level-1 boundary too loosely for a fold, it
can shrink without either renormalization applying.  Before that starves
the model of grid resolution the coder gives up the thinner side of the
boundary, which costs a fraction of a digit of redundancy but restores
the width floor; the decoder resolves the same choice from its window.
This narrowing step is also the only escape route when straddle
renormalization is disabled (ar=False).

Encoder.run and Decoder.run (step() and next_symbol() are one-symbol
runs) keep the state in local variables over a whole message, do prefix
renorm and folds as inline integer arithmetic, and apply a run of k
folds as one index operation; padc.reference holds the per-event
transitions they are tested against.  The encoder resolves straddle
exits and the valve's prefix through two of those, renorm_prefix and
straddle_flush, so tools that wrap those names in this module still see
those rarer events.  For every P the encoder collects the
digits it emits as one base-P number and hands it to
DigitWriter.push_number; the decoder reads stream digits ahead of its
window, _READ_DIGITS at a time with DigitReader.value, and takes the
digits its window is owed off the front of that number.

At P=2 both loops fold with shifts and masks: the level-1 point is
top = 2**(N-1), which is a two-digit CPython int from N=31 on, so each
// or % by it is a long division.  P>2 keeps the division, and so do
prefix renorm and the width at every P: shifts there measured no faster.

A model is any object with params (its GridParams); eom, the end marker
Encoder.finish() codes, or None when the digit count ends the stream;
code(s, l, r) -> (l', r'), the subinterval of symbol s in (l, r);
decode(g, l, r) -> (l', r', s), the symbol whose subinterval holds g;
and validate_for_coding(), which both ends call once as they start and
which raises ValueError for a model that cannot code a whole stream.

A coding session (state, model, stream) is single-owner; sessions over
distinct states are independent.
"""

from bisect import bisect_right
from itertools import repeat

from .core import GridParams, interval_width, shortest_path_point
from .digitio import DigitReader, DigitWriter

# perfbench's tracer counts valves and straddle exits by wrapping these two
# names in this module, so the encoder still calls them once per event.
from .reference import renorm_prefix, straddle_flush

# Emitted digits are pushed to the writer once this many pile up.
_PUSH_DIGITS = 512
# The decoder reads stream digits ahead of its window this many at a time.
_READ_DIGITS = 64


class MalformedStreamError(ValueError):
    """Digit stream is inconsistent with the declared coding session."""


def width_floor(params: GridParams) -> int:
    """Smallest width the rescaling phase can leave behind: one quarter
    of the ring (P**(N-2)) plus one grid unit.

    The bound is tight and follows from the renormalization conditions:
    an interval that still straddles a level-1 boundary after rescaling
    must keep one arm of at least P**(N-2) around the boundary, else a
    fold (or the narrowing valve) would have fired.  It also guarantees
    that models capped at a total of P**(N-2) never produce an empty
    symbol interval.
    """
    if params.N < 2:
        raise ValueError("width floor needs a grid of level N >= 2")
    return params.powers[params.N - 2] + 1


class CoderState:
    """Current interval as an index pair plus straddle bookkeeping.

    (l, r) = (0, 0) denotes the full interval; generally r = 0 on the
    right edge stands for P**N.  pivot is the level-1 digit being
    straddled (0 while inactive) and pending counts folds applied since
    the pivot was set; pending == 0 iff no fold is outstanding.
    """

    __slots__ = ("l", "r", "pivot", "pending", "params")

    def __init__(self, params: GridParams):
        self.l = 0
        self.r = 0
        self.pivot = 0
        self.pending = 0
        self.params = params

    def as_tuple(self):
        return (self.l, self.r, self.pivot, self.pending)


class Encoder:
    """Streaming encoder: feed symbols with step() or run(), then finish().

    The model's end marker (model.eom) is coded by finish(), not step().
    The counters prefix_digits, flushes, flush_digits, folds and valves
    record the rescaling work done so far (flushes include the one
    finish() may resolve).
    """

    def __init__(self, model, *, ar: bool = True):
        self.model = model
        self.params = model.params
        if self.params.N < 2:
            raise ValueError("coding needs a grid of level N >= 2")
        model.validate_for_coding()
        self.state = CoderState(self.params)
        self.ar = ar
        self.floor = width_floor(self.params)
        self.finished = False
        self.prefix_digits = 0
        self.flushes = 0
        self.flush_digits = 0
        self.folds = 0
        self.valves = 0

    def step(self, symbol):
        """Code one symbol; returns the digits it emitted."""
        writer = DigitWriter(self.params)
        self.run((symbol,), writer)
        self._check_floor()
        return writer.digits()

    def _check_floor(self):
        w = interval_width(self.state.l, self.state.r, self.params)
        if w < self.floor:
            raise AssertionError(f"width floor violated: {w} < {self.floor}")

    def run(self, symbols, writer: DigitWriter):
        """Code every symbol of an iterable, pushing the emitted digits to
        writer."""
        if self.finished:
            raise ValueError("encoder already finished")
        code, eom = self.model.code, self.model.eom
        P, N, size, pw = self.params.P, self.params.N, self.params.size, self.params.powers
        top = pw[N - 1]
        rpw = pw[N - 1 :: -1]
        S, tmask = N - 1, top - 1  # P=2: top is 1 << S
        floor, ar, binary = self.floor, self.ar, P == 2
        st = self.state
        l, r, pivot, pending = st.l, st.r, st.pivot, st.pending
        acc = nacc = 0  # digits not yet pushed, as the nacc base-P digits of acc
        n_prefix = n_flush = n_flush_digits = n_fold = n_valve = 0
        try:
            for s in symbols:
                if s == eom:
                    raise ValueError("end marker is coded by finish()")
                l, r = code(s, l, r)
                if pending:
                    # Straddle exits and the valve's prefix go through the
                    # reference functions (see the module docstring).
                    st.l, st.r, st.pivot, st.pending = l, r, pivot, pending
                    flushed = straddle_flush(st)
                    if flushed is not None:
                        n_flush += 1
                        n_flush_digits += pending + 1
                        # pivot then pending zeros, or pivot-1 then pending
                        # copies of P-1 when the interval exits right of it
                        acc = acc * P ** (pending + 1) + pivot * P**pending - (
                            flushed[0] < pivot
                        )
                        nacc += pending + 1
                        l, r, pivot, pending = st.l, st.r, 0, 0
                while True:
                    if not pending:
                        r1 = (r - 1) % size
                        if binary:
                            n = N - (l ^ r1).bit_length()
                        else:
                            n = 0
                            while n < N and l // rpw[n] == r1 // rpw[n]:
                                n += 1
                        if n:
                            q, u = pw[N - n], pw[n]
                            acc = acc * u + l // q
                            nacc += n
                            n_prefix += n
                            l = (l % q) * u
                            r = (r % q) * u
                    if ar and binary:
                        # The fold below on bits: the pivot is 1, and k is
                        # S less the bit length of the wider arm.
                        if l < top <= r:
                            k = S - ((r | ~l) & tmask).bit_length()
                            if k:
                                pivot = 1
                                pending += k
                                n_fold += k
                                l = l << k & tmask
                                r = r << k & tmask | top
                    elif ar:
                        tl, tr = l // top, r // top
                        if tr - tl == 1:
                            # k folds at once: the shorter of the runs of P-1
                            # digits in l and of 0 digits in r under the top.
                            k = N - 1 - bisect_right(pw, max(top - 1 - l % top, r % top))
                            if k:
                                if not pivot:
                                    pivot = tr
                                pending += k
                                n_fold += k
                                q, u = pw[N - 1 - k], pw[k]
                                l = tl * top + (l % q) * u
                                r = tr * top + (r % q) * u
                    w = (r - l) % size or size
                    if pending or w >= floor:
                        break
                    # Narrowing valve: the interval shrank onto a level-1
                    # boundary with no fold to expand it; keep the wider
                    # side so prefix renorm can fire.  With folds enabled
                    # it never fires; it is the only escape when ar is off.
                    n_valve += 1
                    boundary = (l // top + 1) * top
                    if boundary - l >= (r or size) - boundary:
                        r = boundary
                    else:
                        l = boundary
                    st.l, st.r, st.pending = l, r, 0
                    n = len(renorm_prefix(st))
                    acc = acc * pw[n] + l // pw[N - n]
                    nacc += n
                    n_prefix += n
                    l, r = st.l, st.r
                if w < floor:
                    raise AssertionError(f"width floor violated: {w} < {floor}")
                if nacc > _PUSH_DIGITS:
                    writer.push_number(acc, nacc)
                    acc = nacc = 0
        finally:
            st.l, st.r, st.pivot, st.pending = l, r, pivot, pending
            writer.push_number(acc, nacc)
            self.prefix_digits += n_prefix
            self.flushes += n_flush
            self.flush_digits += n_flush_digits
            self.folds += n_fold
            self.valves += n_valve

    def finish(self, flush: str = "min"):
        """Code the end marker and flush the final point.

        flush="min" emits the path of the shortest-path point with
        trailing zeros trimmed; flush="left" emits the full path of the
        left edge.  When folds are still pending, the pivot digit alone
        pins the final point.  Models without an end marker
        (model.eom is None) emit digit-count-delimited streams and flush
        nothing; their state must already be back at the full interval.
        """
        if self.finished:
            raise ValueError("encoder already finished")
        if flush not in ("min", "left"):
            raise ValueError(f"unknown flush mode {flush!r}")
        st = self.state
        out = []
        if self.model.eom is None:
            if st.as_tuple() != (0, 0, 0, 0):
                raise ValueError(
                    "delimiterless model left residual state; cannot flush"
                )
        else:
            st.l, st.r = self.model.code(self.model.eom, st.l, st.r)
            if st.pending:
                flushed = straddle_flush(st)
                if flushed is not None:
                    out.extend(flushed)
                    self.flushes += 1
                    self.flush_digits += len(flushed)
            if st.pending == 0:
                P, n, pw = self.params.P, self.params.N, self.params.powers
                if flush == "left":
                    q = st.l
                else:
                    # Trailing zeros of the path are the low index digits;
                    # a final point of 0 emits nothing.
                    q = shortest_path_point(st.l, st.r, self.params)
                    while n and q % P == 0:
                        q //= P
                        n -= 1
                out.extend(q // pw[j] % P for j in range(n - 1, -1, -1))
            else:
                out.append(st.pivot)
        self.finished = True
        return out


class Decoder:
    """Streaming decoder over a DigitReader.

    Mirrors the encoder's state transitions exactly, so at every symbol
    boundary (l, r, pivot, pending) match the encoder's.  The window g
    holds the next N stream digits in path order as an index value.  A
    stream that needs more digits than the declared count plus the
    window and any pending folds can supply is reported as malformed
    rather than silently truncated.
    """

    def __init__(self, reader: DigitReader, model, *, ar: bool = True):
        self.model = model
        self.params = model.params
        if self.params.N < 2:
            raise ValueError("coding needs a grid of level N >= 2")
        model.validate_for_coding()
        self.state = CoderState(self.params)
        self.ar = ar
        self.floor = width_floor(self.params)
        self.reader = reader
        self.done = False
        if reader.consumed > reader.declared_count:
            raise _exhausted()
        self.g = reader.value(reader.consumed, self.params.N)
        reader.consumed += self.params.N
        # Read-ahead (buf, nb): the nb stream digits from reader.consumed
        # on, as one base-P number.
        self._ahead = (0, 0)
        self._apw = [self.params.P**k for k in range(_READ_DIGITS + 1)]

    def next_symbol(self):
        out = self.run([], limit=1)
        return out[0] if out else self.model.eom

    def run(self, out=None, limit=None):
        """Decode up to limit symbols (default: the rest of the message),
        appending them, the end marker excluded, to out (a new list by
        default); returns out.

        The window is shifted like the interval edges, with zeros filled
        in; the m stream digits it is owed are added in one step before
        its value is next used.  That is exact: both edges then end in m
        zero digits, which no later shift or fold of the symbol reaches
        past, so none reaches past them on the window either.  The digits
        come from a read-ahead number refilled a chunk at a time; digits
        in it are only cached, not consumed, so reader.consumed, every
        budget check and the point where a check trips are the same as
        with one read per symbol."""
        out = [] if out is None else out
        if self.done:
            raise ValueError("decoder already finished")
        decode, eom = self.model.decode, self.model.eom
        P, N, size, pw = self.params.P, self.params.N, self.params.size, self.params.powers
        top = pw[N - 1]
        rpw = pw[N - 1 :: -1]
        S, tmask = N - 1, top - 1  # P=2: top is 1 << S
        floor, ar, binary = self.floor, self.ar, P == 2
        reader = self.reader
        value, apw = reader.value, self._apw
        chunk, big = len(apw) - 1, apw[-1]
        # Every read beyond the declared digits plus the initial window
        # is backed by a pending fold the encoder resolves (or trims) later.
        budget = reader.declared_count + N
        until_end = eom is None  # delimited by digit count
        append = out.append
        st = self.state
        l, r, pivot, pending = st.l, st.r, st.pivot, st.pending
        g, c, m = self.g, reader.consumed, 0  # c digits read, m more owed
        buf, nb = self._ahead
        try:
            for _ in repeat(None) if limit is None else range(limit):
                if until_end and c >= budget:
                    break
                l, r, s = decode(g, l, r)
                if s == eom:
                    self.done = True
                    break
                if pending:
                    # Off the pivot the interval lies in one top-level cell,
                    # so the prefix renorm below sheds its digit as well.
                    if l // top >= pivot or r // top < pivot or r == pivot * top:
                        pivot = pending = 0
                while True:
                    if not pending:
                        r1 = (r - 1) % size
                        if binary:
                            n = N - (l ^ r1).bit_length()
                        else:
                            n = 0
                            while n < N and l // rpw[n] == r1 // rpw[n]:
                                n += 1
                        if n:
                            if c + m + n > budget:
                                raise _exhausted()
                            q, u = pw[N - n], pw[n]
                            l = (l % q) * u
                            r = (r % q) * u
                            g = (g % q) * u
                            m += n
                    if ar and binary:
                        if l < top <= r:
                            k = S - ((r | ~l) & tmask).bit_length()
                            if k:
                                if c + m > budget + pending:
                                    raise _exhausted()
                                pivot = 1
                                pending += k
                                l = l << k & tmask
                                r = r << k & tmask | top
                                g = g & top | g << k & tmask
                                m += k
                    elif ar:
                        tl, tr = l // top, r // top
                        if tr - tl == 1:
                            k = N - 1 - bisect_right(pw, max(top - 1 - l % top, r % top))
                            if k:
                                if c + m > budget + pending:
                                    raise _exhausted()
                                if not pivot:
                                    pivot = tr
                                pending += k
                                q, u = pw[N - 1 - k], pw[k]
                                l = tl * top + (l % q) * u
                                r = tr * top + (r % q) * u
                                g = g // top * top + (g % q) * u
                                m += k
                    if m:
                        while nb < m:
                            buf = buf * big + value(c + nb, chunk)
                            nb += chunk
                        nb -= m
                        if binary:
                            g += buf >> nb
                            buf &= apw[nb] - 1
                        else:
                            q, buf = divmod(buf, apw[nb])
                            g += q
                        c += m
                        m = 0
                    w = (r - l) % size or size
                    if pending or w >= floor:
                        break
                    # Mirror of the encoder's narrowing valve; the window
                    # value identifies the side the encoder kept.
                    boundary = (l // top + 1) * top
                    if g < boundary:
                        r = boundary
                    else:
                        l = boundary
                if w < floor:
                    raise AssertionError(f"width floor violated: {w} < {floor}")
                append(s)
        finally:
            st.l, st.r, st.pivot, st.pending = l, r, pivot, pending
            self.g = g
            self._ahead = (buf, nb) if not m else (0, 0)
            reader.consumed = c + m
        return out


def _exhausted():
    return MalformedStreamError("digit stream exhausted before the message ended")


def encode(symbols, model, *, ar: bool = True, flush: str = "min"):
    """Encode a symbol sequence; returns the emitted digits as a list."""
    enc = Encoder(model, ar=ar)
    writer = DigitWriter(model.params)
    enc.run(symbols, writer)
    writer.push_digits(enc.finish(flush=flush))
    return writer.digits()


def decode(source, model, *, ar: bool = True):
    """Decode a DigitReader or plain digit sequence back into symbols."""
    if isinstance(source, DigitReader):
        reader = source
    else:
        reader = DigitReader.from_digits(model.params, source)
    return Decoder(reader, model, ar=ar).run()
