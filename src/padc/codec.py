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
transitions they are tested against.  Both take the length of the
edges' shared prefix on every pass, and with folds pending a nonzero
length is the straddle exit: edges that straddle the pivot share no
first digit, and edges that have left it share one.  The encoder
resolves each exit and each valve's prefix through straddle_flush and
renorm_prefix, one call per event, so tools that wrap those names in
this module still see those rarer events.  For every P the encoder
collects the digits it emits as one base-P number and hands it to
DigitWriter.push_number; the decoder reads stream digits ahead of its
window, _READ_DIGITS at a time with DigitReader.value, and takes the
digits its window is owed off the front of that number.

At P=2 both loops fold with shifts and masks: the level-1 point is
top = 2**(N-1), which is a two-digit CPython int from N=31 on, so each
// or % by it is a long division.  P>2 keeps the division, and so do
prefix renorm and the width at every P: shifts there measured no faster.

A model is any object with params (its GridParams); eom, the end marker
Encoder.finish() codes, or None when the digit count ends the stream;
code(s, w) -> (a, b), the cell of symbol s within the width w of the
current interval; decode(off, w) -> (a, b, s), the cell and symbol that
hold the offset off; and validate_for_coding(), which both ends call
once as they start and which raises ValueError for a model that cannot
code a whole stream.  Cells are offsets from the interval's left edge,
0 <= a <= off < b <= w, so the coder owns the ring arithmetic: it passes
the width it keeps for the floor check, raises ValueError for a window
outside the interval and for an empty cell, and moves the edges to
(l + a) % P**N and (l + b) % P**N.  It branches on no model kind.

Encoder and Decoder share one session base: the model, its grid, the
state, ar, the width floor, the finished flag and the grid constants
both loops unpack, set up once.  A session (state, model, stream) is
single-owner; sessions over distinct states are independent.
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
    of the ring (params.cap = P**(N-2)) plus one grid unit.

    The bound is tight and follows from the renormalization conditions:
    an interval that still straddles a level-1 boundary after rescaling
    must keep one arm of at least P**(N-2) around the boundary, else a
    fold (or the narrowing valve) would have fired.  It also guarantees
    that models capped at a total of params.cap never produce an empty
    symbol interval.
    """
    if params.N < 2:
        raise ValueError("width floor needs a grid of level N >= 2")
    return params.cap + 1


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


class _Session:
    """What both directions of a coding session share; see the module
    docstring."""

    def __init__(self, model, ar):
        params = model.params
        self.floor = width_floor(params)
        model.validate_for_coding()
        self.model = model
        self.params = params
        self.state = CoderState(params)
        self.ar = ar
        self.finished = False
        P, N, pw = params.P, params.N, params.powers
        top = pw[N - 1]  # P=2: top is 1 << S with S = N - 1, and tmask = top - 1
        # rpw[n] = P**(N-1-n), a list: CPython 3.11 never reuses a freed
        # 20-item tuple (N=20), it keeps it on a free list.
        rpw = [pw[N - 1 - n] for n in range(N)]
        self._grid = (P, N, params.size, pw, top, rpw, P == 2, N - 1, top - 1)


class Encoder(_Session):
    """Streaming encoder: feed symbols with step() or run(), then finish().

    The model's end marker (model.eom) is coded by finish(), not step().
    The counters prefix_digits, flushes, flush_digits, folds and valves
    record the rescaling work done so far (flushes include the one
    finish() may resolve).
    """

    def __init__(self, model, *, ar: bool = True):
        super().__init__(model, ar)
        self.prefix_digits = 0
        self.flushes = 0
        self.flush_digits = 0
        self.folds = 0
        self.valves = 0

    def step(self, symbol):
        """Code one symbol; returns the digits it emitted, one byte each."""
        writer = DigitWriter(self.params)
        self.run((symbol,), writer)
        return writer.digits()

    def run(self, symbols, writer: DigitWriter):
        """Code every symbol of an iterable, pushing the emitted digits to
        writer."""
        if self.finished:
            raise ValueError("encoder already finished")
        code, eom = self.model.code, self.model.eom
        P, N, size, pw, top, rpw, binary, S, tmask = self._grid
        floor, ar = self.floor, self.ar
        st = self.state
        l, r, pivot, pending = st.l, st.r, st.pivot, st.pending
        w = (r - l) % size or size
        acc = nacc = 0  # digits not yet pushed, as the nacc base-P digits of acc
        n_prefix = n_flush = n_flush_digits = n_fold = n_valve = 0
        try:
            for s in symbols:
                if s == eom:
                    raise ValueError("end marker is coded by finish()")
                a, b = code(s, w)
                if a >= b:
                    raise _empty_cell(a, b, w)
                l, r = (l + a) % size, (l + b) % size
                while True:
                    r1 = (r - 1) % size
                    if binary:
                        n = N - (l ^ r1).bit_length()
                    else:
                        n = 0
                        while n < N and l // rpw[n] == r1 // rpw[n]:
                            n += 1
                    if n and pending:
                        # A straddle exit (see the module docstring).
                        st.l, st.r, st.pivot, st.pending = l, r, pivot, pending
                        flushed = straddle_flush(st)
                        n_flush += 1
                        n_flush_digits += pending + 1
                        # pivot then pending zeros, or pivot-1 then pending
                        # copies of P-1 when the interval exits right of it
                        acc = (acc * P + pivot) * P**pending - (flushed[0] < pivot)
                        nacc += pending + 1
                        l, r, pivot, pending = st.l, st.r, 0, 0
                        n -= 1
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
        Returns the digits emitted, one byte each.
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
            w = interval_width(st.l, st.r, self.params)
            a, b = self.model.code(self.model.eom, w)
            if a >= b:
                raise _empty_cell(a, b, w)
            st.l, st.r = (st.l + a) % self.params.size, (st.l + b) % self.params.size
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
        return bytes(out)


class Decoder(_Session):
    """Streaming decoder over a DigitReader.

    Mirrors the encoder's state transitions exactly, so at every symbol
    boundary (l, r, pivot, pending) match the encoder's.  The window g
    holds the next N stream digits in path order as an index value.  A
    stream that needs more digits than the declared count plus the
    window and any pending folds can supply is reported as malformed
    rather than silently truncated.
    """

    def __init__(self, reader: DigitReader, model, *, ar: bool = True):
        super().__init__(model, ar)
        self.reader = reader
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
        in it are only cached, not consumed, so reader.consumed and the
        point where the budget check trips are the same as with one read
        per symbol.

        The budget is checked at the prefix shift alone: with c digits
        read and m owed, c + m - pending <= declared_count + N holds
        throughout.  A fold adds k to m and to pending, a refill moves m
        into c, and a straddle exit (pending -> 0) is itself a prefix
        shift, of at least one digit."""
        out = [] if out is None else out
        if self.finished:
            raise ValueError("decoder already finished")
        decode, eom = self.model.decode, self.model.eom
        P, N, size, pw, top, rpw, binary, S, tmask = self._grid
        floor, ar = self.floor, self.ar
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
        w = (r - l) % size or size
        g, c, m = self.g, reader.consumed, 0  # c digits read, m more owed
        buf, nb = self._ahead
        try:
            for _ in repeat(None) if limit is None else range(limit):
                if until_end and c >= budget:
                    break
                off = (g - l) % size
                if off >= w:
                    raise ValueError(f"code point {g} outside interval [{l}, {r})")
                a, b, s = decode(off, w)
                l, r = (l + a) % size, (l + b) % size
                if s == eom:
                    self.finished = True
                    break
                while True:
                    r1 = (r - 1) % size
                    if binary:
                        n = N - (l ^ r1).bit_length()
                    else:
                        n = 0
                        while n < N and l // rpw[n] == r1 // rpw[n]:
                            n += 1
                    if n:
                        # With folds pending this is a straddle exit, and the
                        # shift sheds the flush's first digit as well.
                        pivot = pending = 0
                        if c + n > budget:
                            raise _exhausted()
                        q, u = pw[N - n], pw[n]
                        l = (l % q) * u
                        r = (r % q) * u
                        g = (g % q) * u
                        m = n
                    if ar and binary:
                        if l < top <= r:
                            k = S - ((r | ~l) & tmask).bit_length()
                            if k:
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
            self._ahead = (buf, nb)
            reader.consumed = c
        return out


def _exhausted():
    return MalformedStreamError("digit stream exhausted before the message ended")


def _empty_cell(a, b, w):
    return ValueError(f"empty symbol interval [{a}, {b}) in width {w}")


def encode(symbols, model, *, ar: bool = True, flush: str = "min"):
    """Encode a symbol sequence; returns the emitted digits, one byte
    each."""
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
