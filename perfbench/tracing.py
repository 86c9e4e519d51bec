"""Spans and counters recorded from outside the coder.

The tracer wraps public entry points of the padc modules in the
benchmark process only, and only while a traced round trip runs.  Each
name is patched where the caller looks it up: ``codec`` and ``models``
import ``core`` functions by name, ``cli`` imports ``read_container``
and ``write_container`` by name, and methods are patched on their class
(``cli`` builds ``Encoder``/``Decoder`` through its own name, which
still resolves to the patched class).  Names a later version of the
program no longer has are skipped, so the figures they feed read zero.

A wrapper costs about as much as a small core function, so a span's
busy time is only trusted where it has no traced children.  Tracing
therefore comes in three cumulative levels, one per traced round trip:

    1  codec entry points (Encoder.step/finish, Decoder.next_symbol),
       DigitWriter.push_digits and the container functions
    2  + models code/decode, DigitReader.get_digit, and the encoder's
       renorm_prefix/straddle_flush (whose outputs are counted)
    3  + every core function codec and models look up by name

Spans are aggregated in memory as count, busy time and self time per
(span, parent) pair.  Busy time is the span's duration less the clock
and call overhead measured on an empty call.  Self time is the busy time
less the wall time of the span's traced children, wrappers included,
and less the calibrated part of each child call no clock reading sees.
A span's busy time is taken from the level where it is a leaf, and its
self time from the shallowest level where all its children are traced.
Counts come from level 3, where every span is present.  Raw spans are
kept only for a bounded prefix of each level's round trips.
"""

import inspect
import statistics
import time

LEVELS = (1, 2, 3)
RAW_SPAN_LIMIT = 20000


def _noop():
    return None


class Tracer:
    """Spans of one tracing level."""

    def __init__(self, level, raw_limit=RAW_SPAN_LIMIT):
        self.level = level
        self.stats = {}  # (name, parent name) -> [count, busy_ns, self_ns]
        self.counts = dict.fromkeys(
            (
                "enc_steps_pending0",
                "enc_renorm_prefix",
                "enc_prefix_digits",
                "enc_flushes",
                "enc_step_flushes",
                "enc_flush_digits",
                "enc_folds",
            ),
            0,
        )
        self.raw = []
        self.raw_limit = raw_limit
        self.request = None  # identifier shared by the spans of one round trip
        self._stack = []
        self._patches = []
        self._inner = self._residual = 0.0

    # -- spans ---------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        """Wrap fn so each call records a span; pre(args) runs before
        the call and post(args, result) after it, both outside the span."""
        stack = self._stack
        stats = self.stats
        raw = self.raw
        clock = time.perf_counter_ns
        inner = self._inner
        residual = self._residual
        tracer = self

        def traced(*args, **kwargs):
            w0 = clock()
            if pre is not None:
                pre(args)
            # name, wall time of traced children, their unmeasured calls
            frame = [name, 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0 - inner
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1] - frame[2] * residual
                if len(raw) < tracer.raw_limit:
                    raw.append((tracer.request, name, key[1], t0, t1))
            if post is not None:
                post(args, result)
            if parent is not None:
                parent[1] += clock() - w0
                parent[2] += 1
            return result

        return traced

    def _calibrate(self, calls=2000, rounds=9):
        """Measure the tracer's own cost: `inner`, the duration a span
        records around an empty call, is subtracted from every span;
        `residual`, the part of a traced child call its parent cannot
        see from the clock readings, from the parent's self time per
        child."""
        saved = self.stats, self.raw_limit
        self.stats, self.raw_limit = {}, 0
        cal = self.stats
        probe = self.span("calibrate", _noop)

        def loop(fn):
            for _ in range(calls):
                fn()

        parent = self.span("calibrate.loop", loop)
        inner, residual = [], []
        clock = time.perf_counter_ns
        for _ in range(rounds):
            cal.clear()
            loop(probe)
            inner.append(cal[("calibrate", None)][1] / calls)
            t = clock()
            loop(_noop)
            bare = clock() - t
            cal.clear()
            parent(probe)
            residual.append((cal[("calibrate.loop", None)][2] - bare) / calls)
        self.stats, self.raw_limit = saved
        return statistics.median(inner), statistics.median(residual)

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self.span(name, fn)(*args)

    def parent_name(self):
        return self._stack[-1][0] if self._stack else None

    # -- patching ------------------------------------------------------

    def _wrap(self, owner, attr, name, pre=None, post=None):
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, pre, post))

    def install(self, padc):
        """Calibrate, then patch the entry points of this tracer's level.
        Calibrating at every install follows the machine's speed, which
        drifts between round trips on a shared host."""
        self._inner = self._residual = 0.0
        self._inner, self._residual = self._calibrate()
        cli, codec, core, digitio, models = (
            padc.cli,
            padc.codec,
            padc.core,
            padc.digitio,
            padc.models,
        )
        counts = self.counts

        def step_pre(args):
            if args[0].state.pending == 0:
                counts["enc_steps_pending0"] += 1

        def renorm_post(args, out):
            counts["enc_renorm_prefix"] += 1
            counts["enc_prefix_digits"] += len(out)

        def flush_post(args, out):
            if out is not None:
                counts["enc_flushes"] += 1
                counts["enc_flush_digits"] += len(out)
                counts["enc_folds"] += len(out) - 1
                if self.parent_name() == "codec.Encoder.step":
                    counts["enc_step_flushes"] += 1

        # Level 1.  The step hook stays off where step is a leaf.
        hook = step_pre if self.level >= 2 else None
        if hasattr(codec, "Encoder"):
            self._wrap(codec.Encoder, "step", "codec.Encoder.step", pre=hook)
            self._wrap(codec.Encoder, "finish", "codec.Encoder.finish")
        if hasattr(codec, "Decoder"):
            self._wrap(codec.Decoder, "next_symbol", "codec.Decoder.next_symbol")
        if hasattr(digitio, "DigitWriter"):
            self._wrap(digitio.DigitWriter, "push_digits", "digitio.push_digits")
        for module in (cli, digitio):
            self._wrap(module, "read_container", "digitio.read_container")
            self._wrap(module, "write_container", "digitio.write_container")
        if self.level < 2:
            return

        # Level 2.  Only the encoder calls renorm_prefix and straddle_flush.
        for cls in vars(models).values():
            if inspect.isclass(cls) and cls.__module__ == models.__name__:
                self._wrap(cls, "code", "models.code")
                self._wrap(cls, "decode", "models.decode")
        if hasattr(digitio, "DigitReader"):
            self._wrap(digitio.DigitReader, "get_digit", "digitio.get_digit")
        self._wrap(codec, "renorm_prefix", "codec.renorm_prefix", post=renorm_post)
        self._wrap(codec, "straddle_flush", "codec.straddle_flush", post=flush_post)
        if self.level < 3:
            return

        # Level 3.
        for module in (codec, models):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == core.__name__:
                    self._wrap(module, attr, "core." + attr)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class LayeredTrace:
    """The three levels of one traced run, combined."""

    def __init__(self):
        self.levels = {level: Tracer(level) for level in LEVELS}
        self.full = self.levels[LEVELS[-1]]

    def calls(self, name):
        """Calls of span `name` at the full level."""
        return sum(rec[0] for (n, _), rec in self.full.stats.items() if n == name)

    def busy_ns(self, name):
        """Mean busy ns per call of `name`, from the level where it is a leaf."""
        for level in LEVELS:
            recs = [rec for (n, _), rec in self.levels[level].stats.items() if n == name]
            if recs:
                return sum(r[1] for r in recs) / sum(r[0] for r in recs)
        return 0.0

    def self_ns(self, name):
        """Mean self ns per call of `name`, from the shallowest level where
        all of its children are traced."""
        children = {c for (c, p) in self.full.stats if p == name}
        for level in LEVELS:
            stats = self.levels[level].stats
            if children <= {c for (c, p) in stats if p == name}:
                recs = [rec for (n, _), rec in stats.items() if n == name]
                return sum(r[2] for r in recs) / sum(r[0] for r in recs) if recs else 0.0
        return 0.0
