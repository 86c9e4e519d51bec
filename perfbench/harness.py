"""Closed-loop CLI round-trip benchmark for padc.

One process runs one workload with a single caller: encode the seeded
corpus with ``padc.cli.main(["encode", ...])``, decode it with
``main(["decode", ...])``, check the result, and start the next round
trip.  Round trips repeat until the run's time is up.  A round trip
fails on a nonzero exit, an exception, decoded bytes that differ from
the input, or a digit-stream SHA-256 that differs from the golden one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced round trips and reports the per-layer metrics from
the traced ones, plus the traced-over-untraced slowdown.

The last line of standard output is the JSON result; the line before it
is JSON metadata (corpus size and entropy, sample counts, failures).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import padc.cli
import padc.digitio

from . import corpus
from .tracing import LEVELS, LayeredTrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"

CORPUS_BYTES = 32 * 1024
SETUP_PREFIX_BYTES = 2 * 1024
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 20
DEFAULT_SEED = 0

# name -> (corpus generator, padc encode flags)
WORKLOADS = {
    "text-adaptive": (corpus.make_text, ["--model", "adaptive", "-P", "2", "-N", "31"]),
    "skewed-huffman": (corpus.make_skewed, ["--model", "huffman", "-P", "2", "-N", "31"]),
    "text-static-p3-noar": (
        corpus.make_text,
        ["--model", "static", "-P", "3", "-N", "20", "--no-ar"],
    ),
}


def load_golden(path=BENCH_DIR / "golden.json"):
    """{workload: {"corpus_bytes": n, "digests": {seed: sha256 hex}}}."""
    with open(path) as f:
        return json.load(f)


class RoundTrip:
    """One encode + decode of `data` through the CLI, with its checks."""

    def __init__(self, workdir, flags, tracer=None):
        self.src = workdir / "input.bin"
        self.container = workdir / "input.padc"
        self.out = workdir / "output.bin"
        self.flags = flags
        self.tracer = tracer

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is None:
                return padc.cli.main(argv)
            return self.tracer.call("cli." + argv[0], padc.cli.main, argv)

    def code(self, data):
        """Encode and decode `data`; returns a dict with the timings and
        a failure reason (None while the round trip has not failed)."""
        self.src.write_bytes(data)
        res = {"enc_s": None, "dec_s": None, "failure": None}
        try:
            t0 = time.perf_counter()
            rc = self._cli(["encode", *self.flags, str(self.src), str(self.container)])
            res["enc_s"] = time.perf_counter() - t0
            if rc != 0:
                res["failure"] = f"encode exited {rc}"
                return res
            t0 = time.perf_counter()
            rc = self._cli(["decode", str(self.container), str(self.out)])
            res["dec_s"] = time.perf_counter() - t0
            if rc != 0:
                res["failure"] = f"decode exited {rc}"
        except Exception as e:  # a crash in the coder is a failed round trip
            res["failure"] = f"{type(e).__name__}: {e}"
        return res

    def verify(self, data, res, expected_digest):
        """Check decoded bytes and the digit-stream digest; adds sizes and
        the digest to res."""
        if res["failure"]:
            return res
        try:
            decoded = self.out.read_bytes()
            # The digest covers the digits, one byte each, read back
            # through read_container and DigitReader: a container layout
            # change alone leaves it unchanged.
            blob = self.container.read_bytes()
            header, reader = padc.digitio.read_container(blob)
            digits = bytes(reader.get_digits(header.digit_count))
        except (OSError, ValueError) as e:
            res["failure"] = f"cannot read back the round trip: {e}"
            return res
        if decoded != data:
            res["failure"] = "decoded bytes differ from the input"
            return res
        res["container_bytes"] = len(blob)
        res["digit_count"] = header.digit_count
        res["P"] = header.params.P
        res["digest"] = hashlib.sha256(digits).hexdigest()
        if expected_digest is not None and res["digest"] != expected_digest:
            res["failure"] = "digit-stream digest differs from the golden digest"
        return res

    def run(self, data, expected_digest):
        return self.verify(data, self.code(data), expected_digest)


def measure_setup(workdir, flags, prefix):
    """Median seconds, over fresh interpreters, of `import padc.cli` plus
    one round trip of `prefix`; also returns the failure reasons."""
    src = workdir / "setup_input.bin"
    src.write_bytes(prefix)
    cmd = [
        sys.executable,
        str(BENCH_DIR / "setup_probe.py"),
        str(ROOT / "src"),
        str(src),
        str(workdir / "setup.padc"),
        str(workdir / "setup_output.bin"),
        *flags,
    ]
    times, failures = [], []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            failures.append("setup probe timed out")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        probe = json.loads(lines[-1])
        times.append(probe["seconds"])
        if not probe["ok"]:
            failures.append("setup round trip output differs from its input")
    return (statistics.median(times) if times else None), failures


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _slow_decile(times):
    """The 90th percentile of `times`.  On a shared host whose speed
    alternates for seconds at a time, the share of fast time in a run
    moves the median; nine in ten round trips reach the throughput this
    percentile gives, whatever that share."""
    if len(times) < 2:
        return _median(times)
    return statistics.quantiles(times, n=10)[-1]


def end_to_end_metrics(rts, setup_s):
    """End-to-end figures from the untraced round trips."""
    kib = _median([r["bytes"] for r in rts]) / 1024
    code_bpb = container_bpb = 0.0
    if rts:
        r = rts[0]
        code_bpb = r["digit_count"] * math.log2(r["P"]) / r["bytes"]
        container_bpb = 8 * r["container_bytes"] / r["bytes"]
    return {
        "enc_kBps": _metric(_ratio(kib, _slow_decile([r["enc_s"] for r in rts])), "KiB/s"),
        "dec_kBps": _metric(_ratio(kib, _slow_decile([r["dec_s"] for r in rts])), "KiB/s"),
        "code_bits_per_byte": _metric(code_bpb, "bit/B"),
        "container_bits_per_byte": _metric(container_bpb, "bit/B"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }


def per_layer_metrics(layers, full_rts, plain_rts):
    """Per-layer figures.  Counts and rates come from the round trips
    traced at the full level, times as LayeredTrace gives them."""
    full = layers.full
    c = full.counts
    bytes_enc = bytes_dec = sum(r["bytes"] for r in full_rts)
    both = bytes_enc + bytes_dec
    digits = sum(r["digit_count"] for r in full_rts)

    def codec_self(name):
        # The span's own work plus that of the codec spans right below it.
        calls = layers.calls(name)
        total = layers.self_ns(name)
        for (child, parent), rec in full.stats.items():
            if parent == name and child.startswith("codec."):
                total += rec[0] / calls * layers.self_ns(child)
        return total

    core = [rec for (name, _), rec in full.stats.items() if name.startswith("core.")]
    valve = c["enc_renorm_prefix"] - c["enc_steps_pending0"] - c["enc_step_flushes"]
    push_ns = layers.busy_ns("digitio.push_digits") * layers.calls("digitio.push_digits")
    traced_s = _median([r["enc_s"] + r["dec_s"] for r in full_rts])
    plain_s = _median([r["enc_s"] + r["dec_s"] for r in plain_rts])
    model_calls = layers.calls("models.code") + layers.calls("models.decode")
    return {
        "models.code_ns": _metric(layers.busy_ns("models.code"), "ns"),
        "models.decode_ns": _metric(layers.busy_ns("models.decode"), "ns"),
        "models.calls_per_byte": _metric(_ratio(model_calls, both), "1/B"),
        "codec.step_self_ns": _metric(codec_self("codec.Encoder.step"), "ns"),
        "codec.next_symbol_self_ns": _metric(codec_self("codec.Decoder.next_symbol"), "ns"),
        "codec.folds_per_byte": _metric(_ratio(c["enc_folds"], bytes_enc), "1/B"),
        "codec.flushes_per_byte": _metric(_ratio(c["enc_flushes"], bytes_enc), "1/B"),
        "codec.prefix_digits_per_byte": _metric(
            _ratio(c["enc_prefix_digits"], bytes_enc), "1/B"
        ),
        "codec.flush_digits_per_byte": _metric(
            _ratio(c["enc_flush_digits"], bytes_enc), "1/B"
        ),
        "codec.valve_per_byte": _metric(_ratio(valve, bytes_enc), "1/B"),
        "digitio.push_ns_per_digit": _metric(_ratio(push_ns, digits), "ns"),
        "digitio.get_digit_ns": _metric(layers.busy_ns("digitio.get_digit"), "ns"),
        "digitio.reads_per_byte": _metric(
            _ratio(layers.calls("digitio.get_digit"), bytes_dec), "1/B"
        ),
        "digitio.container_write_ms": _metric(
            layers.busy_ns("digitio.write_container") / 1e6, "ms"
        ),
        "digitio.container_read_ms": _metric(
            layers.busy_ns("digitio.read_container") / 1e6, "ms"
        ),
        "core.calls_per_byte": _metric(_ratio(sum(r[0] for r in core), both), "1/B"),
        "core.busy_ns_per_byte": _metric(_ratio(sum(r[1] for r in core), both), "ns/B"),
        "cli.encode_self_ms": _metric(layers.self_ns("cli.encode") / 1e6, "ms"),
        "cli.decode_self_ms": _metric(layers.self_ns("cli.decode") / 1e6, "ms"),
        "trace.overhead_x": _metric(_ratio(traced_s, plain_s), "x"),
    }


def write_spans(layers, path):
    """Write each level's aggregates and raw span prefix as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "fields": ["round_trip", "span", "parent", "start_ns", "end_ns"],
                "levels": {
                    level: {
                        "spans": t.raw,
                        "aggregate": [[n, p, *rec] for (n, p), rec in t.stats.items()],
                    }
                    for level, t in layers.levels.items()
                },
            }
        )
    )


class Run:
    """One run of one workload: set-up, checks, the timed loop."""

    def __init__(self, workload, seed, corpus_bytes, golden, workdir):
        self.make, self.flags = WORKLOADS[workload]
        self.corpus_bytes = corpus_bytes
        self.data = self.make(seed, corpus_bytes)
        entry = golden.get(workload, {})
        self.digests = (
            entry.get("digests", {}) if entry.get("corpus_bytes") == corpus_bytes else {}
        )
        self.expected = self.digests.get(str(seed))
        self.workdir = workdir
        self.plain = RoundTrip(workdir, self.flags)
        self.attempted = 0
        self.failures = []
        self._first_digest = None

    def _count(self, res, label=""):
        self.attempted += 1
        if res["failure"]:
            self.failures.append(label + res["failure"])

    def setup(self, timed):
        """Time set-up in fresh interpreters (if `timed`), warm up in
        process, and check bit-exactness on the default corpus when this
        seed has no golden digest of its own.  Returns setup seconds."""
        setup_s = 0.0
        if timed:
            setup_s, failures = measure_setup(
                self.workdir, self.flags, self.data[:SETUP_PREFIX_BYTES]
            )
            self.attempted += SETUP_REPEATS
            self.failures += failures
        self._count(self.plain.run(self.data[:SETUP_PREFIX_BYTES], None), "warm-up: ")
        default = self.digests.get(str(DEFAULT_SEED))
        if self.expected is None and default is not None:
            check = self.plain.run(self.make(DEFAULT_SEED, self.corpus_bytes), default)
            self._count(check, "default-seed check: ")
        return setup_s or 0.0

    def round_trip(self, tracer=None):
        """One timed round trip, traced by `tracer` if given; returns it
        if it succeeded, else None."""
        if tracer is None:
            res = self.plain.code(self.data)
        else:
            tracer.install(padc)
            try:
                res = RoundTrip(self.workdir, self.flags, tracer).code(self.data)
            finally:
                tracer.uninstall()
        self.plain.verify(self.data, res, self.expected)
        if res["failure"] is None and self.expected is None:
            # No golden digest: every round trip must match the first.
            self._first_digest = self._first_digest or res["digest"]
            if res["digest"] != self._first_digest:
                res["failure"] = "digit stream differs between round trips"
        self._count(res)
        if res["failure"]:
            return None
        res["bytes"] = len(self.data)
        return res


def run(workload, seed, seconds, trace, corpus_bytes=CORPUS_BYTES, golden=None):
    """Run one workload; returns (result, metadata).

    `golden` maps workload -> {"corpus_bytes", "digests"}; it defaults to
    the stored golden digests.  Digests apply only to corpora of the size
    they were computed for.
    """
    workdir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if golden is None:
            golden = load_golden()
        r = Run(workload, seed, corpus_bytes, golden, workdir)
        setup_s = r.setup(timed=not trace)
        # With tracing, every other round trip is traced, cycling through
        # the levels so that each gets at least one.
        layers = LayeredTrace() if trace else None
        samples = {"plain": [], **{level: [] for level in LEVELS}}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < (2 * len(LEVELS) if trace else 1) or time.perf_counter() < deadline:
            level = LEVELS[(i // 2) % len(LEVELS)] if trace and i % 2 else None
            tracer = layers.levels[level] if level else None
            if tracer:
                tracer.request = i
            res = r.round_trip(tracer)
            if res:
                samples[level or "plain"].append(res)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = samples["plain"]
    meta = {
        "workload": workload,
        "seed": seed,
        "corpus_bytes": len(r.data),
        "order0_bits_per_byte": corpus.order0_entropy(r.data),
        "round_trips": {str(k): len(v) for k, v in samples.items()},
        "enc_s": [x["enc_s"] for x in plain],
        "dec_s": [x["dec_s"] for x in plain],
        "digest": plain[0]["digest"] if plain else None,
        "golden_digest": r.expected,
        "failed_frac": len(r.failures) / r.attempted,
        "failures": r.failures[:20],
    }
    if trace:
        metrics = per_layer_metrics(layers, samples[LEVELS[-1]], plain)
        spans = WORK_DIR / f"spans-{workload}-{seed}.json"
        write_spans(layers, spans)
        meta["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(plain, setup_s)
    result = {
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": metrics,
    }
    return result, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in meta["failures"]:
        print(f"perfbench: round trip failed: {reason}", file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0
