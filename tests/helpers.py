"""Shared generators for the codec tests and the acceptance suite."""

import random

from padc import (
    AdaptiveModel,
    Decoder,
    DigitReader,
    GridParams,
    HuffmanModel,
    StaticModel,
    UnaryModel,
    canonical_codebook,
    huffman_code_lengths,
)


def scaled_counts(rng, n, cap, hi=60):
    if n > cap:
        raise ValueError(f"{n} positive counts cannot sum below cap {cap}")
    counts = [rng.randint(1, hi) for _ in range(n)]
    while sum(counts) > cap:
        counts = [max(1, c // 2) for c in counts]
    return counts


def random_binary_book(rng, alphabet, max_len):
    """Canonical codebook from a random Huffman tree (includes every symbol)."""
    freqs = [rng.randint(1, 64) for _ in range(alphabet)]
    lengths = huffman_code_lengths(freqs, max_len=max_len)
    return canonical_codebook(lengths)


def random_pary_book(rng, p, max_len, max_leaves=64):
    """Random complete prefix-free base-p codebook grown leafwise."""
    leaves = [()]
    while True:
        growable = [cw for cw in leaves if len(cw) < max_len]
        if not growable:
            break
        if len(leaves) > 1 and (len(leaves) + p - 1 > max_leaves or rng.random() < 0.5):
            break
        cw = rng.choice(growable)
        leaves.remove(cw)
        leaves.extend(cw + (d,) for d in range(p))
    rng.shuffle(leaves)
    return {s: cw for s, cw in enumerate(leaves)}


def decoder_at(model, l, r, g):
    """A Decoder of model over N zero digits, set to the interval (l, r)
    and the window g."""
    dec = Decoder(DigitReader.from_digits(model.params, bytes(model.params.N)), model)
    dec.state.l, dec.state.r, dec.g = l, r, g
    return dec


def random_trial(rng):
    """One randomized coding configuration: (params, model_factory, msg, ar, flush)."""
    kind = rng.choice(["static", "adaptive", "huffman", "unary"])
    p = rng.choice([2, 3, 5])
    if kind == "huffman":
        p = rng.choice([2, 2, 3, 5])
    n = rng.randint(6, 31) if p == 2 else rng.randint(4, 12)
    params = GridParams(p, n)
    cap = params.powers[n - 2]
    ar = rng.random() < 0.5
    flush = rng.choice(["min", "left"])
    u = rng.random()
    if u < 0.6:
        length = int(300**rng.random()) - 1
    elif u < 0.9:
        length = rng.randint(0, 1000)
    else:
        length = rng.randint(1000, 2000)

    if kind == "unary":
        msg = [0] * length
        return params, (lambda: UnaryModel(params)), msg, ar, flush
    if kind == "huffman":
        if p == 2:
            alphabet = rng.randint(2, min(64, 2 ** min(n, 6)))
            book = random_binary_book(rng, alphabet, max_len=n)
        else:
            book = random_pary_book(rng, p, max_len=n)
        eom = max(book)
        msg = [rng.randrange(eom) for _ in range(length)] if eom else []
        return params, (lambda: HuffmanModel(book, params, eom_symbol=eom)), msg, ar, flush
    alphabet = rng.randint(1, min(64, cap - 1))
    msg = [rng.randrange(alphabet) for _ in range(length)]
    if kind == "static":
        counts = scaled_counts(rng, alphabet + 1, cap)
        return params, (lambda: StaticModel(counts, params)), msg, ar, flush
    return params, (lambda: AdaptiveModel(alphabet, params)), msg, ar, flush


_WORDS = (
    "the quick brown fox jumps over a lazy dog while seventy jovial "
    "zebras quietly graze beside the riverbank and watch the pale moon "
    "rise beyond distant hills as travellers gather around warm fires "
    "telling long stories about storms harbours maps compasses and the "
    "strange habit of numbers that refuse to stay still"
).split()


def make_text(rng: random.Random, size: int) -> bytes:
    out = []
    total = 0
    while total < size:
        word = rng.choice(_WORDS)
        if rng.random() < 0.08:
            word = word.capitalize()
        sep = "\n" if rng.random() < 0.07 else " "
        piece = word + ("." if rng.random() < 0.06 else "") + sep
        out.append(piece)
        total += len(piece)
    return "".join(out).encode("ascii")[:size]
