"""Seeded corpora for the benchmark workloads.

The generators depend only on the seed and the size, never on the
repository's test helpers, so the inputs stay fixed while the tests
change.
"""

import math
import random

# A fixed vocabulary with Zipf-like weights: the seed picks the word
# order, the vocabulary and its weights stay the same for every seed, so
# every seed gives text of the same statistics.
_VOCAB = (
    "the of and to in a is that for it as was with be by on not he this"
    " are or his from at which but have an they you were her she there"
    " been one all would their we him when who will more no if out so"
    " said what up its about into than them can only other new some could"
    " time these two may then do first any my now such like our over man"
    " me even most made after also did many before must through back years"
    " where much your way well down should because each just those people"
    " how too little state good very make world still own see men work long"
    " get here between both life being under never day same another know"
    " while last might us great old year off come since against go came"
    " right used take three ring prime digit grid interval fold carry"
    " pivot renorm straddle prefix window stream model symbol table coder"
).split()
_WEIGHTS = [1.0 / (rank + 2) for rank in range(len(_VOCAB))]


def make_text(seed: int, size: int) -> bytes:
    """Word-salad ASCII text of exactly `size` bytes."""
    rng = random.Random(seed)
    out = []
    total = 0
    while total < size:
        words = rng.choices(_VOCAB, _WEIGHTS, k=64)
        for word in words:
            u = rng.random()
            if u < 0.05:
                word = word.capitalize()
            if u > 0.93:
                word += "." if u > 0.97 else ","
            word += "\n" if rng.random() < 0.06 else " "
            out.append(word)
            total += len(word)
    return "".join(out).encode("ascii")[:size]


def make_skewed(seed: int, size: int) -> bytes:
    """I.i.d. bytes where byte value i has weight 0.8**i."""
    rng = random.Random(seed)
    weights = [0.8**i for i in range(256)]
    return bytes(rng.choices(range(256), weights, k=size))


def order0_entropy(data: bytes) -> float:
    """Empirical order-0 entropy in bits per byte."""
    if not data:
        return 0.0
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    n = len(data)
    return -sum(c / n * math.log2(c / n) for c in counts if c)
