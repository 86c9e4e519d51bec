import csv
import io
import random

import pytest

from padc import read_container
from padc.cli import _KINDS, main
from padc.digitio import MODEL_IDS
from helpers import make_text


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def roundtrip(tmp_path, capsys, data, *flags):
    src = tmp_path / "src.bin"
    packed = tmp_path / "packed.padc"
    out = tmp_path / "back.bin"
    src.write_bytes(data)
    code, stdout, _ = run_cli(capsys, "encode", *flags, src, packed)
    assert code == 0, stdout
    assert f"original {len(data)} bytes" in stdout
    code, _, err = run_cli(capsys, "decode", packed, out)
    assert code == 0, err
    assert out.read_bytes() == data
    return packed


def test_every_container_kind_is_a_model_choice():
    assert set(_KINDS) == set(MODEL_IDS)


class TestEncodeDecode:
    @pytest.mark.parametrize("model", ["adaptive", "static", "huffman"])
    def test_text_roundtrip(self, tmp_path, capsys, model):
        data = make_text(random.Random(1), 5000)
        roundtrip(tmp_path, capsys, data, "--model", model)

    @pytest.mark.parametrize("model", ["adaptive", "static", "huffman"])
    def test_empty_file(self, tmp_path, capsys, model):
        roundtrip(tmp_path, capsys, b"", "--model", model)

    @pytest.mark.parametrize("model", ["adaptive", "static", "huffman", "unary"])
    def test_single_repeated_byte(self, tmp_path, capsys, model):
        roundtrip(tmp_path, capsys, b"A" * 500, "--model", model)

    @pytest.mark.parametrize("N", [31, 4])
    @pytest.mark.parametrize(
        "data, run, payload",
        [
            # gamma codes: each code length plus 1 (1 -> "010", 0 -> "1"),
            # then the digit count plus 1 (0 -> "1", 10 -> "0001011")
            (b"", "010" "010" + "1" * 254 + "1", b""),
            (b"\xff" * 10, "010" + "1" * 254 + "010" + "0001011", b"\xff\xc0"),
            (b"\x00" * 10, "010" "010" + "1" * 254 + "0001011", b"\x00\x00"),
        ],
        ids=["empty", "ff-repeated", "00-repeated"],
    )
    def test_degenerate_huffman_containers(
        self, tmp_path, capsys, data, run, payload, N
    ):
        # Fewer than two distinct bytes: the book is padded with the next
        # byte value to two one-digit codewords.
        packed = roundtrip(tmp_path, capsys, data, "--model", "huffman", "-N", N)
        header = b"PADC\x03\x02" + bytes([N, 0x01, 2]) + (256).to_bytes(2, "little")
        run = run + "0" * (-len(run) % 8)
        model = int(run, 2).to_bytes(len(run) // 8, "big")
        assert len(model) == (33 if not data else 34)
        assert packed.read_bytes() == header + model + payload

    def test_binary_blob(self, tmp_path, capsys):
        data = bytes(random.Random(2).randrange(256) for _ in range(4000))
        roundtrip(tmp_path, capsys, data)

    def test_no_ar_and_flush_left(self, tmp_path, capsys):
        data = make_text(random.Random(3), 3000)
        roundtrip(tmp_path, capsys, data, "--no-ar")
        roundtrip(tmp_path, capsys, data, "--flush", "left")
        roundtrip(tmp_path, capsys, data, "--no-ar", "--flush", "left")

    def test_base3_grid(self, tmp_path, capsys):
        data = make_text(random.Random(4), 2000)
        roundtrip(tmp_path, capsys, data, "-P", 3, "-N", 10)

    def test_freq_file(self, tmp_path, capsys):
        counts = [1] * 257
        for b in b"hello world":
            counts[b] += 40
        freq = tmp_path / "freqs.txt"
        freq.write_text(" ".join(map(str, counts)))
        roundtrip(
            tmp_path, capsys, b"hello world" * 30, "--model", "static",
            "--freq-file", freq,
        )

    def test_unary_mixed_bytes_rejected(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"ab")
        code, _, err = run_cli(capsys, "encode", "--model", "unary", src, tmp_path / "o")
        assert code == 1
        assert "single repeated byte" in err

    def test_unary_golomb_digits(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"z" * 5)
        packed = tmp_path / "p"
        code, _, _ = run_cli(
            capsys, "encode", "--model", "unary", "-N", 4, "--flush", "left",
            src, packed,
        )
        assert code == 0
        header, reader = read_container(packed.read_bytes())
        assert reader.get_digits(header.digit_count) == [1, 0, 1, 0]

    def test_compresses_text(self, tmp_path, capsys):
        data = make_text(random.Random(5), 40_000)
        packed = roundtrip(tmp_path, capsys, data)
        assert packed.stat().st_size < len(data)

    def test_reencoding_is_bit_identical(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.write_bytes(make_text(random.Random(10), 3000))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "encode", src, a)[0] == 0
        assert run_cli(capsys, "encode", src, b)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_missing_input(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "encode", tmp_path / "absent", tmp_path / "o")
        assert code == 2
        assert "cannot read" in err

    def test_bad_flag_usage(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "encode", "--model", "bogus", "x", "y")
        assert code == 1
        assert "invalid choice" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--model")
        assert code == 1

    def test_bad_grid(self, tmp_path, capsys):
        src = tmp_path / "s"
        src.write_bytes(b"x")
        code, _, err = run_cli(capsys, "encode", "-P", 4, src, tmp_path / "o")
        assert code == 1
        code, _, err = run_cli(capsys, "encode", "-N", 40, src, tmp_path / "o")
        assert code == 1

    @pytest.mark.parametrize("N", [3, 4])
    def test_base_must_fit_container_byte(self, tmp_path, capsys, N):
        src, out = tmp_path / "s", tmp_path / "o"
        src.write_bytes(b"x")
        code, _, err = run_cli(capsys, "encode", "-P", 257, "-N", N, src, out)
        assert code == 1
        assert "one-byte field, got 257" in err
        code, _, err = run_cli(capsys, "bench", "-P", 257, "-N", N, tmp_path)
        assert code == 1
        assert "one-byte field, got 257" in err
        flags = ("--model", "unary", "-P", 251, "-N", 3)
        assert run_cli(capsys, "encode", *flags, src, out)[0] == 0

    @pytest.mark.parametrize("model", sorted(set(_KINDS) - {"static"}))
    def test_freq_file_needs_static_model(self, tmp_path, capsys, model):
        src, out = tmp_path / "s", tmp_path / "o"
        src.write_bytes(b"aaaa")
        flags = ("encode", "--model", model)
        assert run_cli(capsys, *flags, src, out)[0] == 0
        out.unlink()
        code, _, err = run_cli(capsys, *flags, "--freq-file", tmp_path / "absent", src, out)
        assert code == 1
        assert "--model static only" in err
        assert not out.exists()

    def test_adaptive_needs_room(self, tmp_path, capsys):
        src = tmp_path / "s"
        src.write_bytes(b"x")
        code, _, err = run_cli(capsys, "encode", "-N", 8, src, tmp_path / "o")
        assert code == 1

    def test_decode_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(b"not a container")
        code, _, err = run_cli(capsys, "decode", bad, tmp_path / "o")
        assert code == 3
        assert "bad container" in err

    def test_decode_truncated(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.write_bytes(make_text(random.Random(6), 2000))
        packed = tmp_path / "p"
        run_cli(capsys, "encode", src, packed)
        blob = packed.read_bytes()
        packed.write_bytes(blob[: len(blob) - 5])
        code, _, err = run_cli(capsys, "decode", packed, tmp_path / "o")
        assert code == 3
        assert "truncated" in err


class TestStats:
    def test_fields_match_container(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.write_bytes(make_text(random.Random(7), 1500))
        packed = tmp_path / "p"
        run_cli(capsys, "encode", "--model", "static", "-N", 20, src, packed)
        code, out, _ = run_cli(capsys, "stats", packed)
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        header, reader = read_container(packed.read_bytes())
        assert int(fields["P"]) == header.params.P
        assert int(fields["N"]) == 20
        assert fields["model"] == "static"
        assert fields["ar"] == "on"
        assert fields["flush"] == "min"
        assert int(fields["alphabet_size"]) == 256
        assert int(fields["digit_count"]) == header.digit_count
        assert int(fields["payload_bytes"]) == len(reader.payload)
        assert int(fields["container_bytes"]) == packed.stat().st_size
        keys = list(fields)
        assert keys[keys.index("alphabet_size") + 1] == "model_bytes"

    @pytest.mark.parametrize(
        "flags, model_values",
        [
            (["--model", "adaptive"], []),
            (["--model", "unary"], [ord("u") + 1]),
            (["--model", "huffman"], None),
            (["--model", "static", "-P", 3, "-N", 20, "--no-ar"], None),
        ],
        ids=["adaptive", "unary", "huffman", "static-p3"],
    )
    def test_model_bytes_add_up(self, tmp_path, capsys, flags, model_values):
        src = tmp_path / "src"
        data = b"u" * 600 if "unary" in flags else make_text(random.Random(8), 600)
        src.write_bytes(data)
        packed = tmp_path / "p"
        assert run_cli(capsys, "encode", *flags, src, packed)[0] == 0
        code, out, _ = run_cli(capsys, "stats", packed)
        assert code == 0
        fields = dict(line.split(": ") for line in out.splitlines())
        model_bytes = int(fields["model_bytes"])
        if model_values is not None:
            values = model_values + [int(fields["digit_count"]) + 1]
            bits = sum(2 * v.bit_length() - 1 for v in values)
            assert model_bytes == (bits + 7) // 8
        assert 11 + model_bytes + int(fields["payload_bytes"]) == int(
            fields["container_bytes"]
        )


class TestBench:
    def test_csv_shape(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        rng = random.Random(8)
        (d / "a.txt").write_bytes(make_text(rng, 3000))
        (d / "b.txt").write_bytes(make_text(rng, 1000))
        (d / "c.bin").write_bytes(bytes(rng.randrange(8) for _ in range(2000)))
        code, out, _ = run_cli(capsys, "bench", d)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "name", "original_bytes", "compressed_bytes", "bits_per_byte",
            "seconds", "status",
        ]
        names = [r[0] for r in rows[1:]]
        assert names == ["a.txt", "b.txt", "c.bin", "TOTAL"]
        total = rows[-1]
        assert int(total[1]) == 6000
        assert int(total[2]) == sum(int(r[2]) for r in rows[1:-1])

    def test_empty_directory(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, out, _ = run_cli(capsys, "bench", d)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][0] == "TOTAL" and rows[1][1] == "0"

    def test_uncodable_file_gets_failed_row(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.txt").write_bytes(b"a" * 50)
        (d / "b.txt").write_bytes(b"ab")
        (d / "c.txt").write_bytes(b"c" * 30)
        code, out, err = run_cli(capsys, "bench", "--model", "unary", d)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [(r[0], r[-1]) for r in rows[1:]] == [
            ("a.txt", "ok"), ("b.txt", "failed"), ("c.txt", "ok"), ("TOTAL", "ok"),
        ]
        assert int(rows[-1][1]) == 80
        assert "single repeated byte" in err

    def test_iid_file_near_entropy(self, tmp_path, capsys):
        from padc.oracles import entropy

        d = tmp_path / "corpus"
        d.mkdir()
        rng = random.Random(9)
        weights = [rng.randint(1, 40) for _ in range(64)]
        data = bytes(rng.choices(range(64), weights=weights, k=120_000))
        (d / "iid.bin").write_bytes(data)
        code, out, _ = run_cli(capsys, "bench", d)
        assert code == 0
        row = next(r for r in csv.reader(io.StringIO(out)) if r[0] == "iid.bin")
        counts = [0] * 64
        for b in data:
            counts[b] += 1
        h = entropy(counts)
        assert float(row[3]) <= h * 1.02
        assert float(row[3]) >= h * 0.9
