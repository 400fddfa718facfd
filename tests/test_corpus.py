import numpy as np
import pytest

from hwsynth.corpus import (
    MAX_VOCAB,
    batch_windows,
    bundled_corpus_path,
    load_corpus,
)
from hwsynth.numkit import ContractViolation


def reference_encoding(text):
    """Ids by a per-character dict lookup: what `load_corpus` must match."""
    chars = sorted(set(text))
    lut = {ch: i for i, ch in enumerate(chars)}
    return chars, np.array([lut[ch] for ch in text], dtype=np.int64)


NON_ASCII = [chr(c) for c in (0xE9, 0x3B1, 0x416, 0x20AC, 0x4E2D, 0xFFFD)]


def generated_text(kind, rng):
    """A seeded text of one kind; every symbol of its alphabet appears."""
    alphabet = {"bmp": list("abc xyz\n") + NON_ASCII,
                "astral": list("ab \n") + NON_ASCII[:2] + ["\U0001F600"],
                "crlf": list("abcd ") + ["\r\n"],
                "two": ["a", "b"],
                "max_vocab": [chr(0x20 + i) for i in range(95)]
                             + [chr(0x3B1 + i) for i in range(MAX_VOCAB - 95)]}[kind]
    pieces = list(rng.permutation(alphabet)) + list(rng.choice(alphabet, size=2000))
    return "".join(pieces)


class TestBundledCorpus:
    def test_loads_within_limits(self):
        corpus = load_corpus(bundled_corpus_path())
        assert 2 <= corpus.vocab_size <= MAX_VOCAB
        n = len(corpus.train) + len(corpus.valid) + len(corpus.test)
        assert n >= 90_000  # ~100 KB of text

    def test_default_split_fractions(self):
        corpus = load_corpus(bundled_corpus_path())
        n = len(corpus.train) + len(corpus.valid) + len(corpus.test)
        assert len(corpus.train) == int(n * 0.8)
        assert len(corpus.valid) == int(n * 0.1)

    def test_ids_map_back_to_text(self):
        path = bundled_corpus_path()
        corpus = load_corpus(path)
        ids = np.concatenate([corpus.train, corpus.valid, corpus.test])
        text = path.read_text(encoding="utf-8")
        assert "".join(corpus.chars[i] for i in ids) == text
        assert corpus.chars == sorted(set(corpus.chars))
        assert ids.dtype == np.int64 and np.array_equal(ids, reference_encoding(text)[1])


class TestGeneratedTexts:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind, vocab", [
        ("bmp", 14), ("astral", 7), ("crlf", 6), ("two", 2), ("max_vocab", MAX_VOCAB)])
    def test_ids_match_a_per_character_lookup(self, tmp_path, kind, vocab, seed):
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(generated_text(kind, np.random.default_rng(seed)).encode("utf-8"))
        text = path.read_text(encoding="utf-8")     # CRLF reads as "\n"
        corpus = load_corpus(path)
        chars, ids = reference_encoding(text)
        got = np.concatenate([corpus.train, corpus.valid, corpus.test])
        assert corpus.chars == chars and corpus.vocab_size == vocab
        assert [ord(c) for c in corpus.chars] == sorted(ord(c) for c in corpus.chars)
        assert got.dtype == np.int64 and np.array_equal(got, ids)
        assert "".join(corpus.chars[i] for i in got) == text and "\r" not in corpus.chars


class TestLoadErrors:
    def test_single_symbol_corpus(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("aaaa", encoding="utf-8")
        with pytest.raises(ContractViolation):
            load_corpus(path)

    def test_vocab_overflow(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("".join(chr(0x100 + i) for i in range(MAX_VOCAB + 1)),
                        encoding="utf-8")
        with pytest.raises(ContractViolation, match="128"):
            load_corpus(path)

    def test_bad_fractions(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("abcd" * 100, encoding="utf-8")
        with pytest.raises(ContractViolation):
            load_corpus(path, train_frac=0.9, valid_frac=0.2)


class TestBatchWindows:
    def test_shapes_and_next_token_targets(self):
        tokens = np.arange(100)
        windows = list(batch_windows(tokens, batch=3, seq_len=4))
        # lane length (100-1)//3 = 33 -> 8 windows of 4
        assert len(windows) == 8
        for xs, ys in windows:
            assert xs.shape == (3, 4) and ys.shape == (3, 4)
            assert np.array_equal(ys, xs + 1)  # targets are next tokens

    def test_lanes_are_contiguous_streams(self):
        tokens = np.arange(100)
        first_xs, _ = next(iter(batch_windows(tokens, batch=2, seq_len=5)))
        lane = (100 - 1) // 2
        assert first_xs[1, 0] == lane  # lane 2 starts where lane 1's slice ends

    def test_short_stream_yields_nothing(self):
        assert list(batch_windows(np.arange(5), batch=2, seq_len=10)) == []

    def test_invalid_args(self):
        with pytest.raises(ContractViolation):
            list(batch_windows(np.arange(10), batch=0, seq_len=2))
