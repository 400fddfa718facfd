"""Plain-text corpus loading, character vocabulary, splits, and batching."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .numkit import ContractViolation

MAX_VOCAB = 128


def bundled_corpus_path() -> Path:
    """Path of the ~100 KB synthetic text shipped with the package."""
    return Path(resources.files("hwsynth").joinpath("data/corpus.txt"))


@dataclass
class Corpus:
    chars: list[str]               # index -> character
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @property
    def vocab_size(self) -> int:
        return len(self.chars)


def load_corpus(path: str | Path, train_frac: float = 0.8,
                valid_frac: float = 0.1) -> Corpus:
    """Split a UTF-8 text's character ids, in order, into train, valid and
    test. Ids index `chars`, the distinct characters by code point; one numpy
    gather maps the text's UTF-32 code points through a code point -> id table."""
    text = Path(path).read_text(encoding="utf-8")
    points = np.frombuffer(text.encode("utf-32-le"), "<u4")
    present = np.bincount(points) > 0
    chars = [chr(c) for c in np.flatnonzero(present)]
    if len(chars) < 2:
        raise ContractViolation("corpus must contain at least two distinct characters")
    if len(chars) > MAX_VOCAB:
        raise ContractViolation(
            f"corpus vocabulary {len(chars)} exceeds the {MAX_VOCAB}-symbol limit")
    if not 0 < train_frac < 1 or not 0 < valid_frac < 1 or train_frac + valid_frac >= 1:
        raise ContractViolation("split fractions must be positive and sum below 1")
    ids = (np.cumsum(present, dtype=np.int64) - 1)[points]
    n = len(ids)
    n_train = int(n * train_frac)
    n_valid = int(n * valid_frac)
    return Corpus(chars=chars, train=ids[:n_train],
                  valid=ids[n_train:n_train + n_valid],
                  test=ids[n_train + n_valid:])


def batch_windows(tokens: np.ndarray, batch: int, seq_len: int):
    """Yield (inputs, targets) of shape (batch, seq_len) from one stream.

    The stream is cut into `batch` contiguous lanes so hidden state carried
    across successive windows stays meaningful.
    """
    tokens = np.asarray(tokens)
    if batch < 1 or seq_len < 1:
        raise ContractViolation("batch and seq_len must be positive")
    lane = (len(tokens) - 1) // batch
    if lane < 1:
        return
    xs = tokens[:lane * batch].reshape(batch, lane)
    ys = tokens[1:lane * batch + 1].reshape(batch, lane)
    for start in range(0, lane - seq_len + 1, seq_len):
        yield xs[:, start:start + seq_len], ys[:, start:start + seq_len]
