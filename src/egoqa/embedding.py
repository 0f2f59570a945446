"""Sentence embedding port with an offline deterministic implementation.

Similarity scoring needs "text -> vector", given either as sparse integer
counts or as a dense float vector. The offline embedder counts character
trigrams in 256 hashed buckets; it is not a learned model, but identical
text always maps to identical counts, and texts sharing no bucket are
exactly orthogonal, which is what the metric tests need. Reports produced
with it are labeled "offline-sim".
"""
from __future__ import annotations

import functools
import hashlib
from collections import Counter
from typing import Protocol

from .core import ServiceError, lazy_import
from .endpoint import EndpointConfig, HttpClient

np = lazy_import("numpy")

TRIGRAM_DIM = 256


class EmbedderUnavailable(ServiceError):
    """Embedding backend failed after retries."""


class Embedder(Protocol):
    name: str

    def embed(self, text: str) -> Counter[int] | np.ndarray:
        """Map text to bucket counts (a Counter) or to a unit-norm float
        vector; identical text, identical result."""


@functools.lru_cache(maxsize=1 << 14)
def _bucket(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % TRIGRAM_DIM


class TrigramEmbedder:
    """Hashed character-trigram counts: bucket -> occurrences, never 0.

    blake2b bucketing, not Python's salted hash(), so counts are stable
    across processes. Text shorter than 3 characters hashes whole.
    """

    name = "offline-sim"

    def embed(self, text: str) -> Counter[int]:
        lowered = text.lower()
        if len(lowered) < 3:
            grams = [lowered]
        else:
            grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)]
        return Counter(map(_bucket, grams))


def _unit_vector(reply) -> np.ndarray:
    vec = np.asarray(reply["data"][0]["embedding"], dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if vec.ndim != 1 or not 0 < norm < np.inf:
        raise ValueError("embedding response is not a usable vector")
    return vec / norm


class HttpEmbedder(HttpClient):
    """Client for a remote embedding endpoint at {base_url}/embeddings."""

    unavailable = EmbedderUnavailable
    service = "embedding"

    def __init__(self, config: EndpointConfig, api_key: str | None = None):
        super().__init__(config, api_key)
        self.name = config.model
        self._size: int | None = None  # every vector has the first reply's length

    def _vector(self, reply) -> np.ndarray:
        vec = _unit_vector(reply)
        if self._size is None:
            self._size = vec.size
        elif vec.size != self._size:
            raise ValueError(f"embedding has {vec.size} dimensions, the first had {self._size}")
        return vec

    def embed(self, text: str) -> np.ndarray:
        body = {"model": self.config.model, "input": text}
        return self._post_json("embeddings", body, self._vector)
