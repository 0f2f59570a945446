"""Sentence embedding port with an offline deterministic implementation.

Similarity scoring needs "text -> vector", given as an index -> number
mapping: sparse integer counts, or the components of a unit vector. The
offline embedder counts character trigrams in 256 hashed buckets; it is
not a learned model, but identical text always maps to identical counts,
and texts sharing no bucket are exactly orthogonal, which is what the
metric tests need. Reports produced with it are labeled "offline-sim".
"""
from __future__ import annotations

import functools
import hashlib
import math
from collections import Counter
from typing import Mapping, Protocol

from .core import ServiceError
from .endpoint import EndpointConfig, HttpClient

TRIGRAM_DIM = 256


class EmbedderUnavailable(ServiceError):
    """Embedding backend failed after retries."""


class Embedder(Protocol):
    name: str

    def embed(self, text: str) -> Mapping[int, float]:
        """Map text to an index -> number mapping: bucket counts (a Counter)
        or a unit-norm vector's components; identical text, identical result."""


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

    def close(self) -> None:
        """Nothing to close; a command closes every embedder it builds."""


class HttpEmbedder(HttpClient):
    """Client for a remote embedding endpoint at {base_url}/embeddings."""

    unavailable = EmbedderUnavailable
    service = "embedding"

    def __init__(self, config: EndpointConfig, api_key: str | None = None):
        super().__init__(config, api_key)
        self.name = config.model
        self._size: int | None = None  # every vector has the first reply's length

    def _vector(self, reply) -> dict[int, float]:
        """The reply's vector over its norm. Every item must be an exact JSON
        number (no bool, no numeric string) within float range, the norm
        finite and nonzero, and the length that of the first reply."""
        vec = reply["data"][0]["embedding"]
        if type(vec) is not list or not all(type(x) in (int, float) for x in vec):
            raise ValueError("embedding response is not a list of numbers")
        try:
            vec = [float(x) for x in vec]
            norm = math.sqrt(math.fsum(x * x for x in vec))
        except OverflowError as exc:
            raise ValueError(f"embedding response overflows: {exc}") from None
        if not 0 < norm < math.inf:
            raise ValueError("embedding response is not a usable vector")
        if self._size is None:
            self._size = len(vec)
        elif len(vec) != self._size:
            raise ValueError(f"embedding has {len(vec)} dimensions, the first had {self._size}")
        return {i: x / norm for i, x in enumerate(vec)}

    def embed(self, text: str) -> dict[int, float]:
        body = {"model": self.config.model, "input": text}
        return self._post_json("embeddings", body, self._vector)
