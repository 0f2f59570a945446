"""Deterministic seed derivation and choice orders.

Python's builtin hash() is salted per process, so all seed material is
derived from a keyed-length blake2b digest over the string forms of the
parts. Identical parts give identical seeds on every platform and run.

A seeded decision among n options is the 64-bit seed modulo n. The choice
order of seed s (the order in which a sample's four answer choices are
shown) is ORDERS[s % 24], ORDERS being the 24 permutations of range(4) in
lexicographic order. A seed is a uniform 64-bit digest; 2**64 % 24 == 16,
so 16 of the orders are likelier than the other 8 by one part in 7.7e17
(2**64 // 24). Among n options the bias is one part in 2**64 // n at most.
"""
from __future__ import annotations

import hashlib
import itertools
from typing import Sequence

from .core import QASample

ORDERS: tuple[tuple[int, int, int, int], ...] = tuple(itertools.permutations(range(4)))


def _part(part: object) -> bytes:
    raw = str(part).encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def _seed(encoded_parts: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(encoded_parts, digest_size=8).digest(), "big")


def derive_seed(*parts: object) -> int:
    """Collapse arbitrary labels into a 64-bit RNG seed.

    Parts are length-prefixed before hashing so ("ab", "c") and ("a", "bc")
    derive different seeds.
    """
    return _seed(b"".join(map(_part, parts)))


_CHOICES = _part("choices")


def choice_heads(seeds: Sequence[object]) -> list[bytes]:
    """The encoded `("choices", seed)` head of each seed's choice seeds."""
    return [_CHOICES + _part(s) for s in seeds]


def choice_seeds(sample: QASample, heads: Sequence[bytes]) -> list[int]:
    """The RNG seed of a sample's choice order under each head's seed.

    With heads = choice_heads(seeds), each equals
    `derive_seed("choices", seed, clip_uid, question, answer)`; a caller
    encodes its seeds once and the sample's parts once, not once a pair.
    """
    tail = _part(sample.clip_uid) + _part(sample.question) + _part(sample.answer)
    return [_seed(head + tail) for head in heads]


def choice_orders(seeds: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """The choice order of every seed: ORDERS[s % 24]."""
    return [ORDERS[s % 24] for s in seeds]
