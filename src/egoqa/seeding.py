"""Deterministic seed derivation and the array kernel for choice orders.

Python's builtin hash() is salted per process, so all seed material is
derived from a keyed-length blake2b digest over the string forms of the
parts. Identical parts give identical seeds on every platform and run.

A choice order (the order in which a sample's four answer choices are
shown) is defined by numpy as `np.random.default_rng(s).permutation(4)`;
only the tests call that. `choice_orders`, the package's one path, computes
it for a whole array of 64-bit seeds at once, bit-identically. Building one
Generator costs about 25 us, nearly all of it in SeedSequence; the kernel
replays the same arithmetic on uint32/uint64 arrays instead:

- SeedSequence: the entropy is the seed's two little-endian 32-bit words
  (numpy uses one word below 2**32, which hashes the same, since an absent
  word and a zero word both hash as 0), `mix_entropy` with pool size 4,
  then `generate_state(4, uint64)`. The hash constants do not depend on
  the data and are computed on first use.
- PCG64 seeding (O'Neill 2014): `state = 0; inc = (initseq << 1) | 1`,
  step, `state += initstate`, step. The 128-bit LCG runs on four 32-bit
  limbs held in uint64 arrays.
- Draws: XSL-RR output, split by `next_uint32` into its low half and then
  its buffered upper half.
- `Generator.shuffle` of `arange(4)`: for i = 3, 2, 1 swap item i with
  item j, j = `random_interval(i)`, a masked draw rejected while it
  exceeds i. Only i = 2 can reject, so a row needs three draws or more;
  rows that need more than the first outputs give are stepped on alone.

NumPy guarantees the SeedSequence and PCG64 streams but not the draw
method of `Generator.shuffle` (NEP 19); the property tests compare the
kernel with numpy and are what detects a divergence.
"""
from __future__ import annotations

import functools
import hashlib
from types import SimpleNamespace
from typing import Sequence

from .core import QASample, lazy_import

np = lazy_import("numpy")


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


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(xor, multiply) constants of SeedSequence's successive hash calls.

    Call k xors its value with h_k and multiplies it by h_(k+1), where
    h_0 = init and h_(k+1) = h_k * mult mod 2**32. Shape (2, calls, 1).
    """
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array([h[:-1], h[1:]], dtype=np.uint32)[:, :, None]



def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    out = (values ^ consts[0]) * consts[1]
    return out ^ (out >> np.uint32(16))


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(seed), as (8, n) uint32 words."""
    const = _constants()
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & const.LOW32
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, const.MIX_HASH[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], const.MIX_HASH[:, 4 + 3 * src:7 + 3 * src])
        mixed = const.MIX_L * pool[dst] - const.MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    return _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], const.STATE_HASH)


def _lcg_step(s: list[np.ndarray], inc: list[np.ndarray]) -> list[np.ndarray]:
    """state * multiplier + inc mod 2**128, on four 32-bit limbs."""
    const = _constants()
    low32, (m0, m1, m2, m3) = const.LOW32, const.M
    s0, s1, s2, s3 = s
    p00 = s0 * m0
    p01, p10 = s0 * m1, s1 * m0
    p02, p11, p20 = s0 * m2, s1 * m1, s2 * m0
    c = (p00 & low32) + inc[0]
    r0 = c & low32
    c = (c >> 32) + (p00 >> 32) + (p01 & low32) + (p10 & low32) + inc[1]
    r1 = c & low32
    c = ((c >> 32) + (p01 >> 32) + (p10 >> 32)
         + (p02 & low32) + (p11 & low32) + (p20 & low32) + inc[2])
    r2 = c & low32
    # The top limb keeps only its low 32 bits, so its sum may wrap.
    c = ((c >> 32) + (p02 >> 32) + (p11 >> 32) + (p20 >> 32)
         + s0 * m3 + s1 * m2 + s2 * m1 + s3 * m0 + inc[3])
    return [r0, r1, r2, c & low32]


def _pcg64_seed(seeds: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """PCG64's (state, inc) limbs after seeding from SeedSequence(seed)."""
    low32 = _constants().LOW32
    w = _seed_sequence_words(seeds).astype(np.uint64)
    # generate_state's uint64 k is w[2k] | w[2k+1] << 32; PCG64 takes
    # initstate = u64[0] << 64 | u64[1] and initseq = u64[2] << 64 | u64[3].
    initstate = [w[2], w[3], w[0], w[1]]
    initseq = [w[6], w[7], w[4], w[5]]
    inc = [((initseq[0] << 1) & low32) | np.uint64(1)]
    inc += [((initseq[k] << 1) & low32) | (initseq[k - 1] >> 31) for k in (1, 2, 3)]
    # The first step from state 0 gives inc; add initstate with carries.
    state, carry = [], 0
    for k in range(4):
        total = inc[k] + initstate[k] + carry
        state.append(total & low32)
        carry = total >> 32
    return _lcg_step(state, inc), inc


def _xsl_rr(s: list[np.ndarray]) -> np.ndarray:
    """PCG64's 64-bit output of a 128-bit state: rotr(high ^ low, state >> 122)."""
    x = ((s[3] ^ s[1]) << 32) | (s[2] ^ s[0])
    rot = s[3] >> 26
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _shuffle_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition tables of the shuffle's draw consumer, and the orders.

    A row's phase is the number of swaps fixed so far (3 = done); a row's
    code is j3 * 6 + j2 * 2 + j1 over the swaps fixed so far. Index
    phase * 4 + (draw & 3) gives the next phase and the code increment.
    """
    nxt = np.full(16, 3, dtype=np.uint64)
    add = np.zeros(16, dtype=np.uint64)
    for v in range(4):
        nxt[v], add[v] = 1, 6 * v              # i = 3: mask 3, never rejects
        if v != 3:
            nxt[4 + v], add[4 + v] = 2, 2 * v  # i = 2: mask 3, rejects 3
        else:
            nxt[4 + v] = 1
        add[8 + v] = v & 1                     # i = 1: mask 1, never rejects
    orders = []
    for j3 in range(4):
        for j2 in range(3):
            for j1 in range(2):
                order = [0, 1, 2, 3]
                for i, j in ((3, j3), (2, j2), (1, j1)):
                    order[i], order[j] = order[j], order[i]
                orders.append(order)
    return nxt, add, np.array(orders, dtype=np.int64)


@functools.cache
def _constants() -> SimpleNamespace:
    """The kernel's numpy scalars and tables, built on first use.

    They are numpy values, not Python ints: numpy 1.x casts a Python int
    operand by its value, which could change the dtype of a result.
    """
    const = SimpleNamespace(LOW32=np.uint64(0xFFFFFFFF))
    # mix_entropy makes 4 calls to fill the pool, then 3 per pool word while
    # mixing; generate_state makes one per 32-bit output word.
    const.MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
    const.STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
    const.MIX_L, const.MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
    # PCG64's 128-bit multiplier as 32-bit limbs, least significant first.
    mult = 2549297995355413924 << 64 | 4865540595714422341
    const.M = tuple(np.uint64(mult >> (32 * k) & 0xFFFFFFFF) for k in range(4))
    const.NEXT_PHASE, const.CODE_ADD, const.ORDERS = _shuffle_tables()
    return const


def choice_orders(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """`np.random.default_rng(s).permutation(4)` for every seed, shape (n, 4).

    Seeds are integers in [0, 2**64). On a 2-vCPU x86 machine a call costs
    about 0.4 ms plus about 0.4 us per seed, against about 25 us per seed
    from numpy, so it pays off from a few dozen seeds on.
    """
    const = _constants()
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    orders = np.empty((seeds.size, 4), dtype=np.int64)
    rows = np.arange(seeds.size)
    phase = np.zeros(seeds.size, dtype=np.uint64)
    code = np.zeros(seeds.size, dtype=np.uint64)
    state, inc = _pcg64_seed(seeds)
    while rows.size:
        state = _lcg_step(state, inc)
        out = _xsl_rr(state)
        for draw in (out & const.LOW32, out >> 32):
            key = (phase << 2) | (draw & 3)
            code += const.CODE_ADD[key]
            phase = const.NEXT_PHASE[key]
        done = phase == 3
        if done.any():
            orders[rows[done]] = const.ORDERS[code[done]]
            going = ~done
            rows, phase, code = rows[going], phase[going], code[going]
            state = [limb[going] for limb in state]
            inc = [limb[going] for limb in inc]
    return orders
