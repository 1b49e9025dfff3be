"""Minimum-weight recovery for self-dual CSS codes and the final logical verdict.

X and Z errors are decoded independently, as the CSS structure allows:
X-type corrections are keyed by the Z-sector syndrome bits and Z-type
corrections by the X-sector bits. On a self-dual code (the 6.6.6 color
codes, H_X = H_Z) both sectors see the same columns, so one table serves
both. It enumerates pure-type errors in increasing weight with
first-writer-wins, so every stored entry is a minimum-weight
representative for its syndrome. The table is sorted by key and indexed
by the key's top bits; up to 18 syndrome bits (d <= 7) the key is the
syndrome itself, and past that (d = 9 has 30) it is an invertible
GF(2)-linear mix of it (:func:`_mix`), which spreads the top bits.
Syndromes beyond the enumerated weight fall back to an any-solution
GF(2) solve, one product with a matrix read off the pivots of the one
row reduction in ``stabilizer._gf2_pivots``; those syndromes only arise
past the fault budget, where no fault-tolerance guarantee applies.

:func:`build_table` works in place on one key and one mask array of the
enumeration's length, so its peak memory stays within about twice the
table it returns; the engine builds one table per (distance, weight) per
process and shares it among its contexts.

This module owns the syndrome layout: :func:`decode_sector_masks` splits
packed full syndromes itself (X sector in bits 0..m-1, Z sector in bits
m..2m-1) for the engine and :func:`decode` alike, and :func:`build_table`
refuses a code laid out otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stabilizer import (PauliOperator, StabilizerCode, _gf2_pivots, logical_class, multiply,
                         syndrome_of)

DEFAULT_BUDGET = 2_000_000
# the lookup index has one bucket per value of a key's top 18 bits: every
# syndrome its own bucket up to d = 7, and ``starts`` at 2 MB
_BUCKET_BITS = 18


def _sector_rows(code: StabilizerCode, sector: tuple[int, ...]) -> list[int]:
    """Row i of the sector's check matrix: the qubit support of its generator i."""
    return [code.generators[gi].x_bits | code.generators[gi].z_bits for gi in sector]


@dataclass
class SyndromeTable:
    """One minimum-weight lookup for both sectors, plus the GF(2) fallback.

    ``m`` is the number of generators per sector, so a packed full
    syndrome holds its X sector at bits 0..m-1 and its Z sector at bits
    m..2m-1. ``keys`` are the ``_mix`` keys of the distinct m-bit sector
    syndromes of the enumerated supports, sorted: the syndromes themselves
    for m <= 18 (d <= 7), their mix beyond. ``masks[i]`` is the qubit mask
    of the first support (in weight, then ``itertools.combinations``,
    order) whose key is ``keys[i]``. Both are uint64 arrays, so a code has
    at most 64 qubits. The keys whose top bits (``key >> shift``) read h
    fill positions ``starts[h]`` to ``starts[h + 1] - 1``; ``steps``
    bisection steps find a key in the largest such bucket. ``solve[i]`` is
    the fallback's correction for the sector syndrome bit i alone: the
    pivot columns of ``stabilizer._gf2_pivots`` whose selectors hold row i.
    """

    keys: np.ndarray
    masks: np.ndarray
    m: int
    starts: np.ndarray
    shift: int
    steps: int
    solve: np.ndarray
    fallback_decodes: int = 0

    # the per-sector names (X masks by Z-sector syndrome and the reverse),
    # which the benchmark's set-up count reads: both are the one mask array
    x_corrections = property(lambda self: self.masks)
    z_corrections = x_corrections


def _mix(words: np.ndarray, m: int) -> np.ndarray:
    """The table keys of m-bit syndromes: the words themselves for m <= 18,
    else ``x ^= x << 13; x ^= x << 7`` on m bits. Either map is invertible
    and GF(2)-linear, so the key of an XOR is the XOR of the keys."""
    if m <= _BUCKET_BITS:
        return words
    low = np.uint64((1 << m) - 1)
    words = words ^ (words << _SHIFT_A) & low
    return words ^ (words << _SHIFT_B) & low


def enumeration_count(n: int, max_weight: int) -> int:
    return sum(math.comb(n, w) for w in range(max_weight + 1))


def build_table(
    code: StabilizerCode, max_weight: int, budget: int = DEFAULT_BUDGET
) -> SyndromeTable:
    """Enumerate pure-type errors by increasing weight, first writer wins.

    Each weight's supports are the previous weight's, each followed by
    every qubit after its last (``itertools.combinations`` order), with the
    parent's key and mask plus one column's key and one bit, written
    straight into that weight's slice of the key and mask arrays. The key
    array is then packed in place into the words ``key << index_bits |
    index`` and sorted in place, which puts each key's first writer first
    and the keys in bucket order, so the sector rows plus the index bits
    must fit in 64 bits (``ValueError`` otherwise). One boolean compress
    keeps each run's first word (where the key bits change), the kept words
    split into index and key (shifted in place), and one gather takes the
    masks. Every temporary is freed before the next full-length one is
    taken: at d = 9, weight 4, the traced peak is about 1.7 times the
    arrays of the table it returns.
    """
    if not code.css:
        raise ValueError("lookup decoding is implemented for CSS codes only")
    if code.n > 64:
        raise ValueError(f"lookup masks are uint64, so n <= 64; the code has n = {code.n}")
    rows = _sector_rows(code, code.z_sector)  # detect X errors
    if rows != _sector_rows(code, code.x_sector):  # detect Z errors
        raise ValueError("lookup decoding needs a self-dual CSS code "
                         "(equal X-sector and Z-sector check matrices)")
    m = len(rows)
    if code.x_sector != tuple(range(m)) or code.z_sector != tuple(range(m, 2 * m)):
        raise ValueError("lookup decoding needs the syndrome layout x_sector = 0..m-1, "
                         "z_sector = m..2m-1")
    required = enumeration_count(code.n, max_weight)
    if required > budget:
        raise ValueError(
            f"table enumeration needs {required} supports, "
            f"budget is {budget}; lower max_weight or raise the budget"
        )
    index_bits = (required - 1).bit_length()
    if m + index_bits > 64:
        raise ValueError(f"{m} sector rows and {index_bits} index bits "
                         "exceed a 64-bit sort word; lower max_weight")
    # column q: the key of the syndrome of an error on qubit q (bit i set where
    # row i holds q); the mix is linear, so the supports' XORs are keys too
    bits = (np.array(rows, np.uint64)[:, None] >> np.arange(code.n, dtype=np.uint64)) & 1
    col_words = _mix(np.bitwise_or.reduce(bits << np.arange(m, dtype=np.uint64)[:, None]), m)
    qubit_words = np.uint64(1) << np.arange(code.n, dtype=np.uint64)
    keys = np.zeros(required, np.uint64)  # weight 0: the zero syndrome, no correction
    masks = np.zeros(required, np.uint64)
    last = np.array([-1], np.int32)  # the top qubit of each support of the previous weight
    start, stop = 0, 1
    for _ in range(max_weight):
        reps = code.n - 1 - last
        # the j-th child of a parent appends qubit last + 1 + j
        last = np.repeat(last + 1 - (np.cumsum(reps, dtype=np.int32) - reps), reps)
        last += np.arange(len(last), dtype=np.int32)
        end = stop + len(last)
        # each weight is written straight into its slice; mode="wrap" spares
        # the copy of ``out`` that the default mode makes
        np.take(col_words, last, out=keys[stop:end], mode="wrap")
        keys[stop:end] ^= np.repeat(keys[start:stop], reps)
        np.take(qubit_words, last, out=masks[stop:end], mode="wrap")
        masks[stop:end] |= np.repeat(masks[start:stop], reps)
        start, stop = stop, end
    del last  # before the packing's temporary
    # sort the words key << index_bits | index in place: each key's run
    # starts with its first writer, kept by one boolean compress
    keys <<= np.uint64(index_bits)
    keys |= np.arange(required, dtype=np.uint64)
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] ^ keys[:-1] >= np.uint64(1 << index_bits)))]
    index = keys & np.uint64((1 << index_bits) - 1)
    keys >>= np.uint64(index_bits)
    masks = masks.take(index.view(np.int64))
    del index  # before the bucket count's temporaries
    shift = m - min(m, _BUCKET_BITS)
    sizes = np.bincount((keys >> np.uint64(shift)).view(np.int64), minlength=1 << (m - shift))
    pivots = _gf2_pivots(rows)
    solve = np.array([sum(1 << col for col, sel in pivots if sel >> i & 1) for i in range(m)],
                     np.uint64)
    return SyndromeTable(keys, masks, m, np.concatenate(([0], np.cumsum(sizes))), shift,
                         int(sizes.max() - 1).bit_length(), solve)


def decode_sector_masks(table: SyndromeTable,
                        syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_masks, z_masks) corrections for a uint64 array of packed full
    syndromes, X sector in bits 0..m-1 and Z sector in bits m..2m-1; X
    corrections are keyed by the Z sector. Both sectors are looked up in one
    pass: each key's bucket, then ``table.steps`` bisection steps inside it.
    Sector syndromes the table does not cover fall back to a GF(2) solve and
    count in ``table.fallback_decodes``: the XOR of ``table.solve[i]`` over
    the set bits i."""
    m = np.uint64(table.m)
    syndromes = np.concatenate((syndromes >> m, syndromes & (_ONE << m) - _ONE))
    keys = _mix(syndromes, table.m)
    bucket = keys >> np.uint64(table.shift) if table.shift else keys
    # a key in bucket h lies at lo <= i < hi; an empty bucket at the end has
    # lo == len(keys), hence the clipped reads, whose keys then differ. Every
    # bucket is below 2**_BUCKET_BITS, so its int64 view is exact, and
    # ``take`` on it spares the conversion a uint64 index costs on each read
    lo = table.starts.take(bucket.view(np.int64))
    if table.steps:
        hi = table.starts.take((bucket + _ONE).view(np.int64))
        for _ in range(table.steps):
            mid = (lo + hi) >> 1
            right = table.keys.take(mid, mode="clip") <= keys
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    masks = table.masks.take(lo, mode="clip")
    missing = table.keys.take(lo, mode="clip") != keys
    count = int(np.count_nonzero(missing))
    if count:
        table.fallback_decodes += count
        bits = syndromes[missing] >> np.arange(table.m, dtype=np.uint64)[:, None] & _ONE
        masks[missing] = np.bitwise_xor.reduce(bits * table.solve[:, None], axis=0)
    half = len(masks) >> 1
    return masks[:half], masks[half:]


# built once: the shifts of the key mix, and one as a uint64
_SHIFT_A, _SHIFT_B = np.uint64(13), np.uint64(7)
_ONE = np.uint64(1)


def decode(table: SyndromeTable, code: StabilizerCode, syndrome: int) -> PauliOperator:
    """A Pauli whose syndrome equals the input, minimum weight when covered."""
    x_mask, z_mask = decode_sector_masks(table, np.array([syndrome], np.uint64))
    result = PauliOperator(code.n, int(x_mask[0]), int(z_mask[0]))
    check = syndrome_of(code, result)
    if check != syndrome:
        raise RuntimeError(
            f"decoder produced syndrome {check:#x} for requested {syndrome:#x}"
        )
    return result


def final_verdict(
    code: StabilizerCode, table: SyndromeTable, frame_after_recovery: PauliOperator
) -> str:
    """Ideal error correction followed by the logical classification."""
    ideal = decode(table, code, syndrome_of(code, frame_after_recovery))
    residual = multiply(frame_after_recovery, ideal)
    if logical_class(code, residual) == "logical":
        return "logical_error"
    return "no_logical_error"
