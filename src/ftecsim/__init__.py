"""Adaptive syndrome-measurement decoders for Shor-style error correction.

Library layout:

- ``stabilizer``: Pauli algebra over packed bit vectors, stabilizer codes.
- ``colorcode``: hexagonal (6.6.6) triangular color codes.
- ``extraction``: Shor syndrome-extraction circuits under circuit-level
  depolarizing noise, run as a Pauli-frame sampler.
- ``diffvec``: difference vectors, zero-substring decomposition, and the
  usable-substring search.
- ``decoders``: the Shor, adaptive strong, and adaptive weak stopping
  policies and their transition tables.
- ``recovery``: minimum-weight lookup decoding and logical verdicts.
- ``worstcase``: brute-force oracles and exhaustive round-bound verifiers.
- ``harness``: Monte Carlo experiments (single-stage and CSS two-stage),
  the reference shot runner, fault injection, statistics, threshold
  analysis.
- ``cli``: the ``ftecsim`` command line.
"""

from .stabilizer import (
    PauliOperator,
    StabilizerCode,
    commutes,
    logical_class,
    multiply,
    syndrome_of,
    syndrome_to_string,
)
from .colorcode import HexLayout, build_hex_color_code, build_hex_layout, verify_distance

__version__ = "0.1.0"

__all__ = [
    "PauliOperator",
    "StabilizerCode",
    "commutes",
    "multiply",
    "syndrome_of",
    "syndrome_to_string",
    "logical_class",
    "HexLayout",
    "build_hex_layout",
    "build_hex_color_code",
    "verify_distance",
    "__version__",
]
