"""Deterministic, splittable random streams.

Every replicate draws from its own counter-based stream whose 128-bit key
is a hash of (master_seed, replicate_index, stream_role).  Streams are
therefore independent of how work is divided among workers, and normal
variates are produced by the inverse CDF applied to uniforms with fixed
53-bit resolution, so regenerating with the same key is bit-identical on
any machine running the same numpy/scipy builds.

A replicate's path stream (ROLE_PATH) supplies as many normals as its
sampler asks for (`simulate`): N for a dense Cholesky factor, where
normal j drives grid step j, and 2N for the fBm circulant sampler, laid
out as [re_0, re_N, Re_1 .. Re_{N-1}, Im_1 .. Im_{N-1}] over the FFT
modes 0 .. N.  A ROLE_BM stream supplies the N Brownian increments.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
from scipy.special import ndtri

from .errors import DomainError

# Stream roles; distinct roles give disjoint streams for coupled draws.
ROLE_PATH = 0
ROLE_BM = 1

_TWO53 = float(1 << 53)


def derive_key(master_seed, replicate, role):
    """128-bit stream key from (master_seed, replicate, role) via blake2b."""
    for name, value in (("master_seed", master_seed), ("replicate", replicate), ("role", role)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise DomainError(f"{name} must be a nonnegative integer")
    if master_seed >= 1 << 64 or replicate >= 1 << 64 or role >= 1 << 64:
        raise DomainError("seed components must fit in 64 bits")
    packed = struct.pack("<QQQ", master_seed, replicate, role)
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def stream(key):
    """Counter-based generator for a derived key."""
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(key, count):
    """count uniforms strictly inside (0, 1) at 53-bit resolution."""
    ints = stream(key).integers(0, 1 << 53, size=count, dtype=np.uint64)
    return (ints.astype(np.float64) + 0.5) / _TWO53


def normals(key, count):
    """count standard normals via inverse CDF of the uniform stream."""
    return ndtri(uniforms(key, count))
