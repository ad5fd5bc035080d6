"""Deterministic, splittable random streams.

Every replicate draws from its own counter-based stream whose 128-bit key
is a hash of (master_seed, replicate_index, stream_role).  Streams are
therefore independent of the tile a replicate is drawn in, and normal
variates are produced by the inverse CDF applied to uniforms with fixed
53-bit resolution, so regenerating with the same key is bit-identical on
any machine running the same numpy/scipy builds.

A replicate's path stream (ROLE_PATH) supplies as many normals as its
sampler asks for (`simulate`), per kernel:

* `bm`: N, where normal j is the j-th increment over sqrt(dt);
* `fbm_quarter`: 2N, laid out as [re_0, re_N, Re_1 .. Re_{N-1},
  Im_1 .. Im_{N-1}] over the FFT modes 0 .. N of the circulant sampler;
* `heat`: 2N + r, the 2N of the fbm_quarter layout, then the r normals
  of the rank-r residual correction (r about 17 to 50);
* `xi`: r, one per row of its rank-r Hankel factor (17 at n = 64, 22 at
  256, 26 at 1000);
* composites: laid out as [part 0 | part 1], each component's count in
  its own layout above (2N + r + r for c^2 heat + xi).

A ROLE_BM stream feeds the Brownian backend, the N increments of the
motion coupled to a replicate's path.

Prefix contract: normals(key, a) is bit for bit normals(key, b)[:a] for
every a <= b.  Each normal costs exactly one 64-bit Philox output, of
which it keeps the top 53 bits.  So a longer draw only appends.
`simulate.path_tiles` relies on this: it draws each replicate's stream
once, at the last (finest) grid of an MSE ladder, and every coarser grid
synthesizes a copy of that draw's prefix.  The top 53 bits,
raw >> 11, are what `integers(0, 2**53)` returns: its Lemire method
multiplies by 2**53, and as 2**53 divides 2**64 it never rejects.
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


def normals(key, count, out=None):
    """count standard normals: ndtri of (k + 0.5) / 2**53 for 53-bit integers k.

    k is the top 53 bits of one raw Philox output.  The shift by 0.5 is
    fused with the cast to float64.  It is exact for k < 2**52; from
    2**52 on, float64 steps by 1, so k + 0.5 is a tie that rounds to the
    even one of k and k + 1.  For k = 2**53 - 1 that is 2**53, a uniform
    of 1 and an infinite normal, so the shifted value is capped at
    2**53 - 1, which no other k reaches: its uniform is 1 - 2**-53 and
    every other draw is untouched.  So the uniforms lie strictly inside
    (0, 1).  With out, a float64 array of count entries (a row of a
    caller's block, say), the shift, the cap, the exact power-of-two
    scaling and ndtri all work inside it, and out is returned; otherwise
    a new array is.
    """
    if out is None:
        out = np.empty(count, dtype=np.float64)
    raw = stream(key).bit_generator.random_raw(count)
    raw >>= np.uint64(11)
    np.add(raw, 0.5, out=out)
    np.minimum(out, 2.0**53 - 1, out=out)
    out *= 2.0**-53
    return ndtri(out, out=out)
