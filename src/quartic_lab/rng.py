"""Deterministic, splittable random streams.

Every replicate draws from its own counter-based stream whose 128-bit key
is a hash of (master_seed, replicate_index, stream_role).  Streams are
therefore independent of the tile a replicate is drawn in.  Normal
variates are the inverse normal CDF of uniforms with fixed 53-bit
resolution, computed by `_ndtri`: Moshier's Cephes `ndtri` (Moshier 1989,
*Methods and Programs for Mathematical Functions*), the algorithm behind
`scipy.special.ndtri`, run as numpy code with its coefficients and its
order of operations.  It needs only arithmetic, `sqrt` and `log`, and all
but `log` are correctly rounded in numpy and C alike.  So where numpy's
float64 `log` is libm's (numpy's baseline loops, e.g. with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), every normal
equals `scipy.special.ndtri`'s bit for bit.  numpy's AVX-512 `log`
rounds differently on about 3.5 in 1000 inputs, which moves about 6 in
100,000 normals, all in the tails (u <= exp(-2) or u > 1 - exp(-2), 27%
of draws), by at most 6 ULP (2,023 of 32,768,000 normals).  Regenerating
with the same key is therefore bit-identical on any machine running the
same numpy build with the same CPU dispatch.

Streams have roles.  A replicate's path stream (ROLE_PATH) supplies as
many normals as its sampler's `normals_per_path`; how many that is per
kernel, and how a sampler lays them out, is `simulate`'s to decide, and
its module doc says.  A ROLE_BM stream feeds the Brownian backend, the
N increments of the motion coupled to a replicate's path.

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
import threading

import numpy as np

from .errors import DomainError

# Stream roles; distinct roles give disjoint streams for coupled draws.
ROLE_PATH = 0
ROLE_BM = 1

# Cephes ndtri.c.  Each rational is evaluated as (x * P(x)) / Q(x), not
# x * (P(x) / Q(x)), by Horner's rule from the leading coefficient
# (`_rational`); each Q is monic, its leading 1 left out as in Cephes.
_E2 = 0.13533528323661269189  # exp(-2): the centre is exp(-2) < u <= 1 - exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# Tails with sqrt(-2 log y) in [2, 8): y between exp(-32) and exp(-2).
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# Tails with sqrt(-2 log y) >= 8: y < exp(-32), only k <= 113 and k >= 2**53 - 115.
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

# One Philox per thread, rekeyed with a zero counter for every stream (`stream`).
_PHILOX = threading.local()
_ZERO = np.zeros(4, dtype=np.uint64)
_STATE = dict(bit_generator="Philox", buffer=_ZERO, buffer_pos=4, has_uint32=0, uinteger=0)


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


def stream(key, count):
    """The first count raw 64-bit outputs of key's stream: Philox(key=key).random_raw(count).

    Each thread keeps one Philox and sets its key and a zero counter here,
    because Philox(key=key) also seeds a SeedSequence from OS entropy that
    it never uses, at four times the cost.  Only the outputs leave, so no
    two callers share a generator.
    """
    bits = getattr(_PHILOX, "bits", None)
    if bits is None:
        bits = _PHILOX.bits = np.random.Philox(0)
    words = np.frombuffer(int(key).to_bytes(16, "little"), dtype="<u8")
    bits.state = _STATE | {"state": {"counter": _ZERO, "key": words}}
    return bits.random_raw(count)


def _rational(x, num, den, scratch):
    """(x * num(x)) / den(x), in Cephes' order, in scratch[0]; scratch is (2, x.size).

    Horner's rule from the leading coefficient, as Cephes' polevl runs
    num and p1evl the monic den, whose leading 1 is not in den.
    """
    p, q = scratch
    np.multiply(x, num[0], out=p)
    p += num[1]
    np.add(x, den[0], out=q)
    for out, coeffs in ((p, num[2:]), (q, den[1:])):
        for c in coeffs:
            out *= x
            out += c
    p *= x
    p /= q
    return p


def _ndtri(u):
    """Cephes' ndtri of the float64 uniforms u, all in (0, 1), in place; returns u.

    The centre's rational runs over every entry, in scratch; the tails,
    about 27% of the entries, are gathered, solved and put back.
    """
    tails = np.flatnonzero((u <= _E2) | (u > 1.0 - _E2))
    y = u[tails]
    scratch = np.empty((3, u.size))
    # Centre: c = u - 1/2 and x = (c + c * (c^2 P0(c^2) / Q0(c^2))) sqrt(2 pi).
    u -= 0.5
    c2 = np.multiply(u, u, out=scratch[2])
    x = _rational(c2, _P0, _Q0, scratch[:2])
    x *= u
    x += u
    np.multiply(x, _S2PI, out=u)
    # Tails: y = u below 1/2, 1 - u above it (exact, by Sterbenz's lemma);
    # x = sqrt(-2 log y), and the normal is x - log(x) / x - (z P(z)) / Q(z)
    # with z = 1 / x, with the sign of u - 1/2.
    x = np.minimum(y, 1.0 - y)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    z = np.divide(1.0, x, out=scratch[2, : x.size])
    x1 = _rational(z, _P1, _Q1, scratch[:2, : x.size])
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        x1[far] = _rational(z[far], _P2, _Q2, np.empty((2, far.size)))
    x -= np.log(x) / x
    x -= x1
    u[tails] = np.copysign(x, y - 0.5, out=x)
    return u


def normals(key, count, out=None):
    """count standard normals: Cephes' ndtri of (k + 0.5) / 2**53 for 53-bit integers k.

    k is the top 53 bits of one raw Philox output (`stream`).  The shift
    by 0.5 is fused with the cast to float64.  It is exact for k < 2**52;
    from 2**52 on, float64 steps by 1, so k + 0.5 is a tie that rounds to
    the even one of k and k + 1.  For k = 2**53 - 1 that is 2**53, a
    uniform of 1 and an infinite normal, so the shifted value is capped at
    2**53 - 1, which no other k reaches: its uniform is 1 - 2**-53 and
    every other draw is untouched.  So the uniforms lie strictly inside
    (0, 1).  `_ndtri` maps them to normals that equal
    scipy.special.ndtri's bit for bit where numpy's float64 log is libm's,
    and within 6 ULP, in the tails only, on numpy's AVX-512 log (module
    doc).  With out, a float64 array of count entries (a row of a caller's
    block, say), the shift, the cap, the exact power-of-two scaling and
    the centre of the transform all work inside it, and out is returned;
    otherwise a new array is.
    """
    if out is None:
        out = np.empty(count, dtype=np.float64)
    raw = stream(key, count)
    raw >>= np.uint64(11)
    np.add(raw, 0.5, out=out)
    np.minimum(out, 2.0**53 - 1, out=out)
    out *= 2.0**-53
    return _ndtri(out)
