"""Model problem construction and the additive Gaussian noise model.

Two problem families are provided. The first discretizes a Fredholm integral
equation of the first kind whose kernel is the Green's function of the 1D
Dirichlet Laplacian, via a midpoint quadrature rule on n panels:

    A[j, i] = (1/n) * kappa((j-1)/n, (2i-1)/(2n)),   j, i = 1..n
    x*_j    = x((2j-1)/(2n)),  x(t) = -6 t^2 (1-t) (2 - 8t + 7t^2)

The second is a synthetic separable Gaussian blur with zero boundary
conditions acting on a fixed piecewise-smooth test image (two rectangles and
one Gaussian bump); it exists to exercise spectral-decay estimation on an
operator with a very different spectrum, not to model any particular camera.

Noise model: add_noise(instance, delta, seed) draws b = y + sigma * xi with
xi iid standard normal from the generator of seed and
sigma = noise_sigma(instance, delta) = delta * n^{-1/2} * ||y||, so delta is
the relative noise level and sigma the per-component standard deviation.
noise_sigma is the one check of delta (finite and >= 0), and standard_normal
the one check of a seed (an unsigned 64-bit integer). Seeds, stream keys,
sizes and delta are checked by kind in errors (_integer and _real), so a
Python or numpy integer passes and a bool, a float where an integer is due or
a string raises DomainError instead of being truncated or parsed; an
instance's label goes through errors._name, so it is a Python str. A
one-seed draw, and each row of a batch, holds at most 40000 variates: a
larger count raises SizeCap before anything is allocated.

Reproducibility. All Gaussian variates come from a Philox4x64-10 counter
generator keyed directly by the caller's 64-bit seed (counter starts at 0):
the stream of numpy's Philox(key=seed), whose key is [seed, 0] and whose
counter is incremented before each block of four 64-bit outputs.
Uniforms use the usual 53-bit convention u = (x >> 11) * 2^-53 on successive
64-bit outputs, and normals are produced by explicit Box-Muller with strictly
sequential pair consumption:

    r = sqrt(-2 log(1 - u[2k])),  z[2k] = r cos(2 pi u[2k+1]),
                                  z[2k+1] = r sin(2 pi u[2k+1])

The description fixes every uniform bit for bit. The normals follow from it to
within a few ulp under any libm; bit-exact replication needs numpy's float64
log1p, sqrt, cos and sin, which differ from Python's math module in the last
bit on some inputs (math.log1p(-u) on about 7 % of uniforms). Derived streams
(one per Monte Carlo repetition) are keyed by the low 8 bytes, little-endian,
of SHA-256("tikhreg:{master}:{n}:{round(delta*1e6)}:{rep}").

One seed, two fills. ``standard_normal`` takes one seed or a sequence of
seeds, and the form of the call picks how the uniforms are made; the bits
are the same either way. A one-seed call, the form add_noise makes and so
the only draw of solve, adaptive, sweep and table, computes Philox4x64-10
in numpy uint64 arithmetic: the Random123 multipliers and Weyl key
increments, each 64 x 64 -> 128-bit product from its 32-bit halves, in one
pass over every block of four uniforms the count needs. Its scratch, 12
uint64 per block in arrays plus numpy's ufunc buffers, stays under 15
uint64 per block (1.2 MB at the 40000 size cap). It never loads
numpy.random, whose import alone costs 6-10 ms and 1.8 MB of resident
memory, more than the whole draw at every count the size cap allows: a
process's first one-seed draw takes 0.7 ms at 2000 variates and 4.1 ms at
40000 (2-core Xeon, numpy 2.4), against 7.5 and 8.1 ms for importing
numpy.random and its C fill. Each later draw in the same process costs more
than a C fill would, though (3.5 ms against 1.6 ms at 40000): the
numpy-only fill takes about 33 ns per uniform in bulk against 5-6 ns, so
one seed would be cheaper through numpy.random above about 250000 variates,
six times the count cap.

Batched draws. A sequence of seeds (the Monte Carlo and study batches)
returns one row per seed, row i equal bit for bit to the one-seed draw, and
takes numpy.random's C fill: one Philox generator per thread, re-keyed per
row by setting its start state's key to [seed, 0], where Philox(key=seed)
starts, so a worker builds one generator for all its batches. It writes
each row's uniforms straight into the output block (under 128 KB of noise
in a Monte Carlo batch, bounded by the harness).
Either fill is followed by the same transform, which makes each of its nine
ufunc calls once over every pair of the block, in place: the even columns
become r, the odd columns theta, and cos(theta) is the one temporary, half
the block (160 KB for the largest block any caller draws, one
40000-variate row). Each variate takes the same float64 operations as a
row-by-row draw, so the bits do not depend on the batch.

Structure. Neither family stores an n x n A or forms one to compute
y = A x*. Row j of the Fredholm A (0-based, node t_j = j/n) holds
kappa(t_j, s_i)/n at the midpoints s_i = (2i+1)/(2n), and s_i <= t_j exactly
when i < j, so the kernel's two branches split each row at i = j:

    y_j = ((1 - t_j) sum_{i<j} s_i x*_i + t_j sum_{i>=j} (1 - s_i) x*_i) / n,

a prefix sum of s x* and a suffix sum of (1 - s) x*: two cumsum passes, O(n)
(the semiseparable form of Hansen's deriv2). For the blur family,
kron(T, T) vec(X) = vec(T X T^T) for a row-major side x side image X, so
y = vec(T X* T^T) costs two side x side products.

``ProblemInstance.a`` is an explicit A, or None when the structure defines A:
kron(T, T) with a Kronecker factor T (``kron_factor``, the blur family), the
kernel fill of ``build_fredholm(n)`` without one. An instance holds an
explicit A or a factor, never both. ``instance.dense_a()`` returns the
explicit A or assembles the structured one a block of rows at a time; in
the package only the dense decomposition calls it, and
``spectral.decompose`` takes a closed-form route exactly when a is None and
W is the identity.

``ProblemInstance.w`` is W the same way: None for the identity, or an
explicit (n, n) array, checked when the instance is made (shape, finite
entries, symmetry within 1e-12 relative, positive definite) and averaged
into an exactly symmetric array; its lower Cholesky factor is kept in
``w_chol`` for the dense decomposition (linalg.weight_factor).

Every array field is checked when the instance is made, by errors._array:
a, x_star, y, w and kron_factor must each be an integer or float ndarray
(a list, or an array of bool, complex, string or object dtype, raises
DomainError) with finite entries (DomainError) and its shape, (n, n), (n,)
or (s, s) with s^2 = n (DimensionMismatch), and each is kept as a plain
float64 array, the caller's own when it already is one. A factor whose
largest entry squared overflows float64 raises DomainError, since kron(T, T)
would not be finite. So an instance never holds a NaN or an infinity, and
save_problem never writes a file that load_problem refuses.

Serialization. ``save_problem`` writes a `.prob` container: an 8-byte
little-endian header length, a UTF-8 JSON header
{"format": "prob", "version": 1, "n": ..., "label": ..., "w_kind": ...},
then raw little-endian float64 arrays: A (n*n, row-major), x* (n), y (n), and,
only when w_kind == "explicit" (w is not None), W (n*n, row-major).
``save_problem`` raises SizeCap before it opens the file when the target
directory has fewer bytes free than the file takes. A structured A is
written one block of rows at a time and never assembled. Every n^2 pass
(save_problem, load_problem's comparison, dense_a) takes its rows from one
generator, in blocks of _BLOCK_ENTRIES // n rows (about 1 MB of float64)
for either structure, so its buffers do not grow with the side of a blur
instance. A Kronecker factor goes into the header as an optional
"kron_factor" key (a list of rows, repr-exact floats), each of whose entries
must be a real by kind, as errors._real decides.
``load_problem`` checks the header's n against the same size cap as a
build (SizeCap above 40000) before it checks the file size, so an oversized
header is refused whatever the file holds. Either function takes a str,
bytes or os.PathLike path and refuses any other kind (errors._path), so an
integer is never opened as a file descriptor.
``load_problem``, where an outside A arrives, streams it through one reused
buffer a block of rows at a time and compares each block with the
structure's rows as it is read: with a "kron_factor" key A must equal
kron(T, T) bit for bit, or DomainError is raised; without the key an A equal
to the kernel fill in every bit is never held whole, so the instance takes
the sine route; any other A is read whole from its first byte once a block
differs, and kept. A structured file therefore loads without an n x n array.
"""

import hashlib
import itertools
import json
import math
import os
import shutil
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import _U64, DomainError, SizeCap, _array, _integer, _name, _path, _real, _sq_norm
from .linalg import weight_factor

_PROB_MAGIC = "prob"
_PROB_VERSION = 1

# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC'11; the Random123
# constants): each round multiplies lanes 0 and 2 by _PHILOX_M, 64 x 64 ->
# 128 bits, and the key grows by _PHILOX_W between rounds
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)

# the batched draws' Philox generator, Generator and start state, per thread
_THREAD = threading.local()

# the largest n a build makes or a .prob header names (errors._integer's
# cap), checked before anything is allocated. A build is O(n) memory; only
# dense_a() (the dense decomposition) and the load of a .prob whose A fits no
# structure allocate n^2, 12.8 GB at the cap, and generate at the cap writes
# a 12.8 GB .prob if the disk has room for it
_SIZE_CAP = 40000

# entries per row block of a structured A, kernel fill or kron(T, T) (1 MB
# of float64), so that the block and its scratch stay small and in cache
_BLOCK_ENTRIES = 1 << 17


@dataclass
class ProblemInstance:
    """A forward operator with its exact solution and clean data.

    a is an explicit (n, n) A, or None when the instance's structure defines
    A: kron(T, T) with a Kronecker factor T, else the kernel fill of
    build_fredholm(n). Giving both a and a factor raises DomainError, as does
    an n that is not an integer >= 2 or a label that is not a string.
    a, x_star, y and kron_factor go through errors._array (module
    docstring): an array of another kind, a NaN or an infinity raises
    DomainError, another shape DimensionMismatch.
    dense_a() returns A as an (n, n) array either way. w is None (the
    identity) or an explicit W, checked and symmetrized here, with its lower
    Cholesky factor in w_chol (linalg.weight_factor).
    """

    n: int
    a: Optional[np.ndarray] = field(repr=False)
    x_star: np.ndarray     # (n,) exact solution
    y: np.ndarray          # (n,) clean data, y = A x*
    w: Optional[np.ndarray] = field(repr=False)   # (n, n) W, or None for the identity
    label: str
    kron_factor: Optional[np.ndarray] = None   # (side, side) T with A = kron(T, T)
    w_chol: Optional[np.ndarray] = field(default=None, init=False, repr=False)  # W = L L^T

    def __post_init__(self):
        a, t, n = self.a, self.kron_factor, _integer(self.n, "n", 2)
        self.n, self.label = n, _name(self.label, "label")
        if a is not None and t is not None:
            raise DomainError("an instance holds an explicit A or a Kronecker factor, not both")
        self.a = a if a is None else _array(a, "A", (n, n))
        self.x_star, self.y = _array(self.x_star, "x_star", (n,)), _array(self.y, "y", (n,))
        self.kron_factor = t if t is None else _check_factor(t, n)
        if self.w is not None:
            self.w, self.w_chol = weight_factor(self.w, n)

    def dense_a(self):
        """A as an (n, n) array: the explicit a, or the structured A assembled afresh."""
        if self.a is not None:
            return self.a
        a = np.empty((self.n, self.n), dtype=np.float64)
        for lo, hi, rows in _row_blocks(self.n, self.kron_factor):
            a[lo:hi] = rows
        return a


class NoisyData(NamedTuple):
    """One noisy right-hand side together with the noise strength that made it."""

    b: np.ndarray
    sigma: float


def _check_factor(t, n):
    # a Kronecker factor T as an (s, s) array with s^2 = n (errors._array); when n
    # is not a square no shape matches, and the message states the rule. Every
    # entry of kron(T, T) is a product of two of T's, so max|T|^2 bounds them
    s = math.isqrt(n)
    t = _array(t, "Kronecker factor", (s, s) if s * s == n else f"(s, s) with s^2 = {n}")
    top = float(np.max(np.abs(t)))
    if top * top == math.inf:
        raise DomainError(f"Kronecker factor entry {top!r} overflows kron(T, T)")
    return t


def _kernel(t, s, out, scratch):
    # min(t, s) (1 - max(t, s)) into out, through scratch: the caller's two
    # buffers, so that a fill reusing them across blocks allocates nothing
    np.minimum(t, s, out=out)
    np.maximum(t, s, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    return np.multiply(out, scratch, out=out)


def _midpoints(n):
    # quadrature (column) nodes (2i-1)/(2n), i = 1..n
    return (2.0 * np.arange(n, dtype=np.float64) + 1.0) / (2.0 * n)


def _row_blocks(n, t=None):
    # (lo, hi, rows lo..hi-1 of A), never the whole n x n A, in blocks of
    # about _BLOCK_ENTRIES entries whatever the structure. Every block is
    # written into one buffer reused across blocks, so a caller copies, writes
    # or compares it before asking for the next. With a Kronecker factor T of
    # side s, row j = i s + k of kron(T, T) holds T[k, b] T[i, a] at entry
    # a s + b, the one product np.kron forms, without its reshapes and copies.
    # Without one, row j is the Fredholm kernel fill at the node j/n
    step = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((step, n))
    if t is None:
        s_nodes, scratch = _midpoints(n), np.empty((step, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows, j = buf[:hi - lo], np.arange(lo, hi)
        if t is None:
            _kernel(j[:, None] / n, s_nodes, rows, scratch[:hi - lo])
            rows /= n
        else:
            i, k = np.divmod(j, t.shape[0])
            np.multiply(t[k][:, None, :], t[i][:, :, None], out=rows.reshape(hi - lo, *t.shape))
        yield lo, hi, rows


def build_fredholm(n):
    """Discretize the Fredholm test problem on n quadrature panels.

    Row nodes are (j-1)/n for j = 1..n, quadrature (column) nodes are the
    panel midpoints (2i-1)/(2n), and the quadrature weight 1/n multiplies
    every entry. The exact solution is the quintic
    x(t) = -6 t^2 (1-t) (2 - 8t + 7t^2) sampled at the midpoints. No n x n
    array is formed: y = A x* is two prefix sums (module docstring).
    """
    n = _integer(n, "n", 2, cap=_SIZE_CAP)
    tm = _midpoints(n)  # x* lives on the midpoint grid
    x_star = -6.0 * tm**2 * (1.0 - tm) * (2.0 - 8.0 * tm + 7.0 * tm**2)
    t = np.arange(n, dtype=np.float64) / n
    below = np.concatenate(([0.0], np.cumsum(tm * x_star)[:-1]))   # sum_{i<j} s_i x*_i
    above = np.cumsum(((1.0 - tm) * x_star)[::-1])[::-1]           # sum_{i>=j} (1 - s_i) x*_i
    y = ((1.0 - t) * below + t * above) / n
    return ProblemInstance(n=n, a=None, x_star=x_star, y=y, w=None, label="fredholm")


# Fixed test image for the blur family: two axis-aligned rectangles and one
# Gaussian bump on the unit square (amplitudes 1.0, 0.6, 0.8). Coordinates are
# pixel centers ((col+1/2)/side, (row+1/2)/side).
_RECT1 = (0.15, 0.45, 0.20, 0.50, 1.0)   # x_lo, x_hi, y_lo, y_hi, amplitude
_RECT2 = (0.55, 0.85, 0.15, 0.40, 0.6)
_BUMP = (0.30, 0.75, 0.08, 0.8)          # center_x, center_y, width, amplitude


def _blur_image(side):
    c = (np.arange(side, dtype=np.float64) + 0.5) / side
    xx, yy = np.meshgrid(c, c)            # yy varies down rows
    img = np.zeros((side, side), dtype=np.float64)
    for (xlo, xhi, ylo, yhi, amp) in (_RECT1, _RECT2):
        img += amp * ((xx >= xlo) & (xx <= xhi) & (yy >= ylo) & (yy <= yhi))
    cx, cy, width, amp = _BUMP
    img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * width**2))
    return img


def build_blur(side, psf_width):
    """Separable 2D Gaussian blur with zero boundary conditions, n = side^2.

    The 1D convolution matrix T has T[i, j] = g(i - j) with
    g(d) = exp(-d^2 / (2 psf_width^2)) normalized by the full in-range mass,
    so interior rows sum to ~1 and boundary rows lose the mass that falls
    outside the image. A = kron(T, T) acts on row-major flattened images; the
    instance keeps T, not A.
    psf_width is in pixels; one whose 2 psf_width^2 is not a finite positive
    float raises DomainError before anything is allocated.
    """
    # side <= isqrt(cap) exactly when side^2 <= cap
    side = _integer(side, "side", 4, cap=math.isqrt(_SIZE_CAP))
    try:
        two_w_sq = 2.0 * _real(psf_width, "psf_width", 0) ** 2
    except OverflowError:
        two_w_sq = math.inf
    if not 0.0 < two_w_sq < math.inf:
        raise DomainError(f"psf_width must be positive with 2 psf_width^2 a finite positive "
                          f"float, got {psf_width}")
    d = np.arange(side, dtype=np.float64)
    offsets = np.abs(d[:, None] - d[None, :])
    # a subnormal 2 psf_width^2 overflows d^2 / (2 psf_width^2) to inf for
    # d >= 1, and exp(-inf) = 0 is the limit, so T is the identity there
    with np.errstate(over="ignore"):
        t = np.exp(-(offsets**2) / two_w_sq)
    # row 0 of T is g(d), d = 0..side-1: the total kernel mass over |d| < side
    t /= t[0, 0] + 2.0 * t[0, 1:].sum()
    x_star = _blur_image(side).reshape(-1)
    # kron(T, T) vec(X) = vec(T X T^T) for the row-major image X
    y = (t @ x_star.reshape(side, side) @ t.T).reshape(-1)
    return ProblemInstance(
        n=side * side, a=None, x_star=x_star, y=y, w=None, label="blur",
        kron_factor=t,
    )


def _philox_uniforms(seed, out):
    # out[i] = (x_i >> 11) 2^-53 for the 64-bit outputs x_0, x_1, ... of
    # numpy's Philox(key=seed), computed with numpy alone: the key is
    # [seed, 0], and numpy increments the counter before each block, so block
    # j holds Philox4x64-10 of the counter [j + 1, 0, 0, 0]. The rounds run
    # on one (4, b) array of all b = out.size // 4 blocks (out holds whole
    # blocks). Every product and key sum is a uint64 array operation, which
    # wraps modulo 2^64 without a warning on every numpy this package supports
    mask, s11, s32 = np.uint64(0xFFFFFFFF), np.uint64(11), np.uint64(32)
    m_lo, m_hi = _PHILOX_M & mask, _PHILOX_M >> s32
    keys = np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_W   # round r: key + r W
    keys[:, 0] += np.uint64(seed)
    b = out.size // 4
    x = np.zeros((4, b), dtype=np.uint64)
    x[0] = np.arange(1, b + 1, dtype=np.uint64)
    lo, hi, t, p = (np.empty((2, b), dtype=np.uint64) for _ in range(4))
    for key in keys:
        a = x[0::2]                                  # lanes 0 and 2, times M0 and M1
        # hi = the high word of a M from 32-bit halves, none of whose
        # products or sums exceeds 2^64 - 1 (Warren, Hacker's Delight, 8-2)
        np.bitwise_and(a, mask, out=lo)
        np.right_shift(a, s32, out=hi)
        np.multiply(lo, m_lo, out=t)
        t >>= s32
        np.multiply(lo, m_hi, out=p)
        t += p
        np.multiply(hi, m_lo, out=p)
        hi *= m_hi
        np.bitwise_and(t, mask, out=lo)
        p += lo
        t >>= s32
        p >>= s32
        hi += t
        hi += p
        np.multiply(a, _PHILOX_M, out=lo)            # the low word
        # [x0, x1, x2, x3] <- [hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0]
        np.bitwise_xor(hi[::-1], x[1::2], out=a)
        a ^= key
        x[1::2] = lo[::-1]
    x >>= s11
    np.multiply(x.T, 2.0 ** -53, out=out.reshape(b, 4))  # u[4 j + lane] is lane of block j


def standard_normal(seed, count):
    """Standard normal variates from the documented Philox stream of each seed.

    Box-Muller on Philox4x64-10 uniforms; see the module docstring for the
    exact conventions. One 64-bit seed gives ``count`` variates; a sequence
    of seeds gives a (len(seeds), count) block whose row i equals
    standard_normal(seeds[i], count) bit for bit. Same seed, same count
    prefix: bit-identical output. One seed's uniforms are computed in numpy
    arithmetic, without loading numpy.random; a sequence's come from the
    thread's numpy.random Philox generator re-keyed per row, whose C fill is
    several times faster per uniform. Every seed is checked, whatever the
    count; a count above the 40000 size cap, and a block of rows too large
    to allocate, raise SizeCap before anything is allocated.
    """
    # the size cap bounds a row: at most 320 KB of variates per seed
    count = _integer(count, "count of variates", 0, cap=_SIZE_CAP)
    # anything not iterable (a 0-d array included) is one seed, refused below
    single = np.isscalar(seed) or not np.iterable(seed)
    seeds = [_integer(s, "seed", *_U64) for s in ([seed] if single else seed)]
    try:
        # rows of whole Philox blocks, four uniforms each, and so of whole pairs
        z = np.empty((len(seeds), -(-count // 4) * 4), dtype=np.float64)
    except (ValueError, MemoryError) as exc:
        raise SizeCap(f"{len(seeds)} x {count} variates: {exc}") from None
    if single:
        _philox_uniforms(seeds[0], z[0])
    else:
        # one generator per thread, re-keyed per row to where
        # Philox(key=seed) starts: its start state with key [seed, 0]
        cached = getattr(_THREAD, "philox", None)
        if cached is None:
            bitgen = np.random.Philox(key=0)
            cached = _THREAD.philox = bitgen, np.random.Generator(bitgen), bitgen.state
        bitgen, gen, start = cached
        for row, s in zip(z, seeds):
            start["state"]["key"][0] = s
            bitgen.state = start
            gen.random(out=row)
    # Box-Muller on every (u1, u2) pair of the block in place; cos(theta)
    # is the one temporary, half the block, which the callers bound
    r, theta = z[:, 0::2], z[:, 1::2]
    np.negative(r, out=r)
    np.log1p(r, out=r)                        # log(1 - u1), safe at u1 = 0
    np.multiply(r, -2.0, out=r)
    np.sqrt(r, out=r)
    np.multiply(theta, 2.0 * np.pi, out=theta)
    c = np.cos(theta)
    np.sin(theta, out=theta)
    np.multiply(r, theta, out=theta)          # z[2k+1] = r sin
    np.multiply(r, c, out=r)                  # z[2k] = r cos
    return z[0, :count] if single else z[:, :count]


def stream_seed(master_seed, n, delta, rep):
    """Derive the 64-bit seed of one repetition's noise stream.

    Low 8 bytes (little-endian) of
    SHA-256("tikhreg:{master}:{n}:{round(delta*1e6)}:{rep}"). Distinct
    (n, round(delta*1e6), rep) triples give independent streams under one
    master seed; 0 < delta <= 5e-7 would read the delta = 0 stream and is
    rejected, as is a delta for which delta*1e6 is not finite (a non-finite
    delta, or one above about 1.8e302). master_seed, n and each rep must be
    integers, or DomainError is raised: a truncated 1.5 would repeat rep 1's
    stream. A sequence of reps gives the list of their seeds, each equal to
    the one-rep call; the shared tag prefix is hashed once. delta must be
    finite and >= 0, as noise_sigma checks it.
    """
    scaled = _real(delta, "delta", 0, strict=False) * 1e6
    if not math.isfinite(scaled) or (delta != 0 and round(scaled) == 0):
        raise DomainError(f"delta = {delta!r} has no noise stream of its own; "
                          f"use 0 or > 5e-7 with delta*1e6 finite")
    tag = f"tikhreg:{_integer(master_seed, 'master_seed')}:{_integer(n, 'n')}:{round(scaled)}:"
    prefix = hashlib.sha256(tag.encode("ascii"))

    def seed(r):
        h = prefix.copy()
        h.update(str(_integer(r, "rep")).encode("ascii"))
        return int.from_bytes(h.digest()[:8], "little")

    return seed(rep) if np.isscalar(rep) or not np.iterable(rep) else [seed(r) for r in rep]


def noise_sigma(instance, delta):
    """Absolute noise strength sigma = delta * n^{-1/2} * ||y|| of relative level delta.

    A delta that is negative or not finite raises DomainError, and so does
    a y whose ||y||^2 overflows float64. Every path
    from delta to sigma (add_noise, the drivers, the CLI) runs through here,
    so this is the one check of delta.
    """
    delta = _real(delta, "delta", 0, strict=False)
    return delta * math.sqrt(_sq_norm(instance.y, "||y||^2")) / math.sqrt(instance.n)


def add_noise(instance, delta, seed):
    """Draw b = y + sigma * xi with sigma = noise_sigma(instance, delta).

    xi is the standard_normal draw of the unsigned 64-bit seed, drawn (and
    the seed checked) at every delta, 0 included, where b equals y (a -0.0
    in y can come out +0.0). A delta so large that ||b||^2 overflows float64
    raises DomainError.
    """
    sigma = noise_sigma(instance, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        # one seed: _integer refuses a sequence, which standard_normal would batch
        b = instance.y + sigma * standard_normal(_integer(seed, "seed"), instance.n)
        b_sq = float(b @ b)
    if not math.isfinite(b_sq):
        raise DomainError(f"delta = {delta!r} (sigma = {sigma!r}) makes ||b||^2 "
                          f"overflow float64")
    return NoisyData(b=b, sigma=sigma)


def _prob_bytes(hlen, n, w_kind):
    # the size of a .prob file: header length and header, A, x*, y and an explicit W
    return 8 + hlen + 8 * (n * n + 2 * n) + (8 * n * n if w_kind == "explicit" else 0)


def save_problem(instance, path):
    """Write a ProblemInstance to the `.prob` container format.

    Raises SizeCap, before the file is opened, when the directory of path has
    fewer bytes free than the file takes, and DomainError when path is not a
    str, bytes or os.PathLike.
    """
    path = _path(path)
    w_kind = "identity" if instance.w is None else "explicit"
    header = {
        "format": _PROB_MAGIC,
        "version": _PROB_VERSION,
        "n": instance.n,
        "label": instance.label,
        "w_kind": w_kind,
    }
    if instance.kron_factor is not None:
        header["kron_factor"] = instance.kron_factor.tolist()
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    a_rows = ([instance.a] if instance.a is not None
              else (rows for _, _, rows in _row_blocks(instance.n, instance.kron_factor)))
    w_rows = [] if instance.w is None else [instance.w]
    size = _prob_bytes(len(blob), instance.n, w_kind)
    free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    if free < size:
        raise SizeCap(f"{path} would take {size} bytes, but only {free} are free")
    with open(path, "wb") as fh:
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for v in itertools.chain(a_rows, [instance.x_star, instance.y], w_rows):
            # the array's own buffer when it is already contiguous little-endian
            fh.write(memoryview(np.ascontiguousarray(v, dtype="<f8")))


def load_problem(path):
    """Read a `.prob` container back into a ProblemInstance.

    The header and the file size are checked before any array is read, so a
    truncated, padded or garbage file raises DomainError, as does a NaN or
    infinite entry in A, x*, y or W; a header n above the 40000 size cap
    raises SizeCap before the file size is checked, and a path that is not a
    str, bytes or os.PathLike DomainError before anything is opened. An
    optional "kron_factor" header key becomes the instance's Kronecker
    factor; each entry must be a real by kind (errors._real: not a string, a
    bool, a null or a list, DomainError), its shape is checked
    (DimensionMismatch) before A is read, as is its size (DomainError when
    kron(T, T) would overflow), and A must then equal kron(T, T)
    bit for bit (DomainError if any bit differs).
    Without the key an A equal to the Fredholm kernel fill bit for bit is
    dropped and any other A is kept.

    A is streamed through one buffer of a row block at a time, each block
    compared with the same rows of the structure, so a structured file loads
    in O(block) memory beyond x*, y and T. The (n, n) A is allocated only at
    the first block that differs from the kernel fill, and then read whole
    from its first byte. x*, y and W are read straight into their own arrays.
    """
    with open(_path(path), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        hlen = int.from_bytes(fh.read(8), "little")
        if hlen > size - 8:
            raise DomainError(f"not a .prob file (truncated header): {path}")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DomainError(f"not a .prob file (unreadable header): {path}") from exc
        if not isinstance(header, dict) or header.get("format") != _PROB_MAGIC:
            raise DomainError(f"not a .prob file: {path}")
        if header.get("version") != _PROB_VERSION:
            raise DomainError(f"unsupported .prob version {header.get('version')}")
        n, w_kind, label = header.get("n"), header.get("w_kind"), header.get("label")
        if (type(n) is not int or n < 2 or w_kind not in ("identity", "explicit")
                or not isinstance(label, str)):
            raise DomainError(
                f"bad .prob header (n={n!r}, w_kind={w_kind!r}, label={label!r}): {path}")
        _integer(n, f"{path}: header n", cap=_SIZE_CAP)
        expected = _prob_bytes(hlen, n, w_kind)
        if size != expected:
            raise DomainError(f".prob file has {size} bytes, expected {expected} for n = {n}: {path}")
        kron_factor = header.get("kron_factor")
        if kron_factor is not None:
            # each entry a real by kind (errors._real), so a string is not parsed and a
            # bool or a null is not a number; a ragged list, or one nested deeper than
            # numpy's 64 dimensions, leaves lists among the entries (ravel: .flat
            # refuses more than 32 dimensions)
            entries = np.array(kron_factor, dtype=object)
            kron_factor = np.array([_real(v, f"a kron_factor entry of {path}", -math.inf)
                                    for v in entries.ravel()]).reshape(entries.shape)
            # before any byte of A is read: _row_blocks slices T by its shape
            kron_factor = _check_factor(kron_factor, n)
        a, kron_ok, buf = None, True, None
        for lo, hi, rows in _row_blocks(n, kron_factor):
            if buf is None:
                buf = np.empty((hi - lo, n), dtype="<f8")   # the first block is the largest
            block = _read_finite(fh, buf[:hi - lo], path)
            # bit patterns, not values: -0.0 == +0.0, yet a file holding
            # one where the structure has the other is not that structure
            if kron_ok and not np.array_equal(block.view(np.uint64), rows.view(np.uint64)):
                if kron_factor is None:
                    fh.seek(8 + hlen)
                    a = _read_finite(fh, np.empty((n, n), dtype="<f8"), path)
                    break
                # reported once the whole file is read, so that a non-finite
                # entry anywhere in it is reported first
                kron_ok = False
        x_star = _read_finite(fh, np.empty(n, dtype="<f8"), path)
        y = _read_finite(fh, np.empty(n, dtype="<f8"), path)
        w = (_read_finite(fh, np.empty((n, n), dtype="<f8"), path)
             if w_kind == "explicit" else None)
    if not kron_ok:
        raise DomainError(f"A is not kron(T, T) of its Kronecker factor T: {path}")
    # an A that fits no structure is kept and takes the dense route
    return ProblemInstance(n=n, a=a, x_star=x_star, y=y, w=w, label=label,
                           kron_factor=kron_factor)


def _read_finite(fh, v, path):
    # fill the contiguous float64 array v from the file, as native finite float64
    if fh.readinto(memoryview(v)) != v.nbytes:
        raise DomainError(f".prob file ended early: {path}")
    return _array(v, f".prob file {path}", v.shape)

