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
the one check of a seed (an unsigned 64-bit integer).

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
increments, each 64 x 64 -> 128-bit product from its 32-bit halves, in
equal passes of at most 4096 blocks (16384 uniforms), so its scratch stays
under 480 KB at any count. It never loads numpy.random, whose import alone
costs 6-10 ms and 1.8 MB of resident memory, more than the whole draw at
every count the size cap allows: a process's first one-seed draw takes
0.5 ms at 2000 variates and 3.2 ms at 40000 (2-core Xeon, numpy 2.4),
against 5.7 and 6.9 ms for importing numpy.random and its C fill. Each later
draw in the same process costs more than a C fill would, though (2.8 ms
against 1.2 ms at 40000): the numpy-only fill takes 45-65 ns per uniform
in bulk against 5-9 ns, so above about 200000 variates one seed would be
cheaper through numpy.random.

Batched draws. A sequence of seeds (the Monte Carlo and study batches)
returns one row per seed, row i equal bit for bit to the one-seed draw, and
takes numpy.random's C fill. It builds one Philox generator per call, reads
its start state once, and re-keys it per row by setting that state's key to
[seed, 0], where Philox(key=seed) starts. It writes each row's uniforms
straight into the output block, so a Monte Carlo batch (256 KB of noise,
bounded by the harness) pays for one construction instead of one per rep.
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

Serialization. ``save_problem`` writes a `.prob` container: an 8-byte
little-endian header length, a UTF-8 JSON header
{"format": "prob", "version": 1, "n": ..., "label": ..., "w_kind": ...},
then raw little-endian float64 arrays: A (n*n, row-major), x* (n), y (n), and,
only when w_kind == "explicit" (w is not None), W (n*n, row-major).
``save_problem`` raises SizeCap before it opens the file when the target
directory has fewer bytes free than the file takes. A structured A is written one block of rows at a
time and never assembled. A Kronecker factor goes into the header as an
optional "kron_factor" key (a list of rows, repr-exact floats).
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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, SizeCap
from .linalg import weight_factor

_PROB_MAGIC = "prob"
_PROB_VERSION = 1

# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC'11; the Random123
# constants): each round multiplies lanes 0 and 2 by _PHILOX_M, 64 x 64 ->
# 128 bits, and the key grows by _PHILOX_W between rounds
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# Philox blocks (four uniforms each) per pass of the one-seed fill at most:
# its scratch, 12 uint64 per block and numpy's ufunc buffers, traces under 15
# uint64 per block of a pass (480 KB) whatever the count. Each pass costs
# about 170 ufunc calls, so fewer, longer passes are faster
_PHILOX_CHUNK = 4096

# entries per block of the kernel fill (1 MB of float64), so that the
# block and its scratch stay small and in cache
_BLOCK_ENTRIES = 1 << 17


@dataclass
class ProblemInstance:
    """A forward operator with its exact solution and clean data.

    a is an explicit (n, n) A, or None when the instance's structure defines
    A: kron(T, T) with a Kronecker factor T, else the kernel fill of
    build_fredholm(n). Giving both a and a factor raises DomainError.
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
        a, t = self.a, self.kron_factor
        if self.n < 2:
            raise DomainError(f"instance needs n >= 2, got {self.n}")
        if a is not None and t is not None:
            raise DomainError("an instance holds an explicit A or a Kronecker factor, not both")
        if a is not None and a.shape != (self.n, self.n):
            raise DimensionMismatch(f"A has shape {a.shape}, expected {(self.n, self.n)}")
        if self.x_star.shape != (self.n,) or self.y.shape != (self.n,):
            raise DimensionMismatch("x_star and y must have length n")
        _check_factor_shape(t, self.n)
        if self.w is not None:
            self.w, self.w_chol = weight_factor(self.w, self.n)

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


def _check_factor_shape(t, n):
    # a Kronecker factor T must be (s, s) with s^2 = n
    if t is not None and [d * d for d in np.shape(t)] != [n, n]:
        raise DimensionMismatch(
            f"Kronecker factor has shape {np.shape(t)}, expected (s, s) with s^2 = {n}")


def _check_size_cap(n, what):
    # runs before anything is allocated. A build is O(n) memory; only
    # dense_a() (the dense decomposition) and the load of a .prob whose A
    # fits no structure allocate n^2, 12.8 GB at the cap, and generate at
    # the cap writes a 12.8 GB .prob if the disk has room for it
    if n > 40000:
        raise SizeCap(f"{what} exceeds the 40000 cap")


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
    # (lo, hi, rows lo..hi-1 of A), never the whole n x n A. Every block is
    # written into one buffer reused across blocks, so a caller copies, writes
    # or compares it before asking for the next. With a Kronecker factor T,
    # block i holds rows i s..(i+1) s - 1 of kron(T, T), row k being
    # kron(T[i], T[k]). Without one, the Fredholm kernel fill comes about
    # _BLOCK_ENTRIES entries at a time
    if t is not None:
        s = t.shape[0]
        buf = np.empty((s, s, s))
        for i in range(s):
            # entry a s + b of row k is T[k, b] T[i, a], the one product np.kron
            # forms, without its reshapes and copies
            np.multiply(t[:, None, :], t[i][None, :, None], out=buf)
            yield i * s, (i + 1) * s, buf.reshape(s, s * s)
        return
    s_nodes = _midpoints(n)
    step = max(1, _BLOCK_ENTRIES // n)
    buf, scratch = np.empty((step, n)), np.empty((step, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # row j of A lies at the node j/n
        rows = _kernel(np.arange(lo, hi, dtype=np.float64)[:, None] / n, s_nodes,
                       buf[:hi - lo], scratch[:hi - lo])
        rows /= n
        yield lo, hi, rows


def build_fredholm(n):
    """Discretize the Fredholm test problem on n quadrature panels.

    Row nodes are (j-1)/n for j = 1..n, quadrature (column) nodes are the
    panel midpoints (2i-1)/(2n), and the quadrature weight 1/n multiplies
    every entry. The exact solution is the quintic
    x(t) = -6 t^2 (1-t) (2 - 8t + 7t^2) sampled at the midpoints. No n x n
    array is formed: y = A x* is two prefix sums (module docstring).
    """
    if n < 2:
        raise DomainError(f"build_fredholm needs n >= 2, got {n}")
    _check_size_cap(n, f"n = {n}")
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
    if side < 4:
        raise DomainError(f"build_blur needs side >= 4, got {side}")
    _check_size_cap(side * side, f"side^2 = {side * side}")
    try:
        two_w_sq = 2.0 * psf_width**2
    except OverflowError:
        two_w_sq = math.inf
    if not (psf_width > 0 and 0.0 < two_w_sq < math.inf):
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


def _checked_seed(s):
    s = int(s)
    if not 0 <= s < 2**64:
        raise DomainError(f"seed {s} does not fit in an unsigned 64-bit integer")
    return s


def _philox_uniforms(seed, out):
    # out[i] = (x_i >> 11) 2^-53 for the 64-bit outputs x_0, x_1, ... of
    # numpy's Philox(key=seed), computed with numpy alone: the key is
    # [seed, 0], and numpy increments the counter before each block, so block
    # j holds Philox4x64-10 of the counter [j + 1, 0, 0, 0]. The rounds run
    # on a (4, b) array of b blocks, in equal passes of b <= _PHILOX_CHUNK.
    # Every product and key sum is a uint64 array operation, which wraps
    # modulo 2^64 without a warning on every numpy this package supports
    mask, s11, s32 = np.uint64(0xFFFFFFFF), np.uint64(11), np.uint64(32)
    m_lo, m_hi = _PHILOX_M & mask, _PHILOX_M >> s32
    keys = np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_W   # round r: key + r W
    keys[:, 0] += np.uint64(seed)
    blocks = -(-out.size // 4)
    passes = -(-blocks // _PHILOX_CHUNK)
    b = -(-blocks // passes)
    x = np.empty((4, b), dtype=np.uint64)
    lo, hi, t, p = (np.empty((2, b), dtype=np.uint64) for _ in range(4))
    for first in range(0, blocks, b):
        # the last pass may run past the count by up to passes - 1 blocks,
        # which it does not keep
        x[0] = np.arange(first + 1, first + 1 + b, dtype=np.uint64)
        x[1:] = 0
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
        u = out[4 * first:4 * (first + b)]
        for lane in range(4):                            # u[4 j + lane] is lane of block j
            np.multiply(x[lane, :(u.size - lane + 3) // 4], 2.0 ** -53, out=u[lane::4])


def standard_normal(seed, count):
    """Standard normal variates from the documented Philox stream of each seed.

    Box-Muller on Philox4x64-10 uniforms; see the module docstring for the
    exact conventions. One 64-bit seed gives ``count`` variates; a sequence
    of seeds gives a (len(seeds), count) block whose row i equals
    standard_normal(seeds[i], count) bit for bit. Same seed, same count
    prefix: bit-identical output. One seed's uniforms are computed in numpy
    arithmetic, without loading numpy.random; a sequence's come from one
    numpy.random Philox generator re-keyed per row, whose C fill is several
    times faster per uniform.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    single = np.isscalar(seed)
    seeds = [seed] if single else seed
    pairs = (count + 1) // 2
    z = np.empty((len(seeds), 2 * pairs), dtype=np.float64)
    if z.size:
        if single:
            _philox_uniforms(_checked_seed(seed), z[0])
        else:
            # one generator, re-keyed per row to where Philox(key=seed)
            # starts: its start state with key [seed, 0]
            bitgen = np.random.Philox(key=0)
            gen = np.random.Generator(bitgen)
            start = bitgen.state
            for row, s in zip(z, seeds):
                start["state"]["key"][0] = _checked_seed(s)
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
    delta, or one above about 1.8e302). A sequence of reps gives the list of
    their seeds, each equal to the one-rep call; the shared tag prefix is
    hashed once.
    """
    scaled = delta * 1e6
    if not math.isfinite(scaled) or (delta != 0 and round(scaled) == 0):
        raise DomainError(f"delta = {delta!r} has no noise stream of its own; "
                          f"use 0 or > 5e-7 with delta*1e6 finite")
    tag = f"tikhreg:{int(master_seed)}:{int(n)}:{round(scaled)}:"
    prefix = hashlib.sha256(tag.encode("ascii"))

    def seed(r):
        h = prefix.copy()
        h.update(str(int(r)).encode("ascii"))
        return int.from_bytes(h.digest()[:8], "little")

    return seed(rep) if np.isscalar(rep) else [seed(r) for r in rep]


def noise_sigma(instance, delta):
    """Absolute noise strength sigma = delta * n^{-1/2} * ||y|| of relative level delta.

    A delta that is negative or not finite raises DomainError. Every path
    from delta to sigma (add_noise, the drivers, the CLI) runs through here,
    so this is the one check of delta.
    """
    if not 0 <= delta < math.inf:
        raise DomainError(f"delta must be finite and >= 0, got {delta}")
    return delta * float(np.linalg.norm(instance.y)) / math.sqrt(instance.n)


def add_noise(instance, delta, seed):
    """Draw b = y + sigma * xi with sigma = noise_sigma(instance, delta).

    xi is the standard_normal draw of the unsigned 64-bit seed, drawn (and
    the seed checked) at every delta, 0 included, where b equals y (a -0.0
    in y can come out +0.0). A delta so large that ||b||^2 overflows float64
    raises DomainError.
    """
    sigma = noise_sigma(instance, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        b = instance.y + sigma * standard_normal(seed, instance.n)
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
    fewer bytes free than the file takes.
    """
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
    infinite entry in A, x*, y or W. An optional "kron_factor" header key
    becomes the instance's Kronecker factor; its shape is checked
    (DimensionMismatch) before A is read, and A must then equal kron(T, T)
    bit for bit (DomainError if any bit differs). Without the key an A equal
    to the Fredholm kernel fill bit for bit is dropped and any other A is kept.

    A is streamed through one buffer of a row block at a time, each block
    compared with the same rows of the structure, so a structured file loads
    in O(block) memory beyond x*, y and T. The (n, n) A is allocated only at
    the first block that differs from the kernel fill, and then read whole
    from its first byte. x*, y and W are read straight into their own arrays.
    """
    with open(path, "rb") as fh:
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
        expected = _prob_bytes(hlen, n, w_kind)
        if size != expected:
            raise DomainError(f".prob file has {size} bytes, expected {expected} for n = {n}: {path}")
        kron_factor = header.get("kron_factor")
        if kron_factor is not None:
            try:
                kron_factor = np.array(kron_factor, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"bad .prob header (kron_factor is not a matrix): {path}") from exc
        # before any byte of A is read: _row_blocks slices T by its shape
        _check_factor_shape(kron_factor, n)
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
    # fill the contiguous float64 array v from the file, as native float64
    if fh.readinto(memoryview(v)) != v.nbytes:
        raise DomainError(f".prob file ended early: {path}")
    if not np.isfinite(v).all():
        raise DomainError(f".prob file holds non-finite values: {path}")
    return v.astype(np.float64, copy=False)

