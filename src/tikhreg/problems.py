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

Noise model: b = y + sigma * xi with xi iid standard normal and
sigma = noise_sigma(instance, delta) = delta * n^{-1/2} * ||y||, so delta is
the relative noise level and sigma the per-component standard deviation.

Reproducibility. All Gaussian variates come from a Philox4x64-10 counter
generator keyed directly by the caller's 64-bit seed (counter starts at 0).
Uniforms use the usual 53-bit convention u = (x >> 11) * 2^-53 on successive
64-bit outputs, and normals are produced by explicit Box-Muller with strictly
sequential pair consumption:

    r = sqrt(-2 log(1 - u[2k])),  z[2k] = r cos(2 pi u[2k+1]),
                                  z[2k+1] = r sin(2 pi u[2k+1])

so the stream can be replicated outside this package from the description
alone. Derived streams (one per Monte Carlo repetition) are keyed by the low
8 bytes, little-endian, of SHA-256("tikhreg:{master}:{n}:{round(delta*1e6)}:{rep}").

Serialization. ``save_problem`` writes a `.prob` container: an 8-byte
little-endian header length, a UTF-8 JSON header
{"format": "prob", "version": 1, "n": ..., "label": ..., "w_kind": ...},
then raw little-endian float64 arrays: A (n*n, row-major), x* (n), y (n), and,
only when w_kind == "explicit", W (n*n, row-major).
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, SizeCap
from .linalg import WeightSpec

_PROB_MAGIC = "prob"
_PROB_VERSION = 1

# rows per block when filling large kernel matrices; keeps temporaries small
_BLOCK_ROWS = 256


@dataclass
class ProblemInstance:
    """A forward matrix with its exact solution and clean data."""

    n: int
    a: np.ndarray          # (n, n) forward matrix
    x_star: np.ndarray     # (n,) exact solution
    y: np.ndarray          # (n,) clean data, y = A x*
    w: WeightSpec
    label: str

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"instance needs n >= 2, got {self.n}")
        if self.a.shape != (self.n, self.n):
            raise DimensionMismatch(f"A has shape {self.a.shape}, expected {(self.n, self.n)}")
        if self.x_star.shape != (self.n,) or self.y.shape != (self.n,):
            raise DimensionMismatch("x_star and y must have length n")


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and the seed of its generator."""

    delta: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise DomainError(f"delta must be finite and >= 0, got {self.delta}")
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")


@dataclass
class NoisyData:
    """One noisy right-hand side together with the noise strength that made it."""

    b: np.ndarray
    sigma: float
    delta: float
    seed: int


def greens_kernel(t, s):
    """Kernel kappa(t, s) = s (1 - t) for s <= t, else t (1 - s).

    Symmetric and nonnegative on the unit square. Accepts scalars or
    broadcastable arrays; raises DomainError outside [0, 1]^2.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(t < 0) or np.any(t > 1) or np.any(s < 0) or np.any(s > 1):
        raise DomainError("greens_kernel arguments must lie in [0, 1]")
    out = np.minimum(t, s) * (1.0 - np.maximum(t, s))
    if out.ndim == 0:
        return float(out)
    return out


def build_fredholm(n):
    """Discretize the Fredholm test problem on n quadrature panels.

    Row nodes are (j-1)/n for j = 1..n, quadrature (column) nodes are the
    panel midpoints (2i-1)/(2n), and the quadrature weight 1/n multiplies
    every entry. The exact solution is the quintic
    x(t) = -6 t^2 (1-t) (2 - 8t + 7t^2) sampled at the midpoints.
    """
    if n < 2:
        raise DomainError(f"build_fredholm needs n >= 2, got {n}")
    t_nodes = np.arange(n, dtype=np.float64) / n                  # (j-1)/n
    s_nodes = (2.0 * np.arange(n, dtype=np.float64) + 1.0) / (2.0 * n)
    a = np.empty((n, n), dtype=np.float64)
    # fill in row blocks: min/max broadcasting is memory-hungry at n = 10^4
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        a[lo:hi, :] = greens_kernel(t_nodes[lo:hi, None], s_nodes[None, :]) / n
    tm = s_nodes  # x* lives on the midpoint grid
    x_star = -6.0 * tm**2 * (1.0 - tm) * (2.0 - 8.0 * tm + 7.0 * tm**2)
    y = a @ x_star
    return ProblemInstance(n=n, a=a, x_star=x_star, y=y, w=WeightSpec.identity(), label="fredholm")


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
    outside the image. A = kron(T, T) acts on row-major flattened images.
    psf_width is in pixels.
    """
    if side < 4:
        raise DomainError(f"build_blur needs side >= 4, got {side}")
    if side * side > 40000:
        raise SizeCap(f"side^2 = {side * side} exceeds the 40000 cap")
    if not (psf_width > 0):
        raise DomainError(f"psf_width must be positive, got {psf_width}")
    d = np.arange(side, dtype=np.float64)
    g = np.exp(-(d**2) / (2.0 * psf_width**2))
    mass = g[0] + 2.0 * g[1:].sum()       # total kernel mass over |d| < side
    offsets = np.abs(d[:, None] - d[None, :])
    t = np.exp(-(offsets**2) / (2.0 * psf_width**2)) / mass
    a = np.kron(t, t)
    x_star = _blur_image(side).reshape(-1)
    y = a @ x_star
    return ProblemInstance(
        n=side * side, a=a, x_star=x_star, y=y, w=WeightSpec.identity(), label="blur"
    )


def standard_normal(seed, count):
    """``count`` standard normal variates from the documented Philox stream.

    Box-Muller on Philox4x64-10 uniforms; see the module docstring for the
    exact conventions. Same seed, same count prefix: bit-identical output.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    pairs = (count + 1) // 2
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    u = gen.random(2 * pairs, dtype=np.float64)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))     # log(1 - u1), safe at u1 = 0
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


def stream_seed(master_seed, n, delta, rep):
    """Derive the 64-bit seed of one repetition's noise stream.

    Low 8 bytes (little-endian) of
    SHA-256("tikhreg:{master}:{n}:{round(delta*1e6)}:{rep}"). Distinct
    (n, delta, rep) triples give independent streams under one master seed;
    deltas below 5e-7 collide at 0 and are not used by the experiments.
    """
    tag = f"tikhreg:{int(master_seed)}:{int(n)}:{round(delta * 1e6)}:{int(rep)}"
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def noise_sigma(instance, delta):
    """Absolute noise strength sigma = delta * n^{-1/2} * ||y|| of relative level delta."""
    return delta * float(np.linalg.norm(instance.y)) / math.sqrt(instance.n)


def add_noise(instance, spec):
    """Draw b = y + sigma * xi with sigma = noise_sigma(instance, spec.delta)."""
    sigma = noise_sigma(instance, spec.delta)
    if sigma == 0.0:
        b = instance.y.copy()
    else:
        b = instance.y + sigma * standard_normal(spec.seed, instance.n)
    return NoisyData(b=b, sigma=sigma, delta=spec.delta, seed=spec.seed)


def save_problem(instance, path):
    """Write a ProblemInstance to the `.prob` container format."""
    header = {
        "format": _PROB_MAGIC,
        "version": _PROB_VERSION,
        "n": instance.n,
        "label": instance.label,
        "w_kind": instance.w.kind,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(np.ascontiguousarray(instance.a, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(instance.x_star, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(instance.y, dtype="<f8").tobytes())
        if instance.w.kind == "explicit":
            fh.write(np.ascontiguousarray(instance.w.matrix, dtype="<f8").tobytes())


def load_problem(path):
    """Read a `.prob` container back into a ProblemInstance.

    The header and the file size are checked before any array is read, so a
    truncated, padded or garbage file raises DomainError.
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
        expected = 8 + hlen + 8 * (n * n + 2 * n) + (8 * n * n if w_kind == "explicit" else 0)
        if size != expected:
            raise DomainError(f".prob file has {size} bytes, expected {expected} for n = {n}: {path}")
        a = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).astype(np.float64)
        x_star = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
        y = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
        if w_kind == "explicit":
            wm = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).astype(np.float64)
            w = WeightSpec.explicit(wm)
        else:
            w = WeightSpec.identity()
    return ProblemInstance(n=n, a=a, x_star=x_star, y=y, w=w, label=label)
