"""Independent spectral reference for the one-dimensional operators.

Applies the Fourier multiplier -|k|^alpha on a periodic grid with an
in-repo radix-2 FFT (no library transform), plus Hermite closed forms
for Gaussians at even integer alpha.  Used only as a cross-check: none
of the singular-integral code paths go through here.
"""

import math
from dataclasses import dataclass

import numpy as np

_IMAGES, _IMAGE_TERMS = 400, 14     # images a side, kernel moments each


def _bit_reverse_permutation(n):
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=int)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def fft(x, inverse=False):
    """Iterative radix-2 complex FFT; length must be a power of two."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    out = x[_bit_reverse_permutation(n)].copy()
    sign = 1.0 if inverse else -1.0
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(sign * 2j * math.pi * np.arange(half) / size)
        blocks = out.reshape(n // size, size)
        lo = blocks[:, :half].copy()
        hi = blocks[:, half:] * tw
        blocks[:, :half] = lo + hi
        blocks[:, half:] = lo - hi
        size *= 2
    if inverse:
        out /= n
    return out


@dataclass
class GridField:
    """Periodic samples u(x_i), x_i = -L/2 + i*L/N, i = 0..N-1."""
    samples: np.ndarray
    length: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        n = self.samples.size
        if n < 16 or n > 65536 or n & (n - 1):
            raise ValueError("grid size must be a power of two in 16..65536")
        if self.length <= 0.0:
            raise ValueError("grid length must be positive")

    @property
    def spacing(self):
        return self.length / self.samples.size

    @property
    def grid(self):
        n = self.samples.size
        return -0.5 * self.length + self.spacing * np.arange(n)


def dft_fl(field, alpha):
    """Apply the multiplier -|k|^alpha to a GridField; returns samples.

    The DFT frequencies are k_j = 2 pi j / L with j in the symmetric
    range; the result is real for real input (the multiplier is even).
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    u = np.asarray(field.samples, dtype=complex)
    n = u.size
    spec = fft(u)
    k = 2.0 * math.pi * _sym_index(n) / field.length
    out = fft(-np.abs(k) ** alpha * spec, inverse=True)
    if np.isrealobj(field.samples):
        return out.real
    return out


def _sym_index(n):
    j = np.arange(n, dtype=float)
    j[j > n // 2] -= n
    return j


def hermite_poly(q, t):
    """Physicists' Hermite polynomial, kept local to stay self-contained."""
    t = np.asarray(t, dtype=float)
    h0 = np.ones_like(t)
    if q == 0:
        return h0
    h1 = 2.0 * t
    for k in range(1, q):
        h0, h1 = h1, 2.0 * t * h1 - 2.0 * k * h0
    return h1


def gaussian_reference(alpha, sigma, x):
    """(-1)^(p+1) Laplacian^p of exp(-(x/sigma)^2) for alpha = 2p.

    One-dimensional Hermite closed form; alpha must be 0, 2 or 4.
    """
    if alpha not in (0, 2, 4):
        raise ValueError("closed forms available for alpha in {0, 2, 4}")
    p = int(alpha) // 2
    t = x / sigma
    return ((-1.0) ** (p + 1) * sigma ** (-2 * p)
            * float(hermite_poly(2 * p, np.array([t]))[0])
            * math.exp(-t * t))


def periodic_image_tail(x, alpha, length, sigma=1.0):
    """Far-field contribution of periodic Gaussian images to the operator.

    The spectral route on a box of size ``length`` computes the operator of
    the periodized field exp(-(y/sigma)^2), which exceeds the free-space
    value by the sum over image copies a distance >= length - |x| away.
    Out there the kernel is smooth, so each image contributes

        C(1, alpha) * int exp(-(y/sigma)^2) |x - j*length - y|^(-1-alpha) dy,

    evaluated through the even-moment expansion of the kernel about the
    image centre (the field's odd moments vanish; the t-th even moment is
    sigma^(2t+1) Gamma(t + 1/2)).  Images beyond _IMAGES are summed with
    a midpoint integral remainder on the leading moment.  Requires
    length - |x| to comfortably clear the Gaussian support.
    """
    from .constants import c_standard, gamma

    if length - abs(x) < 10.0:
        raise ValueError("evaluation point too close to the nearest image")
    coef = c_standard(1, alpha)
    if coef == 0.0:
        return 0.0          # local (even integer) regime: no far field
    j = np.arange(1, _IMAGES + 1)
    d = np.abs(np.concatenate([x - j * length, x + j * length]))
    total = 0.0
    for t in range(_IMAGE_TERMS):
        binom = 1.0
        for i in range(2 * t):
            binom *= (-1.0 - alpha - i) / (i + 1.0)
        total += (binom * gamma(t + 0.5) * sigma ** (2 * t + 1)
                  * np.sum(d ** (-1.0 - alpha - 2 * t)))
    s = 1.0 + alpha
    remainder = (2.0 * math.sqrt(math.pi) * sigma * length ** -s
                 * (_IMAGES + 0.5) ** (1.0 - s) / (s - 1.0))
    return coef * (total + remainder)
