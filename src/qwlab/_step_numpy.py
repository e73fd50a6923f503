"""The gauged walk's closed-form propagator on the parity sublattice, with numpy.

``qwlab.walk`` gauges every coin walk to one with a real coin
R = [[A, B], [-B, A]], A = |a|, B = |b|.  At step m the walk occupies the
sites k = 2j - m, j = 0..m, and cell j of a buffer holds site 2j - m.  One
shift∘coin step then reads

    x0'[j + 1] = A x0[j] + B x1[j]
    x1'[j]     = -B x0[j] + A x1[j]

because component 0 hops right (one cell up) and component 1 hops left
(the same cell).  With X(z) = sum_j x[j] z^j and z = e^{2ip} the step is
multiplication by V(p) = e^{ip} [[A e^{ip}, B e^{ip}], [-B e^{-ip}, A e^{-ip}]],
whose determinant is rho e^{2ip}, rho = A^2 + B^2.  The normalised step
V~ = V / (sqrt(rho) e^{ip}) has det 1 and trace 2 cos(alpha),
cos(alpha) = A cos(p) / sqrt(rho), so by Cayley-Hamilton

    V~^s = cos(s alpha) I + sin(s alpha) / (sqrt(rho) sin(alpha))
           [[i A sin p, B e^{ip}], [-B e^{-ip}, -i A sin p]],

with sqrt(rho) sin(alpha) = sqrt(B^2 + A^2 sin^2 p) >= B > 0.  Evaluating
X on N >= (occupied cells + s) roots of unity, multiplying by
e^{isp} V~^s and transforming back gives s steps of R / sqrt(rho) exactly,
in O(N log N): the norm is kept whatever the rounding of A and B.
"""

import numpy as np


def transform_size(width: int) -> int:
    """Length of the transforms for ``width`` cells: the power of 2 >= width."""
    return 1 << (width - 1).bit_length()


def evolve_steps(amps, coin, steps, lo, hi):
    """Advance ``amps`` in place by ``steps`` sublattice steps of ``coin``.

    ``amps`` is a (2, L) float64 array whose occupied cells are [lo, hi];
    cells outside them hold 0.  ``coin`` is the real rotation
    [[A, B], [-B, A]] with A, B > 0, applied as coin / sqrt(A^2 + B^2).
    Requires hi + steps <= L - 1 so the light cone stays inside the buffer.
    Returns the new (lo, hi).
    """
    L = amps.shape[1]
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if lo < 0 or hi + steps > L - 1:
        raise ValueError("amplitude buffer too small for requested steps")
    if steps == 0:
        return lo, hi

    A, B = float(coin[0][0]), float(coin[0][1])
    width = hi + steps - lo + 1
    size = transform_size(width)
    # rfft gives X at z = e^{-2 pi i k / size}, that is at p = -pi k / size.
    k = np.arange(size // 2 + 1)
    p = (-np.pi / size) * k
    sin_p, cos_p = np.sin(p), np.cos(p)
    root = np.sqrt(B * B + (A * sin_p) ** 2)  # sqrt(rho) sin(alpha)
    alpha = np.arctan2(root, A * cos_p)
    # cos(s alpha)^2 + (u root)^2 = 1 whatever the rounding of s alpha, so
    # the computed e^{isp} V~^s stays unitary and the total cannot drift.
    cos_s, u = np.cos(steps * alpha), np.sin(steps * alpha) / root
    # e^{isp} and e^{ip}, with s k reduced exactly modulo 2 size
    turn = np.exp((-1j * np.pi / size) * ((steps * k) % (2 * size)))
    e_ip = cos_p + 1j * sin_p

    f0, f1 = np.fft.rfft(amps[:, lo : lo + width], size)
    diag = (1j * A) * u * sin_p
    g0 = turn * ((cos_s + diag) * f0 + (B * u) * e_ip * f1)
    g1 = turn * ((cos_s - diag) * f1 - (B * u) * np.conj(e_ip) * f0)
    amps[0, lo : lo + width] = np.fft.irfft(g0, size)[:width]
    amps[1, lo : lo + width] = np.fft.irfft(g1, size)[:width]
    return lo, hi + steps
