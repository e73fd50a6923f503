"""The coin-step evolution kernel, vectorised over sites with numpy.

One walk step is shift∘coin: the 2x2 coin acts on every occupied spinor,
then component 0 hops one site right and component 1 one site left.
"""

import numpy as np


def evolve_steps(amps, coin, steps, lo, hi):
    """Advance ``amps`` in place by ``steps`` shift∘coin applications.

    ``amps`` is a (2, L) complex128 array whose occupied window is
    [lo, hi].  Requires lo - steps >= 1 and hi + steps <= L - 2 so the
    light cone stays inside the buffer.  Returns the new (lo, hi).
    """
    L = amps.shape[1]
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if lo - steps < 1 or hi + steps > L - 2:
        raise ValueError("amplitude buffer too small for requested steps")

    c00, c01 = coin[0, 0], coin[0, 1]
    c10, c11 = coin[1, 0], coin[1, 1]
    src = amps
    dst = np.zeros_like(amps)
    for _ in range(steps):
        dst[0, lo + 1 : hi + 2] = c00 * src[0, lo : hi + 1] + c01 * src[1, lo : hi + 1]
        dst[1, lo - 1 : hi] = c10 * src[0, lo : hi + 1] + c11 * src[1, lo : hi + 1]
        # Window cells not written above may hold stale values from two
        # steps ago (the window only grows), so zero them explicitly.
        dst[0, lo - 1 : lo + 1] = 0.0
        dst[1, hi : hi + 2] = 0.0
        src, dst = dst, src
        lo -= 1
        hi += 1

    if src is not amps:
        amps[:, :] = src
    return lo, hi
