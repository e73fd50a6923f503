"""The gauged walk's evolution kernel on the parity sublattice, with numpy.

``qwlab.walk`` gauges every coin walk to one with a real coin R.  At step m
the walk occupies the sites k = 2j - m, j = 0..m, and cell j of a buffer
holds site 2j - m.  One shift∘coin step then reads

    x0'[j + 1] = R00 x0[j] + R01 x1[j]
    x1'[j]     = R10 x0[j] + R11 x1[j]

because component 0 hops right (one cell up) and component 1 hops left
(the same cell).  The occupied window grows by one cell a step.
"""


def evolve_steps(amps, coin, steps, lo, hi):
    """Advance ``amps`` in place by ``steps`` sublattice steps of ``coin``.

    ``amps`` is a (2, L) float64 array whose occupied cells are [lo, hi];
    cells outside them hold 0.  ``coin`` is the real 2x2 coin R.  Requires
    hi + steps <= L - 1 so the light cone stays inside the buffer.  Returns
    the new (lo, hi).
    """
    L = amps.shape[1]
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if lo < 0 or hi + steps > L - 1:
        raise ValueError("amplitude buffer too small for requested steps")

    x0, x1 = amps
    for _ in range(steps):
        rotated = coin @ amps[:, lo : hi + 1]
        x1[lo : hi + 1] = rotated[1]
        x0[lo + 1 : hi + 2] = rotated[0]
        x0[lo] = 0.0
        hi += 1
    return lo, hi
