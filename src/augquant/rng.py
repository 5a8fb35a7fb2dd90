"""Deterministic stream derivation for seeded, order-independent sampling.

Every random draw in the package comes from a generator derived with
:func:`substream`.  Streams are keyed by a root seed plus an integer branch
path: the Monte Carlo engine keys block b of replicates by (seed, b), and its
blocks depend on (n, k, replicates) only, never on the worker count.
"""

import numpy as np

_U64 = np.uint64


def substream(seed, *branch):
    """Return a fresh ``numpy`` Generator for the stream ``(seed, *branch)``.

    The same ``(seed, branch)`` pair always yields a generator producing the
    same byte sequence; distinct pairs yield statistically independent streams
    (numpy ``SeedSequence`` guarantees).
    """
    entropy = [int(_U64(seed))] + [int(b) for b in branch]
    return np.random.default_rng(np.random.SeedSequence(entropy))
