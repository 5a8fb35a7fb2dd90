"""Deterministic stream derivation for seeded, order-independent sampling.

Every random draw in the package comes from a generator derived with
:func:`substream`.  Streams are keyed by a root seed, an integer in [0, 2**64),
plus an integer branch path: the Monte Carlo engine keys block b of replicates
by (seed, b), and its blocks depend on (n, k, replicates) only, never on the
worker count.  A run made of several runs, such as a comparison's protocols or
a figure's cells, gives its i-th run the root seed :func:`child_seed` (seed, i).
"""

import numpy as np

from .errors import ContractError


def is_seed(seed):
    """Whether seed is a root seed: an integer (not a bool) in [0, 2**64)."""
    return isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= seed < 2**64


def _root(seed):
    if not is_seed(seed):
        raise ContractError(f"a seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def substream(seed, *branch):
    """Return a fresh ``numpy`` Generator for the stream ``(seed, *branch)``.

    The same ``(seed, branch)`` pair always yields a generator producing the
    same byte sequence; distinct pairs yield statistically independent streams
    (numpy ``SeedSequence`` guarantees).
    """
    entropy = [_root(seed)] + [int(b) for b in branch]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def child_seed(seed, i):
    """The root seed of the i-th run of a run keyed by ``seed``, hashed from (seed, i)."""
    return int(np.random.SeedSequence([_root(seed), int(i)]).generate_state(1, np.uint64)[0])
