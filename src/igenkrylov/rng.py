"""Named, counter-based random substreams.

Every random draw in the package is keyed by (seed, purpose, indices...) via
``numpy``'s SeedSequence/Philox machinery, so the realization is a pure
function of the key: independent of call order and of any other stream
derived from the same seed.
"""

import numpy as np

# Stream purpose tags. Fixed integers, part of the reproducibility contract.
TAG_MATVEC_ERROR = 1
TAG_OBSERVATION_NOISE = 2
TAG_ANGLE_JITTER = 3

DIR_FORWARD = 0
DIR_ADJOINT = 1


def substream(seed, *path):
    """Return a Generator for the substream identified by ``path`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
