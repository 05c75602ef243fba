"""Reproducible random-number streams for ensemble simulation.

Every walker role in every replica owns a counter-based Philox stream keyed
by (master seed, replica index, stream id).  Streams derived this way are
independent and replayable: the same key always yields the same sequence,
no matter how replicas are grouped into worker processes or how draws are
chunked.  That is the whole determinism story; nothing downstream may pull
randomness from anywhere else.

Stream ids are assigned per role so that the two walkers of a pair and the
component processes of the decomposed constructions never share a stream:

    0 / 2    X / Y main step stream (one double per step)
    1 / 3    X / Y auxiliary stream (raw 64-bit words; midpoint indices)
    4 / 6    X / Y tooth-walk stream (self-loop decomposition)
    5 / 7    X / Y base-walk stream  (self-loop decomposition)
    8 / 10   X / Y undelayed-walk stream (geometric clock)
    9 / 11   X / Y holding-time stream   (geometric clock)
"""

from __future__ import annotations

from dataclasses import dataclass

from numpy.random import Generator, Philox, SeedSequence

X_MAIN, X_AUX = 0, 1
Y_MAIN, Y_AUX = 2, 3
X_TOOTH, X_BASE = 4, 5
Y_TOOTH, Y_BASE = 6, 7
X_SKEL, X_HOLD = 8, 9
Y_SKEL, Y_HOLD = 10, 11
AUX = X_AUX - X_MAIN      # offset of a walker's auxiliary stream from its main one


@dataclass(frozen=True)
class RngStream:
    """Key of one reproducible stream: (seed, replica, stream id)."""

    seed: int
    replica: int
    stream: int = 0

    def generator(self):
        seq = SeedSequence(entropy=self.seed,
                           spawn_key=(self.replica, self.stream))
        return Generator(Philox(seq))

    def derive(self, offset):
        """Sibling stream for the same (seed, replica)."""
        return RngStream(self.seed, self.replica, self.stream + offset)


def pair_streams(seed, replica):
    """The (rng_x, rng_y) main streams of one replica."""
    return RngStream(seed, replica, X_MAIN), RngStream(seed, replica, Y_MAIN)
