"""Deterministic random generator with independent streams.

Python's ``random`` module is stable in practice, but its draw sequence is an
implementation detail of CPython. Every artifact this package produces must be
byte-reproducible from (inputs, seed) alone, so we carry our own generator:
splitmix64, which is trivially portable and lets us derive an independent
stream per (seed, stream_id) pair. Editing one section of a plan therefore
never reshuffles the notes of any other section.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SeededRng:
    """splitmix64 stream keyed by (seed, stream)."""

    def __init__(self, seed, stream=0):
        self._state = _mix((seed & _MASK) ^ _mix((stream * _GAMMA + 1) & _MASK))

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randrange(self, n):
        """Uniform integer in [0, n). Rejection sampling keeps it unbiased."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]
