"""Fixed, fully specified PRNG used everywhere randomness is needed.

Reproducibility across runs, platforms, and reimplementations in other
languages matters more here than statistical sophistication, so the
generator is pinned down bit-for-bit rather than delegated to a platform
default:

* State derivation: two rounds of the splitmix64 step function fold a
  64-bit ``seed`` and a 64-bit ``stream`` number into one nonzero state
  word.  Distinct streams (e.g. curriculum stage indices) give independent
  sequences from the same user seed.
* Generator: xorshift64* - ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
  output = x * 0x2545F4914F6CDD1D`` (all mod 2**64).
* Bounded draws: ``next_u64() % n``.  The modulo bias is below 2**-32 for
  every n used in this package and is irrelevant at our sample sizes.
* Unit doubles: top 53 bits of the output, scaled by 2**-53.
* Shuffling: modern Fisher-Yates, iterating i from n-1 down to 1 and
  swapping with j = bounded draw from [0, i].
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance x by the golden gamma and mix."""
    z = (x + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class XorShift64Star:
    """xorshift64* generator with splitmix64 seeding from (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        state = splitmix64(splitmix64(seed & _MASK64) ^ (stream & _MASK64))
        # xorshift64* state must be nonzero; the gamma is an arbitrary fixed fill-in.
        self._state = state if state != 0 else _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def unit(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def shuffled(items: list, seed: int, stream: int) -> list:
    """Return a new list holding ``items`` shuffled under (seed, stream)."""
    out = list(items)
    XorShift64Star(seed, stream).shuffle(out)
    return out
