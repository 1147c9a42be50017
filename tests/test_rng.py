"""The pinned PRNG: splitmix64 seeding, xorshift64*, Fisher-Yates."""

import pytest

from spellcl.rng import XorShift64Star, shuffled, splitmix64


class TestSplitmix64:

    def test_known_vector(self):
        # reference values for the splitmix64 step from state 0:
        # https://prng.di.unimi.it (splitmix64.c), first three outputs
        x, outs = 0, []
        for _ in range(3):
            outs.append(splitmix64(x))
            x = (x + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        assert outs == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]


class TestXorShift64Star:

    def test_streams_differ(self):
        a = XorShift64Star(seed=1, stream=0)
        b = XorShift64Star(seed=1, stream=1)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_deterministic(self):
        a = [XorShift64Star(7, 3).next_u64() for _ in range(1)][0]
        b = XorShift64Star(7, 3).next_u64()
        assert a == b

    def test_unit_range(self):
        rng = XorShift64Star(5)
        vals = [rng.unit() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_below_range(self):
        rng = XorShift64Star(11)
        assert all(0 <= rng.below(7) < 7 for _ in range(200))

    def test_below_needs_a_positive_bound(self):
        with pytest.raises(ValueError, match="^below\\(\\) needs a positive bound$"):
            XorShift64Star(11).below(0)


class TestShuffle:

    def test_permutation(self):
        items = list(range(50))
        out = shuffled(items, seed=3, stream=0)
        assert sorted(out) == items
        assert out != items

    def test_reproducible(self):
        assert shuffled(list("abcdef"), 42, 1) == shuffled(list("abcdef"), 42, 1)

    def test_single_element(self):
        assert shuffled(["x"], 0, 0) == ["x"]

    def test_does_not_mutate_input(self):
        items = [3, 1, 2]
        shuffled(items, 0, 0)
        assert items == [3, 1, 2]

    def test_three_element_fairness(self):
        # every permutation of 3 elements near-uniform over many seeds
        counts = {}
        n = 3000
        for seed in range(n):
            perm = tuple(shuffled([0, 1, 2], seed, stream=1))
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / n - 1 / 6) < 0.03
