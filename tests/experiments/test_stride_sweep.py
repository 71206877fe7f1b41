"""Tests for the Figure 5/6 stride sweeps."""

import numpy as np
import pytest

from repro.experiments import stride_sweep


@pytest.fixture(scope="module")
def sweeps():
    # Reduced sweep: strides 1..255, shorter sequences, full geometry.
    return stride_sweep.run(max_stride=255, n_addresses=8192)


class TestFigure5Balance:
    def test_traditional_ideal_exactly_on_odd(self, sweeps):
        s = sweeps["Traditional"]
        odd = s.strides % 2 == 1
        assert np.all(s.balance[odd] <= 1.1)
        assert np.all(s.balance[~odd] > 1.1)

    def test_pmod_ideal_everywhere(self, sweeps):
        assert sweeps["pMod"].ideal_balance_fraction() == 1.0

    def test_xor_failures_earlier_than_pdisp(self):
        """Paper: XOR's non-ideal balance clusters at smaller strides
        than pDisp's, whose failures sit mid-range.  Needs the full
        stride range; balance only, short sequences, to stay fast."""
        from repro.hashing import (
            PrimeDisplacementIndexing, XorIndexing, balance,
            strided_addresses,
        )
        xor, pdisp = XorIndexing(2048), PrimeDisplacementIndexing(2048)
        xor_bad, pdisp_bad = [], []
        for s in range(1, 2048):
            addrs = strided_addresses(s, 4096)
            if balance(xor, addrs) > 1.1:
                xor_bad.append(s)
            if balance(pdisp, addrs) > 1.1:
                pdisp_bad.append(s)
        assert xor_bad and pdisp_bad
        assert np.median(xor_bad) < np.median(pdisp_bad)

    def test_pdisp_mostly_ideal(self, sweeps):
        assert sweeps["pDisp"].ideal_balance_fraction() > 0.85


class TestFigure6Concentration:
    def test_traditional_ideal_on_odd_strides(self, sweeps):
        s = sweeps["Traditional"]
        odd = s.strides % 2 == 1
        assert np.all(s.concentration[odd] == 0.0)
        assert np.any(s.concentration[~odd] > 100)

    def test_pmod_ideal_everywhere(self, sweeps):
        assert np.all(sweeps["pMod"].concentration <= 1e-9)

    def test_xor_never_ideal_beyond_trivial(self, sweeps):
        xor = sweeps["XOR"]
        nontrivial = xor.strides > 2
        assert np.mean(xor.concentration[nontrivial] > 0) > 0.9

    def test_pdisp_better_than_xor(self, sweeps):
        """Partial sequence invariance gives pDisp concentration far
        closer to ideal than XOR's."""
        assert (sweeps["pDisp"].concentration.mean()
                < sweeps["XOR"].concentration.mean())

    def test_ordering_matches_paper(self, sweeps):
        """pMod has the best concentration profile of the four."""
        fractions = {
            name: s.ideal_concentration_fraction()
            for name, s in sweeps.items()
        }
        assert fractions["pMod"] >= max(
            fractions["Traditional"], fractions["pDisp"], fractions["XOR"]
        )


@pytest.fixture(scope="module")
def full_range():
    """Figure 5's sweep over the paper's whole stride range: strides
    1, 3, ..., 2047 (step 2), 4096 addresses each."""
    return stride_sweep.run(max_stride=2047, n_addresses=4096,
                            stride_step=2)


class TestFullStrideRange:
    def test_figure5_balance(self, full_range):
        trad = full_range["Traditional"]
        odd = trad.strides % 2 == 1
        assert np.all(trad.balance[odd] <= 1.1)
        # pMod's one failure in range is stride 2039 = n_set.
        assert full_range["pMod"].ideal_balance_fraction() > 0.999
        assert full_range["pDisp"].ideal_balance_fraction() > 0.85
        assert full_range["XOR"].ideal_balance_fraction() > 0.85

    def test_figure6_concentration(self, full_range):
        """Figure 6's sweep steps by 4: every other stride of Figure
        5's, each measured on the same 4096 addresses."""
        sweeps = {
            name: stride_sweep.StrideSweep(name, s.strides[::2],
                                           s.balance[::2],
                                           s.concentration[::2])
            for name, s in full_range.items()
        }
        trad = sweeps["Traditional"]
        assert np.array_equal(trad.strides, np.arange(1, 2048, 4))
        odd = trad.strides % 2 == 1
        assert np.all(trad.concentration[odd] == 0.0)
        # Sequence invariant -> ideal on (almost) every stride.
        assert sweeps["pMod"].ideal_concentration_fraction() > 0.99
        # Never sequence invariant -> rarely ideal.
        assert sweeps["XOR"].ideal_concentration_fraction() < 0.2
        # Partial invariance puts pDisp between XOR and pMod.
        assert (sweeps["pDisp"].concentration.mean()
                < sweeps["XOR"].concentration.mean())


class TestPmodBadStride:
    def test_stride_equal_prime_is_the_one_failure(self):
        """pMod fails only when the stride is a multiple of n_set."""
        sweeps = stride_sweep.run(max_stride=2047, n_addresses=4096,
                                  stride_step=2038)  # strides 1 and 2039
        pmod = sweeps["pMod"]
        assert pmod.balance[pmod.strides == 1][0] <= 1.1
        assert pmod.balance[pmod.strides == 2039][0] > 100


class TestRender:
    def test_render_produces_all_eight_panels(self, sweeps):
        out = stride_sweep.render(sweeps)
        assert out.count("Figure 5") == 4
        assert out.count("Figure 6") == 4
