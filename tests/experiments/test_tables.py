"""Tests for the table experiments (Tables 1, 2, 3)."""

import pytest

from repro.experiments import fragmentation, machine, qualitative


class TestTable1:
    def test_matches_paper_exactly(self):
        rows = fragmentation.run()
        expected = {
            256: (251, 1.95), 512: (509, 0.59), 1024: (1021, 0.29),
            2048: (2039, 0.44), 4096: (4093, 0.07), 8192: (8191, 0.01),
            16384: (16381, 0.02),
        }
        for row in rows:
            prime, frag_pct = expected[row.n_sets_physical]
            assert row.n_sets == prime
            assert row.fragmentation * 100 == pytest.approx(frag_pct, abs=0.005)

    def test_under_one_percent_from_512_sets(self):
        assert all(row.fragmentation < 0.01 for row in fragmentation.run()
                   if row.n_sets_physical >= 512)

    def test_custom_counts(self, monkeypatch):
        monkeypatch.setattr(fragmentation, "PAPER_SET_COUNTS", (64,))
        rows = fragmentation.run()
        assert [(row.n_sets_physical, row.n_sets) for row in rows] == [
            (64, 61)]

    def test_render_contains_rows(self):
        out = fragmentation.render(fragmentation.run())
        assert "2039" in out and "0.44%" in out


class TestTable2:
    @pytest.fixture(scope="class")
    def profiles(self):
        return {p.name: p for p in qualitative.run()}

    def test_traditional_odd_only(self, profiles):
        p = profiles["Traditional"]
        assert p.ideal_balance_condition == "s odd"
        assert p.sequence_invariant

    def test_pmod_ideal_everywhere(self, profiles):
        p = profiles["pMod"]
        assert p.ideal_balance_condition == "all tested s"
        assert p.sequence_invariant
        assert not p.replacement_restricted

    def test_xor_not_invariant(self, profiles):
        p = profiles["XOR"]
        assert not p.sequence_invariant
        assert not p.partially_invariant

    def test_pdisp_partially_invariant(self, profiles):
        p = profiles["pDisp"]
        assert not p.sequence_invariant
        assert p.partially_invariant

    def test_skewed_rows_restricted(self, profiles):
        for name in ("Skewed", "Skewed+pDisp"):
            assert profiles[name].replacement_restricted

    def test_render(self, profiles):
        out = qualitative.render(list(profiles.values()))
        assert "Partial" in out and "s odd" in out

    def test_paper_geometry(self, profiles):
        """The rows are measured on the paper's 2048-set L2."""
        assert qualitative.N_SETS_PHYSICAL == 2048
        assert profiles["pMod"].strides_tested == qualitative.STRIDE_LIMIT
        assert profiles["Traditional"].ideal_balance_condition == "s odd"
        assert profiles["pMod"].sequence_invariant
        assert profiles["pDisp"].partially_invariant
        assert not profiles["XOR"].sequence_invariant
        assert profiles["Skewed"].replacement_restricted


class TestTable3:
    def test_render_contains_paper_values(self):
        out = machine.render()
        assert "512 KB, 4-way, 64-B line" in out
        assert "243 cycles" in out
        assert "208 cycles" in out
