"""The flat LRU kernel against the reference loop.

``simulate_scheme`` runs the base, 8way, xor, pmod and pdisp
hierarchies through :func:`repro.cpu.fastpath.run_flat`.  Every
comparison here is with ``Simulator.run`` on a freshly built hierarchy,
field by field and exactly.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.cpu import MachineConfig, Simulator, build_hierarchy, simulate_scheme
from repro.cpu import fastpath
from repro.memory import DramModel
from repro.trace import Trace, TraceMetadata
from repro.workloads import all_workload_names, get_workload

FLAT_SCHEMES = ("base", "8way", "xor", "pmod", "pdisp")


def reference(trace, scheme, config=None, warmup_fraction=0.0):
    config = config or MachineConfig.paper_default()
    sim = Simulator(build_hierarchy(scheme, config),
                    DramModel(config.dram_config()), config, scheme=scheme)
    return sim.run(trace, warmup_fraction=warmup_fraction)


def assert_matches_reference(trace, scheme, config=None, warmup_fraction=0.0):
    flat = simulate_scheme(trace, scheme, config,
                           warmup_fraction=warmup_fraction)
    assert asdict(flat) == asdict(
        reference(trace, scheme, config, warmup_fraction)), scheme


def make_trace(addresses, writes=None, **meta):
    addresses = np.asarray(addresses, dtype=np.uint64)
    if writes is None:
        writes = np.zeros(len(addresses), dtype=bool)
    return Trace("flat", addresses, np.asarray(writes, dtype=bool),
                 TraceMetadata(**meta))


@st.composite
def machines(draw):
    """Small hierarchies, so short traces hit, conflict and write back."""
    l1_assoc = draw(st.sampled_from([1, 2, 4]))
    l1_sets = draw(st.sampled_from([1, 2, 4, 8]))
    return replace(MachineConfig.paper_default(),
                   l1_bytes=32 * l1_sets * l1_assoc, l1_assoc=l1_assoc,
                   l2_bytes=draw(st.sampled_from([2, 4, 8])) * 1024,
                   l2_assoc=draw(st.sampled_from([2, 4])))


@st.composite
def traces(draw):
    span = draw(st.sampled_from([1 << 9, 1 << 13, 1 << 17, 1 << 64]))
    n = draw(st.integers(0, 300))
    addresses = draw(st.lists(st.integers(0, span - 1), min_size=n,
                              max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return make_trace(addresses, writes,
                      mlp=draw(st.sampled_from([1.0, 1.5, 2.7, 16.0])))


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(config=machines(), trace=traces(),
           warmup=st.sampled_from([0.0, 0.3, 0.5]))
    def test_random_machines_and_traces(self, config, trace, warmup):
        for scheme in FLAT_SCHEMES:
            assert_matches_reference(trace, scheme, config, warmup)

    @pytest.mark.parametrize("workload", all_workload_names())
    def test_every_workload(self, workload):
        trace = get_workload(workload).trace(scale=0.05, seed=0)
        for scheme in FLAT_SCHEMES:
            assert_matches_reference(trace, scheme)

    def test_warmup_and_blocks_that_do_not_line_up(self, monkeypatch):
        monkeypatch.setattr(fastpath, "BLOCK", 777)
        trace = get_workload("tree").trace(scale=0.05, seed=1)
        for scheme in FLAT_SCHEMES:
            assert_matches_reference(trace, scheme, warmup_fraction=0.3)

    @pytest.mark.parametrize("addresses", [[], [4096]])
    def test_empty_and_one_access_traces(self, addresses):
        trace = make_trace(addresses, [True] * len(addresses))
        for scheme in FLAT_SCHEMES:
            assert_matches_reference(trace, scheme)
            assert_matches_reference(trace, scheme, warmup_fraction=0.5)

    @pytest.mark.parametrize("warmup", [-0.1, 1.0, 1.5])
    def test_warmup_outside_unit_interval_rejected_alike(self, warmup):
        trace = make_trace([0, 64])
        with pytest.raises(ValueError) as flat:
            simulate_scheme(trace, "pmod", warmup_fraction=warmup)
        with pytest.raises(ValueError) as ref:
            reference(trace, "pmod", warmup_fraction=warmup)
        assert str(flat.value) == str(ref.value)


class TestDispatch:
    """No flag picks the path: the hierarchy ``build_hierarchy`` returns
    does.  With ``CacheHierarchy.access`` broken, only the reference
    loop can fail."""

    TRACE = make_trace([0, 64, 4096])

    @pytest.fixture(autouse=True)
    def broken_hierarchy(self, monkeypatch):
        def refuse(self, byte_address, is_write=False):
            raise RuntimeError("CacheHierarchy.access called")
        monkeypatch.setattr(CacheHierarchy, "access", refuse)

    @pytest.mark.parametrize("scheme", FLAT_SCHEMES)
    def test_lru_l2_takes_the_flat_path(self, scheme):
        assert simulate_scheme(self.TRACE, scheme).l2_misses == 3

    @pytest.mark.parametrize("scheme", ["skw", "skw+pdisp", "fa"])
    def test_other_l2_takes_the_reference(self, scheme):
        with pytest.raises(RuntimeError, match="CacheHierarchy.access"):
            simulate_scheme(self.TRACE, scheme)


class TestUnchargedFill:
    """A dirty L1 victim that misses the L2 is write-allocated there, and
    the hierarchy lists that fill in ``memory_reads``.  ``Simulator.run``
    services ``memory_reads`` only when the demand access misses the L2
    too, so with a demand hit the fill never reaches the DRAM.  Both
    paths keep that rule; changing it would move every Figure 7 bar."""

    # 1-way L1 with 2 sets, 2-way L2 with 2 sets, both traditional.
    CONFIG = replace(MachineConfig.paper_default(), l1_bytes=64, l1_assoc=1,
                     l2_bytes=256, l2_assoc=2)
    # 0 dirties L1 block 0; 160 and 288 push L2 block 0 out of the L2;
    # 256 evicts the dirty L1 block 0, whose write-allocate misses the
    # L2, while 256's own L2 block (4) hits.
    ACCESSES = [(0, True), (160, False), (288, False), (256, False)]

    def test_outcome_lists_the_fill_of_an_l2_hit(self):
        hierarchy = build_hierarchy("base", self.CONFIG)
        outcomes = [hierarchy.access(a, w) for a, w in self.ACCESSES]
        assert [o.level for o in outcomes] == ["mem", "mem", "mem", "l2"]
        assert outcomes[-1].memory_reads == [0]

    @pytest.mark.parametrize("run", [reference, simulate_scheme])
    def test_three_dram_reads_not_four(self, run):
        trace = make_trace(*zip(*self.ACCESSES))
        result = run(trace, "base", self.CONFIG)
        assert (result.l2_accesses, result.l2_misses) == (5, 4)
        assert result.dram_row_hits + result.dram_row_misses == 3
