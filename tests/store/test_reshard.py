"""Dual-epoch ShardedStore: live resharding, migration, quarantine."""

import pytest

from repro.store import (
    DEFAULT_MOVE_BUDGET,
    Migrator,
    RoutingTable,
    ShardedStore,
)


def make_store(scheme="pmod", n_shards=61, **kwargs):
    kwargs.setdefault("shard_capacity", 256)
    kwargs.setdefault("assoc", 16)
    return ShardedStore(n_shards, scheme, **kwargs)


def populated(n_keys=500, **kwargs):
    store = make_store(**kwargs)
    for key in range(n_keys):
        store.put(key, key * 10)
    return store


class TestClassicSurface:
    def test_pow2_constructor_keeps_largest_prime_below(self):
        store = ShardedStore(n_shards=64, scheme="pmod")
        assert store.n_shards == 61
        assert store.epoch == 0
        assert not store.migrating

    def test_explicit_routing_overrides(self):
        store = make_store("pmod", 67)
        assert store.n_shards == 67

    def test_telemetry_carries_the_epoch(self):
        store = populated(50)
        assert store.telemetry().as_dict()["epoch"] == 0


class TestBeginCommit:
    def test_begin_requires_epoch_advance(self):
        store = make_store()
        with pytest.raises(ValueError, match="advance"):
            store.begin_reshard(RoutingTable.create("pmod", 67))  # epoch 0

    def test_double_begin_raises(self):
        store = make_store()
        store.begin_reshard(store.routing.grown())
        with pytest.raises(RuntimeError, match="in flight"):
            store.begin_reshard(store.routing.grown())

    def test_commit_without_begin_raises(self):
        with pytest.raises(RuntimeError, match="no reshard"):
            make_store().commit_reshard()

    def test_commit_reports_left_behind(self):
        store = populated(100)
        store.begin_reshard(store.routing.grown())
        assert store.commit_reshard() == 100  # nothing migrated


class TestDualEpochServing:
    def test_reads_fall_through_and_promote(self):
        store = populated(200)
        store.begin_reshard(store.routing.grown())
        backlog = store.migration_backlog()
        assert store.get(7) == 70  # served from the old epoch
        # Promotion moved the key: the old fleet shrank by one and a
        # second read no longer consults it.
        assert store.migration_backlog() == backlog - 1
        assert store.get(7) == 70

    def test_writes_land_on_the_new_epoch_only(self):
        store = populated(100)
        store.begin_reshard(store.routing.grown())
        store.put(5, "fresh")
        assert store.commit_reshard() == 99  # old copy of 5 was erased
        assert store.get(5) == "fresh"

    def test_len_and_contains_span_both_epochs(self):
        store = populated(100)
        store.begin_reshard(store.routing.grown())
        assert len(store) == 100
        assert store.contains(42)
        store.put(1000, "new-epoch")
        assert store.contains(1000)

    def test_migration_writer_wins_over_old_copy(self):
        store = populated(100)
        store.begin_reshard(store.routing.grown())
        store.put(7, "newer")  # races ahead of the migrator
        Migrator(store).run()
        assert store.get(7) == "newer"


class TestResurrectionRegression:
    """A key deleted during migration must stay dead (the PR's
    regression contract): neither the migrator nor a read may revive
    the old epoch's copy."""

    def test_delete_during_migration_cannot_resurrect(self):
        store = populated(300)
        store.begin_reshard(store.routing.grown())
        store.put(7, "rewritten")   # written during migration...
        assert store.delete(7)      # ...then deleted
        report = Migrator(store).run()
        assert report.left_behind == 0
        assert store.get(7) is None
        assert not store.contains(7)

    def test_delete_of_unmigrated_key_kills_the_old_copy(self):
        store = populated(300)
        store.begin_reshard(store.routing.grown())
        # Key 9 still lives only in the old epoch; the delete must
        # reach through, not just miss in the new fleet.
        assert store.delete(9)
        Migrator(store).run()
        assert store.get(9) is None


class TestMigrator:
    def test_bounded_chunks_drain_the_backlog(self):
        store = populated(500)
        store.begin_reshard(store.routing.grown())
        migrator = Migrator(store, budget=64)
        report = migrator.run()
        assert report.moved == 500
        assert report.left_behind == 0
        assert report.peak_in_flight <= 64
        assert max(report.chunk_sizes) <= 64
        assert not store.migrating
        # Every key survived with its value.
        assert all(store.get(k) == k * 10 for k in range(500))

    def test_step_is_a_noop_without_a_reshard(self):
        store = populated(10)
        assert Migrator(store).step() == 0

    def test_run_requires_a_reshard_in_flight(self):
        with pytest.raises(RuntimeError, match="no reshard"):
            Migrator(populated(10)).run()

    def test_max_chunks_commits_with_leftovers(self):
        store = populated(500)
        store.begin_reshard(store.routing.grown())
        report = Migrator(store, budget=50).run(max_chunks=2)
        assert report.moved == 100
        assert report.left_behind == 400
        assert not store.migrating

    def test_default_budget_is_the_module_default(self):
        assert Migrator(make_store()).budget == DEFAULT_MOVE_BUDGET

    def test_scheme_swap_migrates_across_selectors(self):
        store = populated(400, scheme="traditional", n_shards=64)
        store.begin_reshard(store.routing.reschemed("pmod"))
        report = Migrator(store).run()
        assert store.scheme == "pmod"
        assert report.left_behind == 0
        assert all(store.get(k) == k * 10 for k in range(400))


class TestQuarantine:
    def test_quarantine_reroutes_and_heal_restores(self):
        store = populated(200)
        target = store.shard_for(0)
        table = store.quarantine([target])
        assert table.epoch_id == 1
        assert store.shard_for(0) != target
        healed = store.heal()
        assert healed.quarantined == frozenset()
        assert store.shard_for(0) == target

    def test_resident_keys_become_misses_not_errors(self):
        store = populated(200)
        victim = store.shard_for(3)
        store.quarantine([victim])
        # Key 3's shard is fenced off; the store still serves (a miss).
        assert store.get(3, default="miss") in ("miss", 30)
        store.put(3, "rerouted")
        assert store.get(3) == "rerouted"

    def test_quarantine_noop_keeps_epoch(self):
        store = populated(10)
        store.quarantine([2])
        epoch = store.epoch
        store.quarantine([2])  # already quarantined
        assert store.epoch == epoch
