"""KeyRotator: fresh secrets through the epoch migration, zero key loss."""

import pytest

from repro.control import KeyRotator, key_fingerprint
from repro.obs import Journal, MetricsRegistry
from repro.store import ShardedStore


def keyed_store(scheme="keyed_pdisp", n_shards=16, n_keys=150):
    """A keyed store pre-loaded with ``n_keys`` addressable records."""
    store = ShardedStore(n_shards, scheme, shard_capacity=512, assoc=16)
    for i in range(n_keys):
        store.put(i * 1009 + 3, f"value-{i}")
    return store


FLEETS = [
    ("keyed_pdisp", 16),  # power-of-two fleet, secret displacement
    ("keyed", 61),        # exact-prime fleet, Mersenne hash
]


class TestRotation:
    @pytest.mark.parametrize("scheme,n_shards", FLEETS)
    def test_zero_key_loss_through_migration(self, scheme, n_shards):
        """Rotation re-routes every resident key under the new secret:
        nothing is lost, the epoch advances, geometry is unchanged."""
        store = keyed_store(scheme, n_shards)
        old_key = store.routing.indexing.key
        report = KeyRotator(store, seed=0, journal=Journal(),
                            registry=MetricsRegistry()).rotate()

        assert store.epoch == 1 and report["epoch"] == 1
        assert not store.migrating
        assert store.scheme == scheme
        assert store.n_shards == n_shards
        assert store.routing.indexing.key != old_key
        for i in range(150):
            assert store.get(i * 1009 + 3) == f"value-{i}"

    def test_repeated_rotations_keep_every_key(self):
        store = keyed_store()
        rotator = KeyRotator(store, seed=7, journal=Journal(),
                             registry=MetricsRegistry())
        for expected_epoch in (1, 2, 3):
            rotator.rotate()
            assert store.epoch == expected_epoch
        assert rotator.rotations == 3
        assert all(store.contains(i * 1009 + 3) for i in range(150))

    def test_deterministic_key_sequence_per_seed(self):
        """Two rotators with one seed mint identical secret sequences —
        attack/defense drills replay exactly."""
        runs = []
        for _ in range(2):
            store = keyed_store(n_keys=10)
            rotator = KeyRotator(store, seed=42, journal=Journal(),
                                 registry=MetricsRegistry())
            runs.append([rotator.rotate()["key_fingerprint"]
                         for _ in range(3)])
        assert runs[0] == runs[1]
        assert len(set(runs[0])) == 3  # and the sequence never repeats


class TestJournal:
    def test_rotation_event_carries_fingerprint_not_secret(self):
        store = keyed_store(n_keys=20)
        journal = Journal().enable()
        KeyRotator(store, seed=0, journal=journal,
                   registry=MetricsRegistry()).rotate(reason="drill")

        (event,) = journal.find("control.key_rotation")
        assert event.fields["scheme"] == "keyed_pdisp"
        assert event.fields["epoch"] == 1
        assert event.fields["reason"] == "drill"
        assert event.fields["moved"] >= 0
        fingerprint = event.fields["key_fingerprint"]
        assert fingerprint == key_fingerprint(store.routing.indexing.key)
        assert len(fingerprint) == 8  # 4-byte digest, hex
        # The raw 64-bit secret appears nowhere in the payload.
        assert str(store.routing.indexing.key) not in str(event.fields)

    def test_rotation_counter_increments(self):
        store = keyed_store(n_keys=20)
        registry = MetricsRegistry().enable()
        KeyRotator(store, seed=0, journal=Journal(),
                   registry=registry).rotate()
        assert registry.counter("control.key_rotations").value == 1


class TestValidation:
    @pytest.mark.parametrize("scheme", ["traditional", "xor", "pmod",
                                        "pdisp"])
    def test_rejects_unkeyed_schemes_at_construction(self, scheme):
        store = ShardedStore(n_shards=16, scheme=scheme, shard_capacity=64)
        with pytest.raises(ValueError, match="not keyed"):
            KeyRotator(store)


class TestFingerprint:
    def test_stable_and_short(self):
        assert key_fingerprint(123) == key_fingerprint(123)
        assert key_fingerprint(123) != key_fingerprint(124)
        assert len(key_fingerprint(2**64 - 1)) == 8
