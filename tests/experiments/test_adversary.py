"""The adversary experiment: contract checks, registration, render."""

import copy
import json

import pytest

from repro.engine import all_experiment_names, get_experiment
from repro.experiments import adversary


@pytest.fixture(scope="module")
def data():
    """One scaled-down sweep shared by the assertions (a 10-bit key
    universe keeps each crack subsecond; the full-scale 16-bit run —
    where the >=5x probe factor holds — is the make adversary-check
    gate, not a unit test)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "KEY_BITS", 10)
        patch.setattr(adversary, "CRACK_KEYS", 64)
        patch.setattr(adversary, "HOSTILE_REQUESTS", 1500)
        payload = adversary.run(seed=0)
    payload["checks"] = adversary.adversary_checks(payload)
    return payload


class TestAttackCurve:
    def test_linear_schemes_fall_to_exact_gf2(self, data):
        for scheme in ("traditional", "xor"):
            crack = data["attacks"][scheme]["crack"]
            assert crack["method"] == "gf2"
            assert crack["verified"] and crack["accuracy"] == 1.0

    def test_prime_schemes_force_bucketing(self, data):
        for scheme in ("pmod", "pdisp", "keyed"):
            crack = data["attacks"][scheme]["crack"]
            assert crack["method"] == "bucketing"
            assert not crack["verified"]

    def test_prime_probe_bill_exceeds_linear_even_at_small_scale(
            self, data):
        attacks = data["attacks"]
        linear_max = max(attacks["traditional"]["crack"]["probes"],
                         attacks["xor"]["crack"]["probes"])
        prime_min = min(attacks["pmod"]["crack"]["probes"],
                        attacks["pdisp"]["crack"]["probes"])
        assert prime_min > linear_max

    def test_hostile_replay_pins_one_shard(self, data):
        for scheme, cell in data["attacks"].items():
            assert cell["hostile"]["tail_load"] >= 4.0, scheme

    def test_probe_phases_are_journaled(self, data):
        for scheme, cell in data["attacks"].items():
            phases = [p["phase"] for p in cell["probe_phases"]]
            assert phases[0] == "reps", scheme
            assert "solve" in phases, scheme


class TestDefenseDrill:
    def test_rotation_arm_pages_rotates_and_mitigates(self, data):
        on = data["defense"]["rotation_on"]
        assert on["rounds_to_page"] is not None
        assert on["rounds_to_rotation"] is not None
        assert on["rotations"] >= 1
        assert on["mitigated_events"]
        assert on["final_epoch"] >= 1
        assert on["zero_loss"]["lost"] == 0

    def test_rotation_events_carry_fingerprints_only(self, data):
        for event in data["defense"]["rotation_on"]["rotation_events"]:
            assert len(event["key_fingerprint"]) == 8
            assert "key" not in event

    def test_no_rotation_arm_stays_pinned(self, data):
        off = data["defense"]["rotation_off"]
        assert off["rotations"] == 0
        assert off["page_after_flood"]
        assert off["tail_after_flood"] >= 4.0
        assert off["final_epoch"] == 0
        assert off["mitigated_events"] == []

    def test_every_non_factor_check_holds_at_small_scale(self, data):
        # The two >=5x probe-factor checks need the full-scale key
        # universe (the gate's geometry); everything else must hold
        # even on this scaled-down drill.
        scale_free = {name: ok for name, ok in data["checks"].items()
                      if not name.endswith("_probe_factor")}
        assert all(scale_free.values()), [
            name for name, ok in scale_free.items() if not ok]

    def test_payload_is_json_serializable(self, data):
        assert json.loads(json.dumps(data)) == data


class TestChecksLogic:
    def test_probe_factor_check_flips_on_cheap_primes(self, data):
        tampered = copy.deepcopy(data)
        tampered["attacks"]["pmod"]["crack"]["probes"] = 10**6
        tampered["attacks"]["pdisp"]["crack"]["probes"] = 10**6
        tampered["attacks"]["keyed"]["crack"]["probes"] = 10**6
        checks = adversary.adversary_checks(tampered)
        assert checks["prime_probe_factor"]
        assert checks["keyed_probe_factor"]
        tampered["attacks"]["pdisp"]["crack"]["probes"] = (
            tampered["attacks"]["xor"]["crack"]["probes"])
        assert not adversary.adversary_checks(
            tampered)["prime_probe_factor"]

    def test_lost_key_flips_the_zero_loss_check(self, data):
        tampered = copy.deepcopy(data)
        tampered["defense"]["rotation_on"]["zero_loss"]["lost"] = 2
        assert not adversary.adversary_checks(
            tampered)["rotation_zero_key_loss"]

    def test_missed_mitigation_flips_its_check(self, data):
        tampered = copy.deepcopy(data)
        tampered["defense"]["rotation_on"]["mitigated_events"] = []
        assert not adversary.adversary_checks(
            tampered)["mitigation_journaled"]

    def test_surviving_page_flips_the_green_check(self, data):
        tampered = copy.deepcopy(data)
        tampered["defense"]["rotation_on"]["page_active_at_end"] = True
        assert not adversary.adversary_checks(
            tampered)["post_rotation_green"]

    def test_off_arm_rotating_flips_the_pinned_check(self, data):
        tampered = copy.deepcopy(data)
        tampered["defense"]["rotation_off"]["final_epoch"] = 1
        assert not adversary.adversary_checks(
            tampered)["no_rotation_stays_pinned"]


class TestRender:
    def test_render_surfaces_the_verdict(self, data):
        text = adversary.render(data)
        assert "Attack-success-vs-scheme" in text
        assert "Prime probe factor" in text
        assert "Without rotation" in text
        for scheme in adversary.DEFAULT_SCHEMES:
            assert scheme in text


class TestRegistration:
    def test_adversary_is_a_registered_experiment(self):
        assert "adversary" in all_experiment_names()
        spec = get_experiment("adversary")
        assert spec.uses_simulation is False
        assert spec.render is not None
