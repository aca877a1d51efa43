"""SecureMemoryController facade tests."""

from __future__ import annotations

import pytest

from repro.memory.controller import SecureMemoryController
from tests.conftest import mutate_words, random_line

KEY = b"controller-key16"


@pytest.fixture
def controller():
    return SecureMemoryController(scheme="deuce", key=KEY, wear_leveling="hwl")


class TestDataPath:
    def test_install_on_first_touch(self, controller):
        data = bytes(64)
        assert controller.write(0x100, data) is None  # install
        assert controller.stats.installs == 1
        assert controller.stats.writes == 0

    def test_read_returns_written_data(self, controller, rng):
        data = random_line(rng)
        controller.write(0x100, data)
        assert controller.read(0x100) == data

    def test_writeback_returns_outcome(self, controller, rng):
        data = random_line(rng)
        controller.write(0x100, data)
        new = mutate_words(rng, data, 2)
        outcome = controller.write(0x100, new)
        assert outcome is not None
        assert outcome.total_flips > 0
        assert controller.read(0x100) == new

    def test_many_lines_round_trip(self, controller, rng):
        contents = {}
        for i in range(20):
            data = random_line(rng)
            controller.write(i * 64, data)
            contents[i * 64] = data
        for addr, data in contents.items():
            assert controller.read(addr) == data

    def test_contains(self, controller):
        assert not controller.contains(0)
        controller.write(0, bytes(64))
        assert controller.contains(0)


class TestStats:
    def test_flip_accounting(self, controller, rng):
        data = random_line(rng)
        controller.write(0, data)
        out = controller.write(0, mutate_words(rng, data, 1))
        assert controller.stats.total_flips == out.total_flips
        assert controller.stats.avg_flips_per_write == out.total_flips
        assert controller.stats.avg_slots_per_write >= 1

    def test_empty_stats(self, controller):
        assert controller.stats.avg_flips_per_write == 0.0
        assert controller.stats.avg_slots_per_write == 0.0


class TestWearAndLifetime:
    def test_lifetime_report_after_writes(self, rng):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, wear_leveling="hwl",
            region_lines=16, gap_write_interval=1,
        )
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(200):
            data = mutate_words(rng, data, 2)
            mc.write(0, data)
        report = mc.lifetime()
        assert report.normalized > 0
        assert report.perfect_leveling >= report.normalized * 0.99

    def test_wear_summary_counts(self, controller, rng):
        data = random_line(rng)
        controller.write(0, data)
        controller.write(0, mutate_words(rng, data, 1))
        assert controller.wear_summary().total_writes == 1


class TestConfiguration:
    def test_unencrypted_scheme_needs_no_key(self):
        mc = SecureMemoryController(scheme="noencr-dcw", wear_leveling="none")
        mc.write(0, bytes(64))
        assert mc.read(0) == bytes(64)

    def test_encrypted_scheme_requires_key(self):
        with pytest.raises(ValueError, match="needs a non-empty key"):
            SecureMemoryController(scheme="deuce")

    def test_unknown_wear_leveling(self):
        with pytest.raises(ValueError, match="wear_leveling"):
            SecureMemoryController(
                scheme="noencr-dcw", wear_leveling="magic"
            )

    def test_aes_pad_kind(self, rng):
        mc = SecureMemoryController(scheme="deuce", key=KEY, pad_kind="aes")
        data = random_line(rng)
        mc.write(0, data)
        new = mutate_words(rng, data, 1)
        mc.write(0, new)
        assert mc.read(0) == new

    def test_unknown_scheme_suggests_a_name(self):
        with pytest.raises(ValueError, match="did you mean 'deuce'"):
            SecureMemoryController(scheme="duece", key=KEY)

    def test_security_refresh_hwl_mode(self, rng):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, wear_leveling="sr-hwl",
            region_lines=16, gap_write_interval=1,
        )
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(50):
            data = mutate_words(rng, data, 1)
            mc.write(0, data)
        assert mc.read(0) == data
        assert mc.wear_summary().total_writes == 50

    def test_counter_bits_needs_an_encrypting_scheme(self):
        with pytest.raises(ValueError, match="counter_bits.*'noencr-dcw'"):
            SecureMemoryController(
                scheme="noencr-dcw", wear_leveling="none", counter_bits=2
            )

    def test_zero_region_lines_without_leveling(self):
        with pytest.raises(ValueError, match="region_lines"):
            SecureMemoryController(
                scheme="noencr-dcw", wear_leveling="none", region_lines=0
            )

    def test_zero_region_lines_with_hwl(self):
        with pytest.raises(ValueError, match="region_lines"):
            SecureMemoryController(
                scheme="noencr-dcw", wear_leveling="hwl", region_lines=0
            )

    def test_sr_hwl_region_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="region_lines=12.*power of two"):
            SecureMemoryController(
                scheme="noencr-dcw", wear_leveling="sr-hwl", region_lines=12
            )

    def test_hashed_hwl_mode(self, rng):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, wear_leveling="hwl-hashed"
        )
        data = random_line(rng)
        mc.write(0, data)
        mc.write(0, mutate_words(rng, data, 1))
        assert mc.wear_summary().total_writes == 1


class TestIntegrityProtection:
    def test_honest_operation_verifies(self, rng):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, integrity=True, region_lines=64
        )
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(10):
            data = mutate_words(rng, data, 2)
            mc.write(0, data)
            assert mc.read(0) == data
        assert mc.stats.integrity_checks == 10

    def test_counter_reset_attack_detected(self, rng):
        from repro.security.merkle import IntegrityError

        mc = SecureMemoryController(
            scheme="deuce", key=KEY, integrity=True, region_lines=64
        )
        data = random_line(rng)
        mc.write(0, data)
        mc.write(0, mutate_words(rng, data, 1))
        # Adversary resets the counter stored in the (untrusted) array.
        mc.scheme.table.counters[mc.scheme.table.row(0)] = 0
        import pytest as _pytest

        with _pytest.raises(IntegrityError, match="does not match"):
            mc.read(0)

    def test_tree_capacity_enforced(self, rng):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, integrity=True, region_lines=2
        )
        mc.write(0, bytes(64))
        mc.write(64, bytes(64))
        import pytest as _pytest

        with _pytest.raises(ValueError, match="integrity tree is full"):
            mc.write(128, bytes(64))

    def test_failed_read_takes_no_leaf(self):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, integrity=True, region_lines=2
        )
        for _ in range(2):
            with pytest.raises(KeyError, match="0x40"):
                mc.read(64)
        mc.write(0, bytes(64))
        mc.write(64, bytes(64))
        assert mc.read(64) == bytes(64)
        assert mc.stats.reads == 1


class TestAttackDetection:
    def test_hammering_raises_flag_and_throttles(self, rng):
        mc = SecureMemoryController(
            scheme="deuce", key=KEY, attack_detection=True,
            wear_leveling="none",
        )
        data = random_line(rng)
        mc.write(0, data)
        for _ in range(5000):
            data = mutate_words(rng, data, 1)
            mc.write(0, data)
        assert mc.under_attack
        assert mc.stats.throttle_slots > 0

    def test_detector_off_by_default(self, rng):
        mc = SecureMemoryController(scheme="deuce", key=KEY)
        data = random_line(rng)
        mc.write(0, data)
        mc.write(0, mutate_words(rng, data, 1))
        assert not mc.under_attack
        assert mc.stats.throttle_slots == 0
