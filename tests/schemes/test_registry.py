"""Scheme registry tests."""

from __future__ import annotations

import pytest

from repro import registry
from repro.crypto.pads import Blake2PadSource
from repro.schemes import SCHEME_NAMES, make_scheme

KEY = b"registry-test-16"


def requires_pads(name: str) -> bool:
    return registry.SCHEMES.get(name).factory.requires_pads


class TestRegistry:
    def test_every_name_constructs(self):
        pads = Blake2PadSource(KEY)
        for name in SCHEME_NAMES:
            scheme = make_scheme(name, pads)
            assert scheme.name == name
            assert scheme.line_bytes == 64

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_scheme("rot13", Blake2PadSource(KEY))

    def test_encrypted_schemes_require_pads(self):
        for name in filter(requires_pads, SCHEME_NAMES):
            with pytest.raises(ValueError, match="requires a pad source"):
                make_scheme(name, None)

    def test_plain_schemes_need_no_pads(self):
        for name in ("noencr-dcw", "noencr-fnw"):
            assert make_scheme(name, None).name == name

    def test_invmm_is_registered_and_encrypted(self):
        assert "invmm" in SCHEME_NAMES
        assert requires_pads("invmm")

    def test_table3_overheads_via_registry(self):
        """The storage-overhead column of Table 3, from the registry."""
        pads = Blake2PadSource(KEY)
        expected = {
            "noencr-dcw": 0,
            "noencr-fnw": 32,
            "encr-dcw": 0,
            "encr-fnw": 32,
            "deuce": 32,
            "dyndeuce": 33,
            "deuce+fnw": 64,
            "ble": 0,
            "ble+deuce": 32,
            "invmm": 1,
        }
        for name, bits in expected.items():
            assert make_scheme(name, pads).metadata_bits_per_line == bits, name

    def test_geometry_parameters_forwarded(self):
        pads = Blake2PadSource(KEY)
        scheme = make_scheme(
            "deuce", pads, line_bytes=32, word_bytes=4, epoch_interval=8
        )
        assert scheme.line_bytes == 32
        assert scheme.word_bytes == 4
        assert scheme.epoch_interval == 8
