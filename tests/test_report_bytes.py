"""Pinned report bytes: a kernel change must not move a single scan output byte.

Each hash is the sha256 of the JSON that ``latslice scan ... --format json``
prints (``report_to_dict`` per trial).  The first four were recorded before
the symmetric half walk replaced the full walk in the enumeration kernel;
the three ``random:4`` main-chain pins, one per m, before ``verify_main``
took its translate counts from one labeled pass over K ∩ Z^d.
"""

import hashlib
import time

from latslice.cli import main

PINNED = {
    "scan main --body random:3 --m 2": "8733fed2e0d9a1554fad41392fe9d00d1a9bfb78e4ec879f6bfa13962cc00859",
    "scan unconditional --body random-unconditional:3": "1abff912e8ebdc57ea47e5b48a3b07c71216a5112efec6a5c5ea936a7c7fe0f7",
    "scan unconditional --body random-unconditional:4": "4e80474f45df322d88827c1606f399f988f2ae10c2c7cc1d267987a0f91e3ad4",
    "scan dim2 --body random-rational:2": "38a1273e3e01f114a8ac76af1f213c4e60affbb76d87acc2f49ef637d9d7e061",
    "scan main --body random:4 --m 1": "3bc977669e38f940d4deb13ca8a51f8b1a2fe0a293c669e73ce8fcc4653b73b6",
    "scan main --body random:4 --m 2": "38e306e8dcc3c8f32756d173d3c7b674bc7f99db1b714e5fa7a37606c1289354",
    "scan main --body random:4 --m 3": "0ebe1aae92fe0384306de0404a8b1684e194b44623d3ebe369a99af481f122c4",
}


def test_scan_report_bytes_are_pinned(capsys):
    start = time.perf_counter()
    got = {}
    for command in PINNED:
        code = main(command.split() + ["--trials", "6", "--seed", "0", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, command
        got[command] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED
    assert time.perf_counter() - start < 15
