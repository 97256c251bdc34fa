"""Pin the output of ``tests/residual_dump.py``: every residual and derived
tensor the library computes on its fixed inputs, byte for byte.

A change that is meant to alter that output must update the pin below,
and say so where it records its test changes."""

import hashlib
import os
import subprocess
import sys

DUMP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "residual_dump.py")
PINNED_MD5 = "00b79ae0544562ad027902abab284cdf"
PINNED_LINES = 21112


def test_residual_dump_is_byte_identical_to_the_pin():
    out = subprocess.run([sys.executable, DUMP], capture_output=True, check=True,
                         timeout=300).stdout
    assert (hashlib.md5(out).hexdigest(), out.count(b"\n")) == (PINNED_MD5, PINNED_LINES)
