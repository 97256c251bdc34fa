"""The mutant table of ``tests/mutants.py``, checked without running a
mutant: every entry can be applied, and every witness is a test."""

import glob
import os
import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_exactly_once_in_src():
    sources = {}
    for path in glob.glob(os.path.join(ROOT, "src", "hlsb", "*.py")):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.file in sources and m.old != m.new and 1 <= len(m.witnesses) <= 2, m.name
        assert [sources[m.file].count(m.old), sum(s.count(m.old) for s in sources.values())] \
            == [1, 1], m.name


def test_every_witness_names_a_collected_test():
    witnesses = sorted({w for m in MUTANTS for w in m.witnesses})
    files = sorted({w.split("::")[0] for w in witnesses})
    out = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", *files],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    collected = out.stdout.splitlines()
    for w in witnesses:
        assert any(line == w or line.startswith(w + "[") for line in collected), w
