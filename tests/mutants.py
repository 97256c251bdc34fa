"""Named source mutants, each with the tests that must kill it.

An entry names a module of ``src/hlsb``, the exact text to replace (it
must occur exactly once in ``src/``), its replacement and one or two
witness test ids.  Run from anywhere:

    python tests/mutants.py [NAME ...]

Each mutant (all of them, or those named) is applied alone to a
temporary copy of ``src/``, and its witnesses run with ``pytest -x`` and
``PYTHONPATH`` on that copy.  A mutant is killed when a witness fails or
cannot be imported, and survives when every witness passes.  The script
prints one line per mutant and the total time, appends the total to
``$GITHUB_STEP_SUMMARY`` when that is set, and exits 1 if any mutant
survives or cannot be run.  ``tests/test_mutants.py`` checks the table
without running a mutant.

The residual-dump pin is no witness: its script puts the checkout's own
``src`` first on ``sys.path``, so it never sees the copy.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name file old new witnesses")

_ACTIONS = "tests/test_constructions.py::test_action_and_form_violations_match_dense_oracle"
_AD = "tests/test_structures.py::test_ad_images_match_the_dense_oracle"
# pytest -x runs the witnesses in the order given: a hypothesis witness
# spends 8-14 s shrinking its counterexample, so a fixed-input test goes first
_POSITIVE = "tests/test_constructions.py::test_dual_pair_positive"
_DUAL = (_POSITIVE, "tests/test_constructions.py::test_dual_actions_match_the_dense_oracle")

MUTANTS = [
    Mutant("koszul_sign-always-plus", "superlinear.py",
           "return -1 if (p * q) % 2 else 1", "return 1",
           ("tests/test_constructions.py::"
            "test_representations_are_exactly_the_actions_with_a_valid_semidirect_product",)),
    Mutant("beside-alpha-on-own-slot", "structures.py",
           "for other in (o for o in range(t.rank) if o != s):", "for other in range(t.rank):",
           (_AD,)),
    Mutant("act_into-koszul-dropped", "structures.py",
           "sign ^= p[j]", "pass", (_AD,)),
    Mutant("act_into-suffix-ignored", "structures.py",
           "idx[s + 1:] + suffix)", "idx[s + 1:])", (_ACTIONS,)),
    Mutant("pair_sign-plain-as-koszul", "constructions.py",
           'if convention == "koszul":', 'if convention in ("koszul", "plain"):',
           ("tests/test_constructions.py::test_dual_pair_convention_must_match_the_dual",)),
    Mutant("dual_action-on_input-index-swapped", "constructions.py",
           "p[c if on_input else r]", "p[r if on_input else c]", _DUAL),
    Mutant("dual_action-negation-flipped", "constructions.py",
           "-v if koszul_sign(pm[m], p[c if on_input else r]) == 1 else v",
           "v if koszul_sign(pm[m], p[c if on_input else r]) == 1 else -v", _DUAL),
    Mutant("adjoint_defect-second-product-added", "constructions.py",
           "diff.mul(c, cols[m], True, suffix=x)", "diff.mul(c, cols[m], suffix=x)",
           (_POSITIVE, _ACTIONS)),
]


def _apply(mutant, src):
    """Replace the mutant's old text in its module under *src*."""
    path = os.path.join(src, "hlsb", mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError("%s: old text occurs %d times in %s, not once"
                         % (mutant.name, text.count(mutant.old), mutant.file))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(mutant):
    """'killed' or 'survived', after running the witnesses on a mutated
    copy of src/ (in a scratch working directory, so that no test
    database is written into the checkout)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        _apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import hlsb; print(hlsb.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(src):
            raise RuntimeError("%s: hlsb imports from %r, not from the mutated copy"
                               % (mutant.name, (where.stdout or where.stderr).strip()))
        witnesses = [os.path.join(ROOT, w) for w in mutant.witnesses]
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *witnesses],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    if done.returncode in (1, 2):  # a test failed, or a witness module failed to import
        return "killed"
    raise RuntimeError("%s: pytest exited %d\n%s" % (mutant.name, done.returncode, done.stdout))


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit("unknown mutants: %s" % ", ".join(sorted(unknown)))
    start, survivors = time.perf_counter(), []
    for mutant in chosen:
        t0 = time.perf_counter()
        verdict = run(mutant)
        print("%-40s %-8s %5.1f s" % (mutant.name, verdict, time.perf_counter() - t0), flush=True)
        if verdict == "survived":
            survivors.append(mutant.name)
    line = "mutants: %d killed, %d survived, %.1f s in total" % (
        len(chosen) - len(survivors), len(survivors), time.perf_counter() - start)
    print(line)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
