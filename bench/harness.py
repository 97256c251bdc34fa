"""Running passes, checking every outcome, and the numbers taken from them.

An operation is either a *verdict* (one structure checked, one d1 o d0
sample, one CLI invocation) or a *step* that prepares verdicts (building
variants, instantiating them).  Both are compared with their expected
outcome; only verdicts count in the latency and rate metrics.

Outcomes are short strings: ``pass``, ``fail:<axiom>,<axiom>`` (sorted),
``raises:<ExceptionName>``, and for the command line the exit code followed
by what its output says (``0 pass``, ``1 fail:<axioms>``, ``0 result: PASS``)
or the bare code.
"""

import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Operations whose expected outcome the program is known not to meet yet.
# They stay in the workloads and count as failed; they do not make the
# run incorrect.  Any other mismatch does.
KNOWN_DEFECTS = {
    "cli:check-deep-nesting":
        "a scalar nested 5000 parentheses deep raises RecursionError; the "
        "CLI prints a traceback and exits 1 instead of 2",
}


def report_outcome(report):
    if report.passed:
        return "pass"
    return "fail:" + ",".join(sorted(set(report.axioms_violated())))


class Gate:
    """Every operation's expected and observed outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = {}  # name -> [expected, observed, note, times]

    def record(self, name, expected, observed, note=""):
        self.attempted += 1
        if observed == expected:
            return
        self.failed += 1
        entry = self.mismatches.setdefault(name, [expected, observed, note, 0])
        entry[3] += 1

    @property
    def correct(self):
        return all(name in KNOWN_DEFECTS for name in self.mismatches)

    def lines(self):
        out = []
        for name, (expected, observed, note, times) in sorted(
                self.mismatches.items()):
            known = " [known defect]" if name in KNOWN_DEFECTS else ""
            line = "%s: expected %s, observed %s (%d time(s))%s" % (
                name, expected, observed, times, known)
            if note:
                line += " -- " + note
            out.append(line)
        return out


# The reference loop: a product of two polynomials stored as
# {exponent tuple: Fraction}, the same kind of work as hlsb's scalar
# arithmetic.  It is fixed code, so its time measures only how fast the
# machine runs at that moment, which on a shared machine changes by half
# within seconds.  Every time the benchmark reports is scaled by
# REFERENCE_S / (the loop's time around it): "normalized seconds" are
# seconds at the speed where the loop takes REFERENCE_S.
REFERENCE_S = 0.002
CALIBRATE_EVERY_S = 0.2


def _reference_loop():
    p = {(i, 0, 1): Fraction(i + 1, 3) for i in range(6)}
    q = {(0, j, 1): Fraction(2, j + 1) for j in range(6)}
    for _ in range(8):
        r = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = r.get(e, 0) + c1 * c2
                if s:
                    r[e] = s
                else:
                    r.pop(e, None)
    return r


def reference_time():
    """Seconds of one reference loop, the faster of two tries."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        _reference_loop()
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def normalized(seconds, before, after):
    """*seconds* of work between two reference times, normalized."""
    return seconds * 2 * REFERENCE_S / (before + after)


class Pass:
    """One pass over a workload's inputs.

    The reference loop runs at the start, before an operation when at
    least CALIBRATE_EVERY_S have passed since it last ran, and at the end;
    each operation's time is normalized by the two reference times around
    it.  :meth:`finish` fills ``verdicts`` with (name, normalized seconds,
    dimension) and sets ``scale``, the pass's normalized over raw time."""

    def __init__(self, gate, tracer=None):
        self.gate = gate
        self.tracer = tracer
        self.verdicts = []
        self.scale = 1.0
        self.calibration_s = 0.0
        self._ops = []  # (name, raw seconds, calibration index, dim or None)
        self._refs = []
        self._last = 0.0
        self._op_count = 0
        # filled by workloads that run child processes
        self.child_cpu = 0.0
        self.child_rss_mb = 0.0
        self.child_walls = []
        self.bytes_in = 0
        self.bytes_out = 0
        self._checks = []  # (name, fn) run by run_checks, untimed
        self._calibrate()

    def _calibrate(self):
        t0 = time.perf_counter()
        self._refs.append(reference_time())
        self._last = time.perf_counter()
        self.calibration_s += self._last - t0

    def _start(self):
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self._calibrate()
        if self.tracer is not None:
            self.tracer.op = self._op_count
        self._op_count += 1

    def _timed(self, fn):
        t0 = time.perf_counter()
        try:
            return fn(), None, time.perf_counter() - t0
        except Exception as exc:  # every failure is an outcome to compare
            return None, exc, time.perf_counter() - t0

    def verdict(self, name, expected, fn, dim=0):
        """Run ``fn() -> outcome`` and time it."""
        self._start()
        observed, exc, seconds = self._timed(fn)
        note = ""
        if exc is not None:
            observed = "raises:" + type(exc).__name__
        elif isinstance(observed, tuple):
            observed, note = observed
        self._ops.append((name, seconds, len(self._refs) - 1, dim))
        self.gate.record(name, expected, observed, note)

    def step(self, name, fn):
        """Run ``fn() -> value``; an exception is a failed operation and
        the step returns None."""
        self._start()
        value, exc, seconds = self._timed(fn)
        self._ops.append((name, seconds, len(self._refs) - 1, None))
        if exc is not None:
            self.gate.record(name, "ok", "raises:" + type(exc).__name__)
            return None
        self.gate.record(name, "ok", "ok")
        return value

    def check_after(self, name, fn):
        """Queue ``fn()``, a check of the pass's output, to run by
        :meth:`run_checks` once the pass has been timed; an exception is a
        failed operation."""
        self._checks.append((name, fn))

    def run_checks(self):
        for name, fn in self._checks:
            try:
                fn()
                observed = "ok"
            except Exception as exc:  # every failure is an outcome to compare
                observed = "raises:" + type(exc).__name__
            self.gate.record(name, "ok", observed)

    def expect(self, name, expected, observed):
        """Record a whole-pass invariant, such as the number of variants."""
        self.gate.record(name, expected, observed)

    def finish(self):
        self._calibrate()
        raw = norm = 0.0
        for name, seconds, k, dim in self._ops:
            scaled = normalized(seconds, self._refs[k], self._refs[k + 1])
            raw += seconds
            norm += scaled
            if dim is not None:
                self.verdicts.append((name, scaled, dim))
        if raw:
            self.scale = norm / raw

    def largest_dim_seconds(self):
        """Mean verdict time at the largest dimension in the pass."""
        top = max(dim for _, _, dim in self.verdicts)
        times = [s for _, s, dim in self.verdicts if dim == top]
        return sum(times) / len(times)


def run_passes(workload, gate, seconds, tracer=None):
    """Run passes until *seconds* have elapsed (at least one).  Returns a
    list of (pass, wall seconds, cpu seconds), normalized and without the
    reference loops; the CPU time is this process's, or its children's
    for a workload that runs children.  Checks queued with
    :meth:`Pass.check_after` run after the pass's times are taken."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        p = Pass(gate, tracer)
        workload.run_pass(p)
        p.finish()
        wall = time.perf_counter() - t0 - p.calibration_s
        if workload.children:
            cpu = p.child_cpu * p.scale
        else:
            cpu = (time.process_time() - cpu0 - p.calibration_s) * p.scale
        p.run_checks()
        out.append((p, wall * p.scale, cpu))
    return out


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest of p50, p90, p99, p99.9 with at least ten of *n*
    samples beyond it, or None."""
    best = None
    for q in (50, 90, 99, 99.9):
        if n * (1 - q / 100.0) >= 10:
            best = q
    return best


def median(values):
    return statistics.median(values)


class ChildResult:
    def __init__(self, code, wall, cpu, maxrss_mb, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv, scratch, env=None, timeout=120.0):
    """Run one child process to completion and return its exit code, wall
    time, CPU time and peak RSS, read from the child's own rusage.  Output
    goes through files under *scratch*."""
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    ready = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                os.close(fd)
        finally:
            if not ready:
                proc.kill()
            # wait4, not Popen.wait, because it returns the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
    cpu = usage.ru_utime + usage.ru_stime
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    code = proc.returncode if ready else "timeout"
    return ChildResult(code, wall, cpu, usage.ru_maxrss / 1024.0, stdout,
                       stderr)


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root, seed, passes, overhead):
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "hlsb")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "passes": passes,
        "trace.overhead_frac": overhead,
        "loadavg": list(os.getloadavg()),
        "method": "own-process timers (perf_counter, process_time) and "
                  "rusage of this process and its children only; no "
                  "system-wide tracing, no cache dropping",
    }
