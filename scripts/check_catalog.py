#!/usr/bin/env python3
"""Run every variant of the benchmark catalog (perfbench/catalog.json) and
compare each stdout with its committed reference: exact tables by SHA-256
digest, so they stay byte-identical, and every other subcommand field by
field within the tolerance the library states for it.  Exit 0 when all
match, 1 otherwise.

Each variant's line also gives the peak resident memory of its process
(ru_maxrss from os.wait4), and the last lines the largest peak per
subcommand, so a log shows the memory of every input.  The peaks are
reported only; they never fail a variant.

The comparison is the benchmark's own output check (perfbench/checks.py):
a non-zero exit, a traceback, a refusal line or an output off its
reference fails the variant.  So does any write to stderr: every variant
is silent when it works, and a float warning there (numpy's overflow
RuntimeWarning, say) means a value went non-finite on the way.

Example, from the root of a checkout:
    python scripts/check_catalog.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402  (perfbench/checks.py, found through the path above)


def run_variant(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, float]:
    """Exit code, stdout, stderr and peak RSS in MiB of one divpart process."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "divpart", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        # reap it here rather than through Popen, for its resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


def main() -> int:
    refs = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))["refs"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = 0
    variants = sorted(refs)
    peaks: dict[str, float] = {}  # subcommand -> largest peak RSS
    for key in variants:
        argv = key.split()
        code, stdout, stderr, peak = run_variant(argv, env)
        problem = checks.check(argv, code, stdout, stderr, refs[key])
        if problem is None and stderr:
            problem = "wrote to stderr: " + stderr.decode(errors="replace").strip()[:200]
        failed += problem is not None
        peaks[argv[0]] = max(peak, peaks.get(argv[0], 0.0))
        print(f"{'FAIL' if problem else 'ok'}  {key}  [peak {peak:.1f} MiB]"
              + (f": {problem}" if problem else ""), flush=True)
    for sub, peak in sorted(peaks.items()):
        print(f"peak RSS {sub}: {peak:.1f} MiB")
    print(f"{len(variants) - failed}/{len(variants)} catalog variants match")
    return 1 if failed or not variants else 0


if __name__ == "__main__":
    sys.exit(main())
