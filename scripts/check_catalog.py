#!/usr/bin/env python3
"""Run every variant of the benchmark catalog (perfbench/catalog.json) and
compare each stdout with its committed reference: exact tables by SHA-256
digest, so they stay byte-identical, and every other subcommand field by
field within the tolerance the library states for it.  Exit 0 when all
match, 1 otherwise.

The comparison is the benchmark's own output check (perfbench/checks.py):
a non-zero exit, a traceback, a refusal line or an output off its
reference fails the variant.

Example, from the root of a checkout:
    python scripts/check_catalog.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402  (perfbench/checks.py, found through the path above)


def main() -> int:
    refs = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))["refs"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = 0
    variants = sorted(refs)
    for key in variants:
        argv = key.split()
        proc = subprocess.run([sys.executable, "-m", "divpart", *argv],
                              capture_output=True, env=env, cwd=ROOT, check=False)
        problem = checks.check(argv, proc.returncode, proc.stdout, proc.stderr, refs[key])
        failed += problem is not None
        print(f"{'FAIL' if problem else 'ok'}  {key}" + (f": {problem}" if problem else ""),
              flush=True)
    print(f"{len(variants) - failed}/{len(variants)} catalog variants match")
    return 1 if failed or not variants else 0


if __name__ == "__main__":
    sys.exit(main())
