"""The job catalog: every CLI input the benchmark may run, with its
reference output, and the seeded draw of one workload's job list.

A workload is a list of slots.  A slot is a cost class (one subcommand at
one input size); its variants differ in inputs but cost about the same, so
the seed changes which inputs run and in what order without changing how
much work a job list holds.  That keeps the spread across seeds a
measurement of noise, not of the draw.

Regenerate the references from the current code with

    PYTHONPATH=src python3 perfbench/catalog.py --write

which runs every variant once and rewrites ``catalog.json``.  Only do that
when an output is meant to change; the benchmark itself only reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
CATALOG_PATH = HERE / "catalog.json"

# Negative-cell mass admitted for r = 3 rows: their signed defect stays
# below 1e-19 through n = 400, so tail and mgf reach the statistics
# instead of the refusal path.
R3_ADMIT = "1e-12"


def _around(center: int, step: int) -> list[int]:
    return [center + step * d for d in (-2, -1, 0, 1, 2)]


def _table(r: int, center: int, fmt: str) -> list[list[str]]:
    # one format per slot: JSON takes more memory than CSV, and peak RSS
    # must not depend on the draw
    return [["table", "--r", str(r), "--N", str(n), "--format", fmt]
            for n in _around(center, 2)]


def _saddle(mode: str, center: int, r: int, u: str) -> list[list[str]]:
    # r and u set a solve's cost, so they are fixed per slot; n moves by 1 %
    return [["saddle", "--n", str(n), "--r", str(r), "--u", u, "--mode", mode]
            for n in _around(center, center // 100)]


# workload -> [(slot name, [variant argv, ...]), ...]
SLOTS: dict[str, list[tuple[str, list[list[str]]]]] = {
    "exact-law": [
        ("table-r2-300", _table(2, 300, "json")),
        ("table-r2-350", _table(2, 350, "csv")),
        # n 500 costs about what the r 3 clt-report and tail jobs cost, so
        # the tail percentile falls inside that block of like-cost jobs
        ("table-r2-500", _table(2, 500, "json")),
        ("table-r2-600", _table(2, 600, "csv")),
        ("table-r3-300", _table(3, 300, "csv")),
        ("clt-r2-300", [
            ["clt-report", "--r", "2", "--n-list", f"50,100,200,{n}",
             "--max-negative-mass", ("0", "0.1")[i % 2]]
            for i, n in enumerate(_around(300, 2))
        ]),
        ("clt-r3-350", [
            ["clt-report", "--r", "3", "--n-list", f"100,200,300,{n}",
             "--max-negative-mass", R3_ADMIT]
            for n in _around(350, 2)
        ]),
        ("tail-r3-350", [
            ["tail", "--n", str(n), "--r", "3", "--x-grid", grid,
             "--max-negative-mass", R3_ADMIT]
            for n, grid in zip(_around(350, 2), (
                "0.5,1,2", "1,2,3", "0.25,1.5", "0.5,2.5", "1,1.5,2"))
        ]),
        ("mgf-r3-300", [
            # one token, so argparse takes a leading minus as a value
            ["mgf", "--n", str(n), "--r", "3", f"--theta-grid={grid}",
             "--max-negative-mass", R3_ADMIT]
            for n, grid in zip(_around(300, 2), (
                "0.25,0.5,1", "-1,0.5,2", "0.1,0.2", "-0.5,0.75,1.5", "-2,1"))
        ]),
    ],
    "asymptotic": [
        ("saddle-general-1e3", _saddle("general", 1000, 2, "0.5")),
        ("saddle-general-3e4", _saddle("general", 30000, 3, "2")),
        ("saddle-general-3e5", _saddle("general", 290000, 2, "1")),
        ("saddle-literal-1e3", _saddle("paper_literal", 1000, 3, "0.75")),
        ("saddle-literal-1e4", _saddle("paper_literal", 10000, 2, "1.5")),
        ("saddle-literal-1e5", _saddle("paper_literal", 100000, 3, "1")),
        ("constants-r2-4", [
            ["constants", "--r", r, "--convention", conv]
            for r in ("2", "3", "4") for conv in ("standard", "shifted-zeta")
        ]),
        ("constants-r1", [["constants", "--r", "1"]]),
        # s - r > 1 so the shifted series and its 10^6 sigma sieve run
        ("dirichlet-check-r2", [
            ["dirichlet-check", "--r", "2", "--s", s] for s in ("3.5", "4", "4.5", "5", "6")
        ]),
        # verify makes many small cold-cache calls into every layer, the only
        # real arith work, and is the only job where --workers matters.  It
        # rides here rather than in a workload of its own, so that each of
        # the two workloads gets runs long enough to be steady.
        ("verify", [["verify"]]),
        ("verify-workers", [["verify", "--workers", "2"]]),
    ],
}

WORKLOADS = tuple(SLOTS)


def load() -> dict:
    """The committed references: {argv key: reference}."""
    with open(CATALOG_PATH, encoding="utf-8") as fh:
        return json.load(fh)["refs"]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def job_list(workload: str, seed: int) -> list[list[str]]:
    """One variant per slot, in seeded order: the same seed gives the same
    jobs, and every seed gives the same mix of cost classes."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = [rng.choice(variants) for _, variants in SLOTS[workload]]
    rng.shuffle(jobs)
    return jobs


def _reference(stdout: bytes, argv: list[str]) -> dict:
    """What the catalog stores for one variant: a digest for exact tables,
    the text for everything else (compared field by field at tolerance)."""
    if argv[0] == "table":
        return {"sha256": hashlib.sha256(stdout).hexdigest()}
    return {"stdout": stdout.decode("utf-8")}


def _write() -> int:
    refs = {}
    for workload, slots in SLOTS.items():
        for slot, variants in slots:
            for argv in variants:
                if key(argv) in refs:
                    continue
                proc = subprocess.run(
                    [sys.executable, "-m", "divpart", *argv],
                    capture_output=True, check=False,
                )
                ref = _reference(proc.stdout, argv)
                problem = checks.check(argv, proc.returncode, proc.stdout, proc.stderr, ref)
                if problem:
                    print(f"{workload}/{slot}: {key(argv)}: {problem}", file=sys.stderr)
                    return 1
                refs[key(argv)] = ref
                print(f"{workload}/{slot}: {key(argv)}", file=sys.stderr)
    with open(CATALOG_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"refs": refs}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="run every variant and rewrite catalog.json")
    if not parser.parse_args().write:
        parser.print_help()
        sys.exit(0)
    sys.exit(_write())
