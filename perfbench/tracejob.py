"""Run one divpart CLI job with spans around the library's public functions.

    PYTHONPATH=src python3 perfbench/tracejob.py TRACE.json -- <divpart args>

The job's stdout, stderr and exit code are those of ``python -m divpart
<args>``; the spans go to TRACE.json only.  Nothing in the library is
edited: each traced function is rebound, on every divpart module that holds
a reference to it, to a wrapper that records (id, parent id, name, start,
end, raised).  That covers by-name imports such as ``cltlab.build_table``
and ``dirichlet.characters_mod`` and ``lru_cache``-wrapped names.
Per-element helpers (``ramanujan_sum``, ``mobius``, ``zeta_real``, ...)
stay unwrapped, so tracing adds little time.

Counts that need no clock are computed after the job's span has closed:
``packed_adds`` replays ``build_table``'s loop bounds from the gap
sequence without big-integer work, and ``coeff_bits`` is the widest
coefficient in the tables the job built.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# layer -> public functions traced in it
TRACED = {
    "arith": ("primes_up_to", "mu_phi_tables", "sigma_r_table", "characters_mod",
              "shifted_identity_max_residual"),
    "partition": ("build_table", "permuted_build_matches", "oracle_table",
                  "tables_equal", "exact_distribution"),
    "dirichlet": ("constant_C", "euler_K", "E_r_and_Cprime", "dirichlet_d1",
                  "d1_direct_naive", "d2_bound", "d2_direct_probe", "d2_quartic_character",
                  "shifted_series_residual", "dsigma_residual", "growth_constants",
                  "polylog_neg"),
    "saddle": ("F_partial", "solve_saddle", "mean_variance_saddle", "mellin_ratio_check",
               "h1_boundedness_probe", "minor_arc_ratio", "minor_arc_log_ratio"),
    "cltlab": ("ks_to_normal", "clt_report", "mgf_profile", "tail_check", "tail_report",
               "exponent_fit"),
    "cli": ("build_parser", "emit_json", "emit_text"),
}
ROOT = 0
ROOT_NAME = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self.tables: list = []  # build_table results, for the counts
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # spans in a worker thread hang off the job's root span
            stack = self._local.stack = [ROOT]
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            raised = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, raised))
                if name == "partition.build_table" and not raised:
                    self.tables.append(out)

        return functools.wraps(fn)(traced)

    def install(self, modules: dict) -> None:
        """Rebind every traced function on every module holding it."""
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def packed_adds(gaps: tuple[int, ...], n_max: int) -> int:
    """Shift-multiply-adds that build_table's loop bounds admit, computed
    from the gap sequence alone: for every factor j with gap d != 0 and
    every expansion term m (m <= n_max // j, and m <= d when d > 0), one
    add per target degree n in [j m, n_max]."""
    total = 0
    for j in range(1, n_max + 1):
        d = gaps[j - 1]
        if d == 0:
            continue
        m_cap = n_max // j if d < 0 else min(n_max // j, d)
        # sum over m = 1..m_cap of (n_max - j m + 1)
        total += m_cap * (n_max + 1) - j * m_cap * (m_cap + 1) // 2
    return total


def coeff_bits(table) -> int:
    return max((abs(c).bit_length() for row in table.coeff for c in row), default=0)


def main(argv: list[str]) -> int:
    out_path, sep, job_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracejob.py TRACE.json -- <divpart args>")
    t0 = time.perf_counter()
    import divpart
    from divpart import arith, cli, cltlab, dirichlet, partition, saddle
    import_s = time.perf_counter() - t0

    modules = {"arith": arith, "partition": partition, "dirichlet": dirichlet,
               "saddle": saddle, "cltlab": cltlab, "cli": cli, "divpart": divpart}
    tracer = Tracer()
    tracer.install(modules)

    tracer.recording = True
    raised = True
    start = time.perf_counter()
    try:
        rc = cli.main(job_args)
        raised = False
    except SystemExit as exc:  # argparse errors exit through here
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        end = time.perf_counter()
        tracer.recording = False
        tracer.spans.append((ROOT, -1, ROOT_NAME, start, end, raised))
        sys.stdout.flush()

    counts = {
        "packed_adds": sum(
            packed_adds(arith.GapSequence.build(t.r, max(t.n_max, 1)).gaps, t.n_max)
            for t in tracer.tables
        ),
        "coeff_bits": max((coeff_bits(t) for t in tracer.tables), default=0),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
