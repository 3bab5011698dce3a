"""Per-layer metrics from the traced replay, and the end-to-end metric each
one should move.

A span's self time is its duration minus the part of that interval its
child spans cover (the union, so spans of ``verify --workers 2`` threads
that overlap are not subtracted twice).  A layer's self time is the sum of
the self times of its spans; ``cli.self_s`` is therefore the job's span
minus its library children, that is argparse, formatting and emitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LAYERS = ("arith", "partition", "dirichlet", "saddle", "cltlab", "cli")
EULER_PRODUCTS = ("dirichlet.constant_C", "dirichlet.euler_K", "dirichlet.E_r_and_Cprime")

_EXACT = "exact-law wall_s and job_tail_s; about 0 on asymptotic"
_SADDLE = "asymptotic job_tail_s and wall_s"
_DIRICHLET = "asymptotic job_p50_s, job_tail_s and wall_s"
_ARITH = "asymptotic wall_s, through the verify jobs and sigma_r_table"
_CLT = "exact-law job_p50_s"
_LAYER = "job_p50_s on every workload"

# (name, unit, the end-to-end metric it should move); every one is
# better lower.
PER_LAYER: list[tuple[str, str, str]] = [
    ("partition.build_table.self_s", "s", _EXACT),
    ("partition.build_table.calls", "count", _EXACT),
    ("partition.build_table.packed_adds", "adds-computed", _EXACT),
    ("partition.build_table.coeff_bits", "bits", _EXACT),
    ("partition.oracle_table.self_s", "s", "asymptotic wall_s, through the verify jobs"),
    ("partition.exact_distribution.self_s", "s", _EXACT),
    ("saddle.solve_saddle.self_s", "s", _SADDLE),
    ("saddle.solve_saddle.calls", "count", _SADDLE),
    ("saddle.F_partial.self_s", "s", _SADDLE),
    ("saddle.F_partial.calls", "count", _SADDLE),
    ("saddle.F_partial.calls_per_solve", "calls/solve", _SADDLE),
    ("saddle.mean_variance_saddle.self_s", "s", _SADDLE),
    ("dirichlet.euler_products.self_s", "s", _DIRICHLET),
    ("dirichlet.dirichlet_d1.self_s", "s", _DIRICHLET),
    ("dirichlet.shifted_series_residual.self_s", "s", _DIRICHLET),
    ("dirichlet.growth_constants.self_s", "s", _DIRICHLET),
    ("arith.primes_up_to.self_s", "s", _ARITH),
    ("arith.sigma_r_table.self_s", "s", _ARITH),
    ("arith.characters_mod.self_s", "s", _ARITH),
    ("arith.shifted_identity_max_residual.self_s", "s", _ARITH),
    ("cltlab.clt_report.self_s", "s", _CLT),
    ("cltlab.tail_report.self_s", "s", _CLT),
    ("cltlab.mgf_profile.self_s", "s", _CLT),
] + [
    (f"{layer}.{stat}", unit, _LAYER)
    for layer in LAYERS
    for stat, unit in (("self_s", "s"), ("calls", "count"), ("raised", "count"))
] + [
    ("cli.import_s", "s", "setup_s"),
    ("trace.overhead_frac", "ratio", "none: traced over untraced job wall time, minus 1"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


@dataclass
class LayerTotals:
    """Self time, calls and raises per traced function, summed over jobs,
    plus the counts that must repeat exactly on every replay."""

    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    raised: dict[str, int] = field(default_factory=dict)
    fpartial_in_solve: int = 0
    packed_adds: int = 0
    coeff_bits: int = 0

    def add_job(self, trace: dict) -> None:
        spans = trace["spans"]
        kids: dict[int, list[tuple[float, float]]] = {}
        parent_of: dict[int, int] = {}
        name_of: dict[int, str] = {}
        for sid, parent, name, t0, t1, _ in spans:
            kids.setdefault(parent, []).append((t0, t1))
            parent_of[sid] = parent
            name_of[sid] = name
        for sid, _, name, t0, t1, raised in spans:
            self_time = (t1 - t0) - _covered(t0, t1, kids.get(sid, []))
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time
            self.calls[name] = self.calls.get(name, 0) + 1
            self.raised[name] = self.raised.get(name, 0) + int(raised)
            if name == "saddle.F_partial":
                up = parent_of[sid]
                while up in name_of and name_of[up] != "saddle.solve_saddle":
                    up = parent_of[up]
                self.fpartial_in_solve += up in name_of
        self.packed_adds += trace["counts"]["packed_adds"]
        self.coeff_bits = max(self.coeff_bits, trace["counts"]["coeff_bits"])

    def counts(self) -> tuple:
        """The counts that must repeat exactly.  Calls of the cached sieves
        may not: under verify --workers 2 two threads can both miss a cache
        and both compute it."""
        return (self.calls.get("saddle.solve_saddle", 0), self.fpartial_in_solve,
                self.packed_adds, self.coeff_bits)

    def values(self) -> dict[str, float]:
        """Every per-layer metric except the two set by the whole run."""
        def in_layer(table: dict, layer: str):
            return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

        solves = self.calls.get("saddle.solve_saddle", 0)
        out: dict[str, float] = {
            "partition.build_table.packed_adds": self.packed_adds,
            "partition.build_table.coeff_bits": self.coeff_bits,
            "saddle.F_partial.calls_per_solve": self.fpartial_in_solve / solves if solves else 0.0,
            "dirichlet.euler_products.self_s": sum(self.self_s.get(f, 0.0) for f in EULER_PRODUCTS),
        }
        for name, _, _ in PER_LAYER:
            if name in out or name in ("cli.import_s", "trace.overhead_frac"):
                continue
            target, stat = name.rsplit(".", 1)
            table = getattr(self, stat)
            out[name] = in_layer(table, target) if target in LAYERS else table.get(target, 0)
        return out
