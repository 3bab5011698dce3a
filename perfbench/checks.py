"""Output checks behind ``fail_frac``.

A job fails on a non-zero exit, "Traceback" on stderr, a refusal line, or
an output that misses its catalog reference.  Exact tables are checked by
digest: exact integers cannot change under a valid optimisation.  Every
other output is compared field by field; a float field may move within the
tolerance that the library states for it, every other field must match
exactly.  Intrinsic contracts (saddle residual, Euler-product tails, the
shifted-series budget, the verify summary) are checked on the output
itself.
"""

from __future__ import annotations

import hashlib
import json
import math

VERIFY_OK = "OK (14/14 checks passed)"

# Relative tolerance per float field; fields not listed must match exactly.
#  1e-12  values computed from exact rational laws (only rounding may move)
#  1e-9   Euler products and Dirichlet series (far below their 1e-8 tails)
#  1e-6   anything derived from a saddle root solved to residual 1e-9 n
REL_TOL = {
    # clt-report, tail, mgf
    "mean_exact": 1e-12, "var_exact": 1e-12, "ks_distance": 1e-9,
    "prob": 1e-12, "bound": 1e-12,
    "mgf_exact": 1e-12, "gauss_target": 1e-12,
    "mu_general": 1e-6, "nu2_general": 1e-6, "mu_literal": 1e-6, "nu2_literal": 1e-6,
    "exponent_fit_mean": 1e-6, "exponent_fit_var": 1e-6,
    # saddle
    "tau": 1e-6, "F": 1e-6, "F_g": 1e-6, "F_gg": 1e-6, "B2": 1e-6,
    "theta_n": 1e-6, "mu": 1e-6, "nu2": 1e-6,
    # constants
    "C": 1e-9, "Cprime": 1e-9, "E1": 1e-9, "K1": 1e-9, "N": 1e-9,
    "C_mu": 1e-9, "C_sigma": 1e-9, "C_mu_alt": 1e-9, "C_sigma_alt": 1e-9,
    "zeta2_times_C": 1e-9, "C_tail": 1e-6,
    # dirichlet-check
    "d1_closed": 1e-9, "d1_direct": 1e-9, "d1_direct_truncation": 1e-9,
    "shifted_direct": 1e-9, "shifted_series_part": 1e-9, "shifted_budget": 1e-9,
    "dsigma_residual": 1e-6,
}
# Absolute tolerance for fields that are differences of nearly equal values.
ABS_TOL = {"rel_deviation": 1e-12}
# Fields checked only by their contract, never against the reference,
# because their last digits are rounding noise.
CONTRACT_ONLY = {"residual", "d1_difference"}


def _flatten(text: str) -> dict[str, str]:
    """Output text -> {field path: value string}.

    Handles the three shapes the CLI prints: a JSON document, CSV with a
    header line (plus "# finding:" lines), and CSV followed by a JSON
    summary (clt-report).
    """
    fields: dict[str, str] = {}
    brace = text.find("{")
    csv_part, json_part = (text[:brace], text[brace:]) if brace >= 0 else (text, "")
    lines = [ln for ln in csv_part.split("\n") if ln]
    findings = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    if rows:
        header = rows[0].split(",")
        for i, row in enumerate(rows[1:]):
            cells = row.split(",", len(header) - 1)
            if len(cells) != len(header):
                raise ValueError(f"CSV row {i} has {len(cells)} cells")
            for col, cell in zip(header, cells):
                fields[f"{i}.{col}"] = cell
    for i, line in enumerate(findings):
        fields[f"finding{i}"] = line
    if json_part:
        for name, value in json.loads(json_part).items():
            fields[name] = value if isinstance(value, str) else json.dumps(value)
    return fields


def _same(name: str, got: str, want: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in REL_TOL or leaf in ABS_TOL:
        if got == want:
            return True
        try:
            g, w = float(got), float(want)
        except ValueError:
            return False
        if not (math.isfinite(g) and math.isfinite(w)):
            return False
        if leaf in ABS_TOL:
            return abs(g - w) <= ABS_TOL[leaf]
        return abs(g - w) <= REL_TOL[leaf] * abs(w)
    return got == want


def _contracts(sub: str, argv: list[str], got: dict[str, str]) -> str | None:
    if sub == "saddle":
        n = int(got["n"])
        if not float(got["residual"]) <= 1e-9 * max(1.0, n):
            return f"saddle residual {got['residual']} above 1e-9 max(1, n)"
    elif sub == "constants":
        tol = float(argv[argv.index("--tolerance") + 1]) if "--tolerance" in argv else 1e-8
        if not float(got["C_tail"]) < tol:
            return f"Euler-product tail {got['C_tail']} not below {tol}"
    elif sub == "dirichlet-check":
        if got.get("shifted_ok") != "true":
            return "shifted series outside its budget"
        if not float(got["d1_difference"]) <= float(got["d1_direct_truncation"]):
            return "closed and direct D1 differ by more than the truncation bound"
    elif sub == "tail":
        probs = [float(v) for k, v in got.items() if k.endswith(".prob")]
        if not probs or not all(0.0 <= p <= 1.0 for p in probs):
            return "tail probabilities missing or outside [0, 1]"
    return None


def check(argv: list[str], rc: int, stdout: bytes, stderr: bytes, ref: dict) -> str | None:
    """None when the job's result is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}: {stderr.decode('utf-8', 'replace').strip()[-200:]}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if b"refused" in stdout or b"refused" in stderr:
        return "refusal line"
    sub = argv[0]
    if sub == "table":
        if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
            return "table digest differs from the reference"
        return None
    text = stdout.decode("utf-8")
    if sub == "verify":
        lines = text.rstrip("\n").split("\n")
        want = ref["stdout"].rstrip("\n").split("\n")
        if lines[-1] != VERIFY_OK:
            return f"verify summary is {lines[-1]!r}"
        names = [ln.split(":", 1)[0] for ln in lines[:-1]]
        if names != [ln.split(":", 1)[0] for ln in want[:-1]]:
            return "verify check list differs from the reference"
        return None
    try:
        got = _flatten(text)
        want = _flatten(ref["stdout"])
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc}"
    if set(got) != set(want):
        return f"fields differ: {sorted(set(got) ^ set(want))[:5]}"
    bad = [k for k in want if k.rsplit(".", 1)[-1] not in CONTRACT_ONLY
           and not _same(k, got[k], want[k])]
    if bad:
        k = bad[0]
        return f"{len(bad)} fields off reference, first {k}: {got[k]} vs {want[k]}"
    try:
        return _contracts(sub, argv, got)
    except (KeyError, ValueError) as exc:
        return f"contract field missing: {exc}"
