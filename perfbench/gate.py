"""Correctness gate: decide whether one CLI invocation succeeded.

An invocation succeeds only if its exit code is 0, stderr holds no
traceback, stdout is a report whose digest matches its payload, every
result matches its reference (recorded from the baseline program for
fixed inputs, computed independently for generated ones) and every closed
form holds.  Determinism (same argv, same digest) is checked by the
caller, which sees several executions.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RECORDED_RTOL = 1e-6     # results of fixed-input calls against reference.json
ATOL = 1e-9              # absolute floor for every comparison

# Known defects: crashes of the baseline program that the benchmark keeps.
# A call that hits one still counts as failed; it does not make the run
# incorrect, any other failure does.
LEDGER = {
    "entropy-log-bigint":
        "entropy --check raises TypeError once the word count passes 2^63: "
        "np.log is applied to a Python int (cli.py, _cmd_entropy)",
    "periodic-float-overflow":
        "periodic raises OverflowError from float(count) when the count "
        "passes the float range, e.g. --n 1100 on the full 2-shift "
        "(cli.py, _cmd_periodic); no workload reaches it",
}


def digest_of(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_values(payload) -> dict:
    """Result values by name, and certificate values under ``cert:<name>``."""
    values = {r["name"]: r["value"] for r in payload["results"]}
    values.update({"cert:" + c["name"]: c["values"]
                   for c in payload["certificates"]})
    return values


def _close(value, ref, rtol):
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(_close(v, r, rtol) for v, r in zip(value, ref)))
    if isinstance(ref, str) or isinstance(value, str):
        return value == ref
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= ATOL + rtol * abs(ref))


def check(call, rc, stdout, stderr, recorded):
    """Return (payload digest or None, list of problems) for one invocation.

    ``recorded`` holds the values recorded from the baseline program for
    this call, or None when its inputs are generated.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    try:
        doc = json.loads(stdout)
        payload = doc["payload"]
        values = report_values(payload)
    except (ValueError, KeyError, TypeError):
        problems.append("stdout is not a report")
        return None, problems
    digest = digest_of(payload)
    if doc.get("digest") != digest:
        problems.append("digest does not match the payload")

    expected = [(name, ref, RECORDED_RTOL) for name, ref in (recorded or {}).items()]
    expected += [(name, ref, call.rtol) for name, ref in call.expect.items()]
    for name, ref, rtol in expected:
        if name not in values:
            problems.append(f"{name}: missing from the report")
        elif not _close(values[name], ref, rtol):
            problems.append(f"{name}: {values[name]!r}, expected {ref!r} "
                            f"within rtol {rtol:g}")

    if call.csv is not None:
        rows = [a.get("rows") for a in payload.get("artifacts", [])
                if a.get("path") == call.csv]
        path = Path(call.csv)
        if not rows or not path.is_file():
            problems.append(f"artifact {call.csv} missing")
        else:
            lines = path.read_bytes().split(b"\r\n")
            if lines[-1] != b"" or len(lines) - 2 != rows[0]:
                problems.append(f"artifact {call.csv} has {len(lines) - 2} rows, "
                                f"report says {rows[0]}")
    return digest, problems
