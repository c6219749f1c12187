#!/usr/bin/env python3
"""Closed-loop benchmark of the thermoshift command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's fixed list of ``thermoshift``
invocations as subprocesses, one at a time (a single client: the next call
starts when the previous one exits, interpreter start-up included), and
repeats the list until ``--seconds`` seconds have passed, at least twice.  Every
invocation passes through the correctness gate.  It reports the end-to-end
metrics; the last line of stdout is one JSON object.

With ``--trace 1`` it runs the same list in-process through
``thermoshift.cli.main``, once untraced and once under the span tracer, and
reports per-layer metrics, the start-up breakdown from ``-X importtime`` and
the tracing overhead.  Spans go to ``.perfbench/`` in the checkout.

``--workload all`` runs every workload untraced and traced in turn, prints
each result line, and ends with one object holding every metric as
``<workload>/<metric>``.

``--record`` re-records ``reference.json`` for the fixed-input calls of the
workload from one pass; it is how the reference was made from the baseline
program.

Run it from anywhere inside a checkout: the program is imported from the
checkout's ``src/``, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"
STARTUP = "import thermoshift.cli"   # what every CLI call pays before any work
MIN_PASSES = 2           # so every argv runs twice and digests can be compared
PASS_BUDGET_S = 140      # never start a pass expected to end past this
CALL_TIMEOUT_S = 120

# layers expected to dominate each workload segment's traced compute
# (start-up is compared with the whole end-to-end pass instead)
DOMINANT = {
    "demo-suite": ("startup",),
    "deep-cylinders": ("sft", "measures", "potentials", "variational"),
    "iterative-solvers": ("transfer", "potentials", "hofbauer"),
    "large-alphabet": ("modelio", "sft"),
}

# per-layer metrics: name -> (traced callables, callables to skip beneath)
TIMED = {
    "cli.emit_s": (["cli.Report.emit"], ()),
    "cli.csv_s": (["cli._write_csv"], ()),
    "modelio.parse_s": (["modelio.parse"], ()),
    "modelio.build_s": ([f"modelio.{f}" for f in (
        "build_sft", "bind_potential", "build_markov_chain",
        "build_interval_map", "build_hofbauer")], ["modelio.parse"]),
    "sft.count_words_s": (["sft.SubshiftOfFiniteType.count_words"], ()),
    "sft.periodic_count_s": (["sft.SubshiftOfFiniteType.periodic_count"], ()),
    "sft.validate_s": (["sft.SubshiftOfFiniteType.validate",
                        "sft.SubshiftOfFiniteType.require_primitive"], ()),
    "sft.cylinders_s": (["sft.SubshiftOfFiniteType.cylinders"], ()),
    "potentials.table_s": ([f"potentials.LocallyConstantPotential.{f}" for f in (
        "__init__", "from_function", "zero", "scale", "shift", "with_range")], ()),
    "potentials.birkhoff_s": ([f"potentials.LocallyConstantPotential.{f}" for f in (
        "birkhoff_sup", "birkhoff_inf", "birkhoff_extremes")], ()),
    "potentials.recode_s": (["potentials.recode_range2"], ()),
    "transfer.build_s": (["transfer.build"], ()),
    "transfer.eigen_s": (["transfer.leading_eigen"], ()),
    "transfer.gibbs_bounds_s": (["transfer.gibbs_bounds"], ()),
    "measures.support_s": (["measures.MarkovMeasure.support_words"], ()),
    "measures.relent_direct_s": (["measures.relative_entropy_direct"], ()),
    "measures.aep_s": (["measures.aep_partition"], ()),
    "measures.sample_s": (["measures.MarkovMeasure.sample_path"], ()),
    "variational.pn_s": (["variational.pressure_Pn"], ()),
    "variational.lattice_s": (["variational.lattice_equilibrium"], ()),
    "variational.trace_s": (["variational.lattice_pressure_trace"], ()),
    "variational.match_s": (["variational.ising_match", "variational.solve_beta"], ()),
    "hofbauer.diagnose_s": (["hofbauer.diagnose"], ()),
    "hofbauer.renewal_s": (["hofbauer.pressure_renewal"], ()),
    "hofbauer.periodic_s": (["hofbauer.pressure_periodic"], ()),
    "interval_maps.dimension_s": (["interval_maps.bowen_dimension"], ()),
    "interval_maps.square_s": (["interval_maps.PiecewiseLinearMarkovMap.squared"], ()),
    "interval_maps.certificate_s": (["interval_maps.AcimResult.certificate",
                                     "interval_maps.distortion_certificate"], ()),
}
CALLS = {
    "sft.count_words_calls": "sft.count_words_s",
    "potentials.birkhoff_calls": "potentials.birkhoff_s",
    "transfer.eigen_calls": "transfer.eigen_s",
}
COUNTERS = ["cli.csv_rows", "modelio.parse_bytes", "sft.count_bits_max",
            "sft.cylinder_words", "potentials.table_words",
            "transfer.eigen_iterations", "measures.support_words",
            "measures.sample_steps", "variational.lattice_configs",
            "hofbauer.series_terms", "interval_maps.root_steps"]
IMPORTS = {"startup.numpy_s": "numpy", "startup.scipy_s": "scipy",
           "startup.yaml_s": "yaml"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _median(xs):
    return float(statistics.median(xs))


# -- one subprocess invocation ------------------------------------------------------


def run_cli(argv, out_dir):
    """Run one invocation; return (wall s, exit code, stdout, stderr, peak RSS MB).

    The child's own rusage comes from os.wait4; RUSAGE_CHILDREN would be the
    maximum over every child so far and hide a later, smaller peak.
    """
    out_path, err_path = out_dir / "stdout.json", out_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "thermoshift", *argv],
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=_env())
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024.0)


def time_import():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP], check=True,
                   cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Outcomes:
    """Gate verdicts for every execution in a run, with digest comparison."""

    def __init__(self, workload):
        self.workload = workload
        self.recorded = _load_reference().get(workload, {})
        self.digests = {}
        self.attempted = 0
        self.per_segment = {}     # segment -> [attempted, failed]
        self.failed = []          # (call id, problems, known defect or None)

    def add(self, call, rc, stdout, stderr):
        digest, problems = gate.check(call, rc, stdout, stderr,
                                      self.recorded.get(call.id))
        if digest is not None:
            first = self.digests.setdefault(call.id, digest)
            if digest != first:
                problems.append("payload digest differs from the first execution")
        self.attempted += 1
        segment = inputs.segment(self.workload, call)
        counts = self.per_segment.setdefault(segment, [0, 0])
        counts[0] += 1
        if problems:
            counts[1] += 1
            self.failed.append((call.id, problems, call.defect))

    @property
    def correct(self):
        return all(defect in gate.LEDGER for _, _, defect in self.failed)

    def summary(self):
        lines = [f"gate: {len(self.failed)} failed of {self.attempted} attempted "
                 f"(error rate {len(self.failed) / self.attempted:.4f}, "
                 f"base {self.attempted})"]
        if len(self.per_segment) > 1:
            lines += [f"  segment {seg}: error rate {bad / n:.4f}, base {n}"
                      for seg, (n, bad) in self.per_segment.items()]
        seen = set()
        for cid, problems, defect in self.failed:
            if (cid, defect) in seen:
                continue
            seen.add((cid, defect))
            tag = f"known defect {defect}" if defect in gate.LEDGER else "UNEXPECTED"
            lines.append(f"  {cid}: {tag}: {'; '.join(problems)}")
        return lines


def _load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


# -- trace 0: end-to-end ---------------------------------------------------------------


def timed_run(workload, calls, seconds, tmp):
    outcomes = Outcomes(workload)
    passes, walls, rss, setup = [], {c.id: [] for c in calls}, [], []
    start = time.perf_counter()
    while True:
        # start-up is sampled before every pass and once after the last, so
        # its median covers the same stretch of time as the passes
        setup.append(time_import())
        batch = 0.0
        for call in calls:
            wall, rc, stdout, stderr, peak = run_cli(call.argv, tmp)
            batch += wall
            walls[call.id].append(wall)
            rss.append(peak)
            outcomes.add(call, rc, stdout, stderr)
        passes.append(batch)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
        if elapsed + batch > PASS_BUDGET_S:
            break
    setup.append(time_import())

    samples = [w for ws in walls.values() for w in ws]
    print(f"workload {workload}: {len(calls)} invocations per pass, "
          f"{len(passes)} passes, closed loop with one client")
    for call in calls:
        print(f"  {call.id:<28} median {_median(walls[call.id]):8.3f} s")
    print(f"setup_s over {len(setup)} fresh start-ups: "
          + ", ".join(f"{s:.3f}" for s in setup))
    print("batch_s per pass: " + ", ".join(f"{b:.3f}" for b in passes))
    print(f"cmd_p50_s over {len(samples)} invocations")
    print("\n".join(outcomes.summary()))
    metrics = {
        "batch_s": (_median(passes), "s"),
        "cmd_p50_s": (_median(samples), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "success_rate": (1.0 - len(outcomes.failed) / outcomes.attempted, "ratio"),
    }
    return outcomes, metrics


# -- trace 1: per layer ----------------------------------------------------------------


def _importtime():
    """Cumulative import seconds of thermoshift and of its heavy dependencies.

    -X importtime lists modules children first; reading it backwards gives
    each module's ancestors, so a module counts toward the first tracked
    dependency that pulled it in, once.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           STARTUP], capture_output=True, text=True,
                          check=True, cwd=ROOT, env=_env())
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cum) / 1e6))
    tops = {top: key for key, top in IMPORTS.items()}
    out = dict.fromkeys(["startup.import_s", *IMPORTS], 0.0)
    stack = []
    for depth, name, cum in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        if name == "thermoshift.cli":
            out["startup.import_s"] = cum
        elif top in tops and not any(a.split(".")[0] in tops for a in stack):
            out[tops[top]] += cum
        stack.append(name)
    return out


def _run_inprocess(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def traced_run(workload, calls, seed):
    startup = [_importtime() for _ in range(3)]
    startup = {k: _median([s[k] for s in startup]) for k in startup[0]}
    setup = _median([time_import() for _ in range(3)])

    sys.path.insert(0, str(ROOT / "src"))
    import thermoshift.cli as cli

    outcomes = Outcomes(workload)
    plain = 0.0
    for timed in (False, True):   # the first pass warms lazy imports and caches
        for call in calls:
            t0 = time.perf_counter()
            rc, stdout, stderr = _run_inprocess(cli.main, call.argv)
            plain += (time.perf_counter() - t0) * timed
            outcomes.add(call, rc, stdout, stderr)

    tracer = Tracer()
    tracer.install("thermoshift")
    traced = 0.0
    try:
        for i, call in enumerate(calls):
            tracer.invocation = i
            t0 = time.perf_counter()
            rc, stdout, stderr = _run_inprocess(cli.main, call.argv)
            traced += time.perf_counter() - t0
            outcomes.add(call, rc, stdout, stderr)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)

    metrics = {k: (v, "s") for k, v in startup.items()}
    layer_self = tracer.layer_self()
    metrics["cli.self_s"] = (layer_self["cli"], "s")
    for name, (names, skip) in TIMED.items():
        seconds, _ = tracer.inclusive(names, skip)
        metrics[name] = (seconds, "s")
    for name, timed in CALLS.items():
        metrics[name] = (tracer.inclusive(*TIMED[timed])[1], "count")
    for name in COUNTERS:
        unit = "bytes" if name.endswith("bytes") else (
            "bits" if name.endswith("bits_max") else "count")
        metrics[name] = (tracer.counters[name], unit)
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")

    print(f"workload {workload}: {len(calls)} invocations in-process, "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"compute untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"overhead {traced - plain:.3f} s")
    startup_total = setup * len(calls)
    print(f"startup {setup:.3f} s per call x {len(calls)} = {startup_total:.3f} s, "
          f"{startup_total / (startup_total + plain):.1%} of the end-to-end pass")
    segments = {}
    for i, call in enumerate(calls):
        segments.setdefault(inputs.segment(workload, call), set()).add(i)
    for seg, invocations in segments.items():
        shares = tracer.layer_self(invocations)
        total = sum(shares.values())
        print(f"segment {seg}: {len(invocations)} invocations, "
              f"{total:.3f} s traced compute")
        for layer in sorted(shares, key=shares.get, reverse=True):
            if shares[layer] > 0:
                print(f"  {layer:<14} self {shares[layer]:8.3f} s "
                      f"{shares[layer] / total:6.1%}")
        dominant = DOMINANT[seg]
        if dominant == ("startup",):
            share = startup_total / (startup_total + plain)
            base = "of the end-to-end pass"
        else:
            share = sum(shares[x] for x in dominant) / total
            base = "of the segment's traced compute"
        print(f"  dominant {'+'.join(dominant)}: {share:.1%} {base} "
              f"({'confirmed' if share >= 0.5 else 'NOT confirmed'}, threshold 50%)")
    print("\n".join(outcomes.summary()))
    return outcomes, metrics


# -- entry point ---------------------------------------------------------------------


def record(workload, calls, tmp):
    """Store the results of the fixed-input calls as the workload's reference."""
    reference = _load_reference()
    entries = {}
    for call in calls:
        if any(a.startswith(str(tmp)) and not a.endswith(".csv") for a in call.argv):
            continue
        _, rc, stdout, stderr, _ = run_cli(call.argv, tmp)
        if rc != 0:
            raise SystemExit(f"{call.id}: exit code {rc}: {stderr}")
        entries[call.id] = gate.report_values(json.loads(stdout)["payload"])
    if entries:
        reference[workload] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"recorded {len(entries)} calls of {workload} into {REFERENCE.name}")


def run_workload(workload, seed, seconds, trace):
    """One run of one workload; returns the result object."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK)).relative_to(ROOT)
    try:
        calls = inputs.build(workload, seed, tmp)
        if trace:
            outcomes, metrics = traced_run(workload, calls, seed)
        else:
            outcomes, metrics = timed_run(workload, calls, seconds, tmp)
    finally:
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
    return {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*inputs.WORKLOADS, "all"],
                        help="one workload, or all of them traced and untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json for this workload")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/thermoshift/cli.py", "demos/models")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a thermoshift checkout: {', '.join(missing)} missing under "
              f"{ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        WORK.mkdir(exist_ok=True)
        for workload in workloads:
            tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK)).relative_to(ROOT)
            try:
                record(workload, inputs.build(workload, args.seed, tmp), tmp)
            finally:
                shutil.rmtree(ROOT / tmp, ignore_errors=True)
        return 0

    if len(workloads) == 1:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace)
            print(f"{workload} --trace {trace}: {json.dumps(result)}\n")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
