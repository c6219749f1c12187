"""Batch front-end: parse model files, dispatch computations, emit reports.

Reports are JSON documents of the form

    {"payload": {...}, "digest": "<sha256 of canonical payload>",
     "meta": {"wall_time_s": ...}}

The payload is deterministic for a fixed invocation (same files, flags,
seed); wall time lives in meta, outside the digest.  Every numeric result
carries a method tag naming the engine that produced it (spectral,
variational, renewal, enumeration), and whenever two engines computed the
same quantity the report includes their discrepancy.  Curves and tables go
to CSV (RFC 4180: CRLF, headers always) via --out.

Exit codes: 0 success, 1 computation error, 2 budget exceeded, 3 syntax
(invocation, unreadable file, or malformed model text), 4 schema violation,
5 semantic invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import modelio
from .errors import (BudgetError, ModelSchemaError, ModelSemanticError,
                     ModelSyntaxError, ThermoshiftError)
from .hofbauer import (diagnose, pressure_curve, pressure_periodic,
                       pressure_renewal)
from .interval_maps import acim, bowen_dimension
from .measures import (aep_partition, relative_entropy,
                       relative_entropy_direct, smb_estimate)
from .sft import _check_budget, _word_blocks
from .transfer import gibbs_bounds, gibbs_measure
from .transfer import pressure as spectral_pressure
from .variational import (ising_match, ising_potential, ising_pressure_exact,
                          lattice_equilibrium, lattice_pressure_trace,
                          markov_as_gibbs, pressure_Pn)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_BUDGET = 2
EXIT_SYNTAX = 3
EXIT_SCHEMA = 4
EXIT_SEMANTIC = 5

_LN2 = float(np.log(2.0))


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto the syntax exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SYNTAX, f"{self.prog}: error: {message}\n")


def _sanitize(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats as strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if np.isfinite(obj):
            return obj
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(x) for x in obj]
    return obj


class Report:
    """Accumulates results, certificates and annotations for one command."""

    def __init__(self, command, argv):
        self.payload = {
            "command": command,
            "command_line": list(argv),
            "inputs": {},
            "results": [],
            "certificates": [],
            "annotations": {},
            "artifacts": [],
        }

    def input(self, model: modelio.ModelFile):
        self.payload["inputs"][model.path] = f"sha256:{model.digest}"

    def result(self, name, value, units, method):
        self.payload["results"].append(
            {"name": name, "value": value, "units": units, "method": method})

    def certificate(self, name, methods, values, units):
        values = [float(v) for v in values]
        disc = float(max(values) - min(values)) if len(values) > 1 else 0.0
        self.payload["certificates"].append(
            {"name": name, "methods": list(methods), "values": values,
             "discrepancy": disc, "units": units})

    def annotate(self, key, value):
        self.payload["annotations"][key] = value

    def artifact(self, path, columns, rows):
        self.payload["artifacts"].append(
            {"path": str(path), "columns": list(columns), "rows": rows})

    def to_bits(self):
        for entry in self.payload["results"]:
            if entry["units"] == "nats" and isinstance(entry["value"], float):
                entry["value"] = entry["value"] / _LN2
                entry["units"] = "bits"
        for cert in self.payload["certificates"]:
            if cert["units"] == "nats":
                cert["values"] = [v / _LN2 for v in cert["values"]]
                cert["discrepancy"] = cert["discrepancy"] / _LN2
                cert["units"] = "bits"

    def emit(self, wall_time):
        payload = _sanitize(self.payload)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"), allow_nan=False)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        doc = {"payload": payload, "digest": f"sha256:{digest}",
               "meta": {"wall_time_s": round(wall_time, 6)}}
        print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))


def _write_csv(path, columns, rows):
    """RFC 4180 table: CRLF endings, header row, floats at 17 significant digits."""

    def cell(x):
        if isinstance(x, bool):
            return str(x)
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        return str(x)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell(x) for x in row])
    return len(rows)


def _load(path, kind):
    model = modelio.parse(path)
    if model.kind != kind:
        raise ModelSemanticError(
            f"{path}: expected kind {kind!r}, got {model.kind!r}", field="kind")
    return model


def _sft_and_potential(args, report, beta=None):
    sft_model = _load(args.sft, "sft")
    pot_model = _load(args.potential, "potential")
    report.input(sft_model)
    report.input(pot_model)
    sft = modelio.build_sft(sft_model)
    pot = modelio.bind_potential(pot_model, sft)
    if beta is not None and beta != 1.0:
        pot = pot.scale(beta)
    return sft, pot


def _chain(args, report, attr="chain"):
    model = _load(getattr(args, attr), "markov-chain")
    report.input(model)
    return modelio.build_markov_chain(model), modelio.chain_labels(model)


# -- command handlers ----------------------------------------------------------


def _cmd_entropy(args, report):
    model = _load(args.sft, "sft")
    report.input(model)
    sft = modelio.build_sft(model)
    tol = args.tol if args.tol is not None else 1e-14
    h = sft.topological_entropy(tol=tol)
    report.result("topological_entropy", h, "nats", "spectral")
    mix = sft.validate()
    report.annotate("primitive", mix.primitive)
    report.annotate("primitivity_power", mix.p0)
    if args.check:
        n = args.depth if args.depth is not None else 12
        approx = math.log(sft.count_words(n)) / n
        report.result(f"log_word_count_over_n(n={n})", approx, "nats",
                      "variational")
        report.certificate("entropy_cross_check", ["spectral", "variational"],
                           [h, approx], "nats")


def _cmd_pressure(args, report):
    sft, pot = _sft_and_potential(args, report, beta=args.beta)
    tol = args.tol if args.tol is not None else 1e-13
    p = spectral_pressure(sft, pot, tol=tol)
    report.result("pressure", p, "nats", "spectral")
    if args.check:
        n = args.depth if args.depth is not None else 12
        pn = pressure_Pn(sft, pot, n, budget=args.budget).value
        report.result(f"Pn_over_n(n={n})", pn, "nats", "variational")
        report.certificate("pressure_cross_check", ["spectral", "variational"],
                           [p, pn], "nats")


def _cmd_gibbs(args, report):
    sft, pot = _sft_and_potential(args, report, beta=args.beta)
    tol = args.tol if args.tol is not None else 1e-13
    g = gibbs_measure(sft, pot, tol=tol)
    h = g.entropy()
    mean = g.expectation()
    report.result("pressure", g.pressure, "nats", "spectral")
    report.result("entropy", h, "nats", "spectral")
    report.result("potential_mean", mean, "nats", "spectral")
    report.result("equilibrium_residual", abs(h + mean - g.pressure), "nats",
                  "spectral")
    labels = list(g.sft.alphabet.labels)
    report.annotate("states", labels)
    report.annotate("stationary", [float(x) for x in g.markov.pi])
    report.annotate("transition", [[float(x) for x in row]
                                   for row in g.markov.P])
    report.annotate("eigen_residual", float(g.eigen.residual))
    if args.out:
        cols = ["state", "stationary"] + [f"to_{lab}" for lab in labels]
        rows = [[lab, float(g.markov.pi[i])] + [float(x) for x in g.markov.P[i]]
                for i, lab in enumerate(labels)]
        n_rows = _write_csv(args.out, cols, rows)
        report.artifact(args.out, cols, n_rows)


def _cmd_bounds(args, report):
    sft, pot = _sft_and_potential(args, report, beta=args.beta)
    g = gibbs_measure(sft, pot)
    n = args.depth if args.depth is not None else 8
    b = gibbs_bounds(g, n, budget=args.budget)
    report.result("c_min", b.c_min, "ratio", "enumeration")
    report.result("c_max", b.c_max, "ratio", "enumeration")
    report.annotate("depth", b.depth)
    report.annotate("argmin_word", g.sft.alphabet.word_string(b.argmin))
    report.annotate("argmax_word", g.sft.alphabet.word_string(b.argmax))


def _cmd_relent(args, report):
    sft, pot = _sft_and_potential(args, report, beta=args.beta)
    nu, labels = _chain(args, report)
    mu = gibbs_measure(sft, pot)
    closed = relative_entropy(nu, mu)
    report.result("relative_entropy", closed, "nats", "spectral")
    report.annotate("chain_states", labels)
    if args.check:
        n = args.depth if args.depth is not None else 12
        direct = relative_entropy_direct(nu, mu, n, budget=args.budget)
        report.result(f"relative_entropy_direct(n={n})", direct, "nats",
                      "enumeration")
        report.certificate("relent_cross_check", ["spectral", "enumeration"],
                           [closed, direct], "nats")


def _cmd_sample(args, report):
    nu, labels = _chain(args, report)
    length = args.depth if args.depth is not None else 1000
    path = nu.sample_path(length, args.seed)
    est = smb_estimate(nu, path)
    h = nu.entropy()
    report.result("smb_estimate", est, "nats", "enumeration")
    report.result("entropy_rate", h, "nats", "variational")
    report.certificate("smb_vs_entropy", ["enumeration", "variational"],
                       [est, h], "nats")
    report.annotate("seed", args.seed)
    report.annotate("length", length)
    report.annotate("path_prefix", "".join(labels[s] for s in path[:200]))
    if args.out:
        rows = [(i, int(s), labels[s]) for i, s in enumerate(path)]
        n_rows = _write_csv(args.out, ["step", "symbol", "label"], rows)
        report.artifact(args.out, ["step", "symbol", "label"], n_rows)


def _cmd_aep(args, report):
    nu, labels = _chain(args, report)
    n = args.depth if args.depth is not None else 10
    part = aep_partition(nu, n, args.alpha, budget=args.budget)
    report.result("typical_count", float(part.typical_count), "count",
                  "enumeration")
    report.result("typical_mass", part.typical_mass, "probability",
                  "enumeration")
    report.result("exceptional_mass", part.exceptional_mass, "probability",
                  "enumeration")
    report.annotate("entropy_rate", float(nu.entropy()))
    report.annotate("alpha", args.alpha)
    report.annotate("depth", n)


def _cmd_periodic(args, report):
    model = _load(args.sft, "sft")
    report.input(model)
    sft = modelio.build_sft(model)
    count = sft.periodic_count(args.n)
    try:
        value = float(count)
    except OverflowError:   # reported as "inf"; exact_count keeps the digits
        value = math.inf
    report.result(f"periodic_count(n={args.n})", value, "count", "spectral")
    report.annotate("exact_count", str(count))
    if args.check:
        T = sft.transition
        _check_budget(T, args.n, args.budget)
        brute = sum(int(T[w[:, -1], w[:, 0]].sum())
                    for w in _word_blocks(T, args.n))
        report.result(f"periodic_count_brute(n={args.n})", float(brute),
                      "count", "enumeration")
        report.certificate("periodic_cross_check", ["spectral", "enumeration"],
                           [float(count), float(brute)], "count")
    if args.out:
        rows = [(k, str(sft.periodic_count(k))) for k in range(1, args.n + 1)]
        n_rows = _write_csv(args.out, ["n", "count"], rows)
        report.artifact(args.out, ["n", "count"], n_rows)


def _cmd_production(args, report):
    nu, labels = _chain(args, report)
    forward = markov_as_gibbs(nu.P, labels=labels)
    reversed_chain = nu.time_reversal()
    backward = markov_as_gibbs(reversed_chain.P, labels=labels)
    ep = relative_entropy(forward.markov, backward)
    report.result("entropy_production", ep, "nats", "variational")
    reversible = bool(np.max(np.abs(nu.P - reversed_chain.P)) <= 1e-12)
    report.annotate("reversible", reversible)
    if args.check:
        n = args.depth if args.depth is not None else 12
        direct = relative_entropy_direct(forward.markov, backward, n,
                                         budget=args.budget)
        report.result(f"entropy_production_direct(n={n})", direct, "nats",
                      "enumeration")
        report.certificate("production_cross_check",
                           ["variational", "enumeration"], [ep, direct],
                           "nats")


def _cmd_lattice(args, report):
    sft, pot = _sft_and_potential(args, report)
    eq = lattice_equilibrium(args.n, pot, args.beta, budget=args.budget,
                             with_masses=bool(args.out))
    report.result(f"ring_pressure(n={args.n})", eq.pressure, "nats",
                  "variational")
    if args.check and pot.r <= 2:
        trace_val = lattice_pressure_trace(args.n, pot, args.beta)
        report.result(f"ring_pressure_trace(n={args.n})", trace_val, "nats",
                      "spectral")
        report.certificate("lattice_cross_check", ["variational", "spectral"],
                           [eq.pressure, trace_val], "nats")
    if args.out:
        rows = [(sft.alphabet.word_string(w), m)
                for w, m in sorted(eq.masses.items())]
        n_rows = _write_csv(args.out, ["configuration", "mass"], rows)
        report.artifact(args.out, ["configuration", "mass"], n_rows)


def _cmd_ising(args, report):
    beta = args.beta
    pot = ising_potential(beta)
    sft = pot.sft
    tol = args.tol if args.tol is not None else 1e-13
    p = spectral_pressure(sft, pot, tol=tol)
    exact = ising_pressure_exact(beta)
    report.result("pressure", p, "nats", "spectral")
    report.result("pressure_closed_form", exact, "nats", "variational")
    report.certificate("ising_pressure", ["spectral", "variational"],
                       [p, exact], "nats")
    g = gibbs_measure(sft, pot, tol=tol)
    corr = g.expectation(ising_potential(1.0))
    report.result("correlation", corr, "dimensionless", "spectral")
    report.result("correlation_closed_form", float(np.tanh(beta)),
                  "dimensionless", "variational")
    report.certificate("ising_correlation", ["spectral", "variational"],
                       [corr, float(np.tanh(beta))], "dimensionless")
    if args.n is not None:
        ring = lattice_pressure_trace(args.n, ising_potential(1.0), beta)
        report.result(f"ring_pressure(n={args.n})", ring, "nats", "spectral")
        report.certificate("ising_ring", ["spectral", "spectral"],
                           [p, ring], "nats")
    if args.target is not None:
        matched = ising_match(args.target)
        report.result("matched_beta", matched, "dimensionless", "spectral")
        report.result("matched_beta_closed_form", float(np.arctanh(args.target)),
                      "dimensionless", "variational")
        report.certificate("ising_match", ["spectral", "variational"],
                           [matched, float(np.arctanh(args.target))],
                           "dimensionless")


def _cmd_hofbauer_scan(args, report):
    model = _load(args.family, "hofbauer-family")
    report.input(model)
    fam = modelio.build_hofbauer(model)
    tol = args.tol if args.tol is not None else 1e-12
    diag = diagnose(fam)
    report.annotate("classification", diag.classification)
    report.result("series_partial_sum", diag.sum_partial, "dimensionless",
                  "renewal")
    report.result("series_tail_bound", diag.sum_tail_bound, "dimensionless",
                  "renewal")
    report.result("weighted_partial_sum", diag.weighted_partial,
                  "dimensionless", "renewal")
    report.result("weighted_tail_bound", diag.weighted_tail_bound,
                  "dimensionless", "renewal")
    report.annotate("truncation_K", diag.truncation_K)
    pressures = []
    for beta in args.betas:
        p = pressure_renewal(fam, beta, tol=tol)
        pressures.append(p)
        report.result(f"pressure(beta={beta:g})", p, "nats", "renewal")
    if args.check:
        for beta, p in zip(args.betas, pressures):
            oracle = pressure_periodic(fam, beta, n=18)
            report.certificate(f"pressure(beta={beta:g})",
                               ["renewal", "variational"], [p, oracle], "nats")
        curve = pressure_curve(fam, args.betas, kink=args.kink,
                               kink_steps=tuple(args.steps), tol=tol)
        for h, q in sorted(curve.left_quotients.items()):
            report.result(f"left_quotient(h={h:g})", q, "nats", "renewal")
        for h, q in sorted(curve.right_quotients.items()):
            report.result(f"right_quotient(h={h:g})", q, "nats", "renewal")
    if args.out:
        rows = list(zip(args.betas, pressures))
        n_rows = _write_csv(args.out, ["beta", "pressure"], rows)
        report.artifact(args.out, ["beta", "pressure"], n_rows)


def _cmd_dimension(args, report):
    model = _load(args.map, "markov-map")
    report.input(model)
    imap = modelio.build_interval_map(model)
    tol = args.tol if args.tol is not None else 1e-12
    res = bowen_dimension(imap, tol=tol)
    report.result("dimension", res.dimension, "dimensionless", "spectral")
    report.result("pressure_residual", res.residual, "nats", "spectral")
    report.annotate("iterations", res.iterations)
    if args.check:
        res2 = bowen_dimension(imap.squared(), tol=tol)
        report.result("dimension_of_square", res2.dimension, "dimensionless",
                      "spectral")
        report.certificate("square_recoding", ["spectral", "spectral"],
                           [res.dimension, res2.dimension], "dimensionless")


def _cmd_acim(args, report):
    model = _load(args.map, "markov-map")
    report.input(model)
    imap = modelio.build_interval_map(model)
    tol = args.tol if args.tol is not None else 1e-13
    res = acim(imap, tol=tol)
    report.result("pressure_residual", res.pressure_residual, "nats",
                  "spectral")
    report.result("entropy", res.measure.entropy(), "nats", "spectral")
    intervals = []
    for s, i in enumerate(res.coded.symbols):
        lo, hi = imap.interval(i)
        intervals.append([str(lo), str(hi)])
        report.result(f"density[{s}]", res.densities[s], "density", "spectral")
    report.annotate("intervals", intervals)
    if args.check:
        n = args.depth if args.depth is not None else 8
        lo, hi = res.certificate(n, budget=args.budget)
        report.certificate("density_ratio_extremes", ["enumeration"],
                           [lo, hi], "density")
    if args.out:
        rows = [(iv[0], iv[1], res.densities[s])
                for s, iv in enumerate(intervals)]
        n_rows = _write_csv(args.out, ["left", "right", "density"], rows)
        report.artifact(args.out, ["left", "right", "density"], n_rows)


def _cmd_pn_scan(args, report):
    sft, pot = _sft_and_potential(args, report, beta=args.beta)
    ref = spectral_pressure(sft, pot)
    report.result("pressure", ref, "nats", "spectral")
    values = []
    for n in range(1, args.n_max + 1):
        pn = pressure_Pn(sft, pot, n, budget=args.budget).value
        values.append(pn)
        report.result(f"Pn_over_n(n={n})", pn, "nats", "variational")
    report.certificate(f"Pn_vs_spectral(n={args.n_max})",
                       ["variational", "spectral"], [values[-1], ref], "nats")
    if args.out:
        rows = [(n, v, ref) for n, v in enumerate(values, start=1)]
        n_rows = _write_csv(args.out, ["n", "pn_over_n", "spectral"], rows)
        report.artifact(args.out, ["n", "pn_over_n", "spectral"], n_rows)


# -- argument wiring ------------------------------------------------------------


def _floats(text):
    """argparse type: comma-separated floats (empty items are skipped)."""
    return [float(s) for s in text.split(",") if s.strip()]


def _positive_int(text):
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _common(sp, *names, seed_required=False):
    if "tol" in names:
        sp.add_argument("--tol", type=float, default=None,
                        help="residual tolerance (per-command default)")
    if "depth" in names:
        sp.add_argument("--depth", type=_positive_int, default=None,
                        help="cylinder depth / path length")
    if "budget" in names:
        sp.add_argument("--budget", type=int, default=10 ** 7,
                        help="enumeration budget")
    if "seed" in names:
        sp.add_argument("--seed", type=int, required=seed_required,
                        help="64-bit RNG seed")
    if "check" in names:
        sp.add_argument("--check", action="store_true",
                        help="run the second-method cross-validation")
    if "out" in names:
        sp.add_argument("--out", metavar="PATH.CSV", default=None,
                        help="write the tabular artifact here")
    sp.add_argument("--bits", action="store_true",
                    help="report nats-valued quantities in bits")


def build_parser() -> _Parser:
    parser = _Parser(prog="thermoshift",
                     description="thermodynamic formalism on subshifts: "
                                 "pressure, equilibrium states, dimensions")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("entropy", help="topological entropy of a subshift")
    sp.add_argument("sft")
    _common(sp, "tol", "depth", "check")
    sp.set_defaults(fn=_cmd_entropy)

    sp = sub.add_parser("pressure", help="topological pressure of a potential")
    sp.add_argument("sft")
    sp.add_argument("potential")
    sp.add_argument("--beta", type=float, default=1.0)
    _common(sp, "tol", "depth", "budget", "check")
    sp.set_defaults(fn=_cmd_pressure)

    sp = sub.add_parser("gibbs", help="equilibrium state in Markov form")
    sp.add_argument("sft")
    sp.add_argument("potential")
    sp.add_argument("--beta", type=float, default=1.0)
    _common(sp, "tol", "out")
    sp.set_defaults(fn=_cmd_gibbs)

    sp = sub.add_parser("bounds", help="enumerated Gibbs ratio envelope")
    sp.add_argument("sft")
    sp.add_argument("potential")
    sp.add_argument("--beta", type=float, default=1.0)
    _common(sp, "depth", "budget")
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("relent", help="relative entropy rate h(chain | gibbs)")
    sp.add_argument("sft")
    sp.add_argument("potential")
    sp.add_argument("chain")
    sp.add_argument("--beta", type=float, default=1.0)
    _common(sp, "depth", "budget", "check")
    sp.set_defaults(fn=_cmd_relent)

    sp = sub.add_parser("sample", help="seeded sample path and SMB estimate")
    sp.add_argument("chain")
    _common(sp, "depth", "seed", "out", seed_required=True)
    sp.set_defaults(fn=_cmd_sample)

    sp = sub.add_parser("aep", help="typical-set partition at depth n")
    sp.add_argument("chain")
    sp.add_argument("--alpha", type=float, default=0.1)
    _common(sp, "depth", "budget")
    sp.set_defaults(fn=_cmd_aep)

    sp = sub.add_parser("periodic", help="periodic point counts")
    sp.add_argument("sft")
    sp.add_argument("--n", type=_positive_int, required=True)
    _common(sp, "budget", "check", "out")
    sp.set_defaults(fn=_cmd_periodic)

    sp = sub.add_parser("production", help="entropy production of a chain")
    sp.add_argument("chain")
    _common(sp, "depth", "budget", "check")
    sp.set_defaults(fn=_cmd_production)

    sp = sub.add_parser("lattice", help="finite-ring equilibrium pressure")
    sp.add_argument("sft")
    sp.add_argument("potential")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--budget", type=int, default=2 ** 22,
                    help="ring configuration budget")
    _common(sp, "check", "out")
    sp.set_defaults(fn=_cmd_lattice)

    sp = sub.add_parser("ising", help="nearest-neighbour spin chain")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--n", type=_positive_int, default=None,
                    help="also compute the ring value at this size")
    sp.add_argument("--target", type=float, default=None,
                    help="solve for the beta matching this correlation")
    _common(sp, "tol")
    sp.set_defaults(fn=_cmd_ising)

    sp = sub.add_parser("hofbauer-scan",
                        help="renewal pressure scan of a run-length family")
    sp.add_argument("family")
    sp.add_argument("--betas", type=_floats, default="0.8,0.9,1.0,1.1,1.2",
                    help="comma-separated inverse temperatures")
    sp.add_argument("--kink", type=float, default=1.0)
    sp.add_argument("--steps", type=_floats, default="1e-2,1e-3,1e-4",
                    help="difference-quotient steps used with --check")
    _common(sp, "tol", "check", "out")
    sp.set_defaults(fn=_cmd_hofbauer_scan)

    sp = sub.add_parser("dimension", help="Hausdorff dimension via the "
                                          "pressure equation")
    sp.add_argument("map")
    _common(sp, "tol", "check")
    sp.set_defaults(fn=_cmd_dimension)

    sp = sub.add_parser("acim", help="invariant density of a covering map")
    sp.add_argument("map")
    _common(sp, "tol", "depth", "budget", "check", "out")
    sp.set_defaults(fn=_cmd_acim)

    sp = sub.add_parser("pn-scan", help="finite pressure approximants P_n/n")
    sp.add_argument("sft")
    sp.add_argument("potential")
    sp.add_argument("--n-max", type=_positive_int, default=12)
    sp.add_argument("--beta", type=float, default=1.0)
    _common(sp, "budget", "out")
    sp.set_defaults(fn=_cmd_pn_scan)

    return parser


def _diag(exc):
    parts = [str(exc)]
    line = getattr(exc, "line", None)
    column = getattr(exc, "column", None)
    fld = getattr(exc, "field", None)
    if line is not None:
        where = f"line {line}" + ("" if column is None else f", column {column}")
        parts.append(f"({where})")
    if fld is not None:
        parts.append(f"[field: {fld}]")
    return " ".join(parts)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.cmd, argv)
    start = time.perf_counter()
    try:
        args.fn(args, report)
    except ModelSyntaxError as exc:
        print(f"syntax error: {_diag(exc)}", file=sys.stderr)
        return EXIT_SYNTAX
    except ModelSchemaError as exc:
        print(f"schema error: {_diag(exc)}", file=sys.stderr)
        return EXIT_SCHEMA
    except ModelSemanticError as exc:
        print(f"semantic error: {_diag(exc)}", file=sys.stderr)
        return EXIT_SEMANTIC
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except (ThermoshiftError, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    if args.bits:
        report.to_bits()
    report.emit(time.perf_counter() - start)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
