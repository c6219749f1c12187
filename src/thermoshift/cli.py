"""Batch front-end: parse model files, dispatch computations, emit reports.

Reports are JSON documents of the form

    {"payload": {...}, "digest": "<sha256 of canonical payload>",
     "meta": {"wall_time_s": ...}}

The payload is deterministic for a fixed invocation (same files, flags,
seed); wall time lives in meta, outside the digest.  Every numeric result
carries a method tag naming the engine that produced it (spectral,
variational, renewal, enumeration), and whenever two engines computed the
same quantity the report includes their discrepancy.  Entropies, pressures
and rates are in nats.  Curves and tables go to CSV (RFC 4180: CRLF, headers
always) via --out.

Exit codes: 0 success, 1 computation error, 2 budget exceeded, 3 syntax
(invocation, unreadable model file, unwritable --out path or stdout, or
malformed model text), 4 schema violation, 5 semantic invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Iterator, Sized
from itertools import chain, repeat

import numpy as np

from . import modelio
from .errors import (BudgetError, ModelSchemaError, ModelSemanticError,
                     ModelSyntaxError, ThermoshiftError)
# each handler imports the engines it calls, so a call loads no other engine

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_BUDGET = 2
EXIT_SYNTAX = 3
EXIT_SCHEMA = 4
EXIT_SEMANTIC = 5

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
        disc = float(np.ptp(values))
        self.payload["certificates"].append(
            {"name": name, "methods": list(methods), "values": values,
             "discrepancy": disc, "units": units})

    def annotate(self, key, value):
        self.payload["annotations"][key] = value

    def table(self, path, columns, data):
        """Write ``data``, one sequence per column, as a CSV artifact under
        the header ``columns``, and record it."""
        rows = _write_csv(path, columns, data)
        self.payload["artifacts"].append(
            {"path": str(path), "columns": list(columns), "rows": rows})

    def emit(self, wall_time):
        payload = _sanitize(self.payload)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"), allow_nan=False)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        doc = {"payload": payload, "digest": f"sha256:{digest}",
               "meta": {"wall_time_s": round(wall_time, 6)}}
        try:
            print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False),
                  flush=True)
        except OSError as exc:   # a closed pipe, a full disk
            raise _FileError(f"cannot write output: {exc}") from None


def _entries(array):
    """The entries of a 1-D array as Python objects, a chunk at a time
    (``_numerics.chunks``), so a long column never exists as one list."""
    from ._numerics import chunks

    return chain.from_iterable(array[s].tolist() for s in chunks(len(array)))


def _fields(column):
    """A column's CSV fields, formatted lazily.  A range or an iterator (a
    ``map`` over the caller's data, say) is taken to yield finished fields,
    ints or strings, and goes to the csv writer as it is.  Any other column,
    a list or tuple through ``np.asarray``, is formatted by its dtype, a
    chunk at a time: floats map to 17 significant digits, and bools, ints
    and strings go to the writer as they are, which applies str itself."""
    if isinstance(column, (range, Iterator)):
        return column
    column = np.asarray(column)
    values = _entries(column)
    if column.dtype.kind == "f":
        return map(format, values, repeat(".17g"))
    return values


class _FileError(Exception):
    """A model file that cannot be read, or an --out path or stdout that
    cannot be written; the message says which."""


def _write_csv(path, header, columns):
    """RFC 4180 table from equal-length columns: CRLF endings, header row,
    floats at 17 significant digits.  Rows are streamed, never built.
    Returns the row count, the length of the first column that has one."""
    import csv

    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(zip(*map(_fields, columns)))
    except OSError as exc:
        raise _FileError(f"cannot write output: {exc}") from None
    return next(len(column) for column in columns if isinstance(column, Sized))


# model-file positional -> the kind of file it names
_KINDS = {"sft": "sft", "potential": "potential", "chain": "markov-chain",
          "map": "markov-map", "family": "hofbauer-family"}


def _load(report, path, kind, loaded):
    """Parse a model file of the given kind, record its digest and return
    what the handler takes from it: the engine object, followed by the labels
    if it is a chain.  A potential is bound to the subshift loaded before it
    and takes that subshift's place in ``loaded``, as it carries it as
    ``sft``."""
    try:
        model = modelio.parse(path)
    except OSError as exc:
        raise _FileError(f"cannot read input: {exc}") from None
    if model.kind != kind:
        raise ModelSemanticError(
            f"{path}: expected kind {kind!r}, got {model.kind!r}", field="kind")
    report.input(model)
    if kind == "potential":
        return [modelio.bind_potential(model, loaded.pop())]
    if kind == "markov-chain":
        return [model.obj, modelio.chain_labels(model)]
    return [model.obj]


# -- command handlers ----------------------------------------------------------


def _cmd_entropy(args, report, sft):
    h = sft.topological_entropy()
    report.result("topological_entropy", h, "nats", "spectral")
    mix = sft.validate()
    report.annotate("primitive", mix.primitive)
    report.annotate("primitivity_power", mix.p0)
    if args.check:
        n = args.depth
        approx = math.log(sft.count_words(n)) / n
        report.result(f"log_word_count_over_n(n={n})", approx, "nats",
                      "variational")
        report.certificate("entropy_cross_check", ["spectral", "variational"],
                           [h, approx], "nats")


def _cmd_pressure(args, report, pot):
    from .transfer import pressure as spectral_pressure

    pot = pot.scale(args.beta)
    p = spectral_pressure(pot)
    report.result("pressure", p, "nats", "spectral")
    if args.check:
        from .variational import pressure_Pn
        n = args.depth
        pn = pressure_Pn(pot, n, budget=args.budget)
        report.result(f"Pn_over_n(n={n})", pn, "nats", "variational")
        report.certificate("pressure_cross_check", ["spectral", "variational"],
                           [p, pn], "nats")


def _cmd_gibbs(args, report, pot):
    from .transfer import gibbs_measure

    g = gibbs_measure(pot.scale(args.beta))
    h = g.entropy()
    mean = g.expectation()
    report.result("pressure", g.pressure, "nats", "spectral")
    report.result("entropy", h, "nats", "spectral")
    report.result("potential_mean", mean, "nats", "spectral")
    report.result("equilibrium_residual", abs(h + mean - g.pressure), "nats",
                  "spectral")
    labels = list(g.potential.sft.alphabet.labels)
    report.annotate("states", labels)
    report.annotate("stationary", [float(x) for x in g.pi])
    report.annotate("transition", [[float(x) for x in row]
                                   for row in g.P])
    report.annotate("eigen_bracket_width", g.eigen.hi / g.eigen.lo - 1.0)
    if args.out:
        report.table(args.out,
                     ["state", "stationary", *(f"to_{lab}" for lab in labels)],
                     [labels, g.pi, *g.P.T])


def _cmd_bounds(args, report, pot):
    from .transfer import gibbs_bounds, gibbs_measure

    g = gibbs_measure(pot.scale(args.beta))
    b = gibbs_bounds(g, args.depth, budget=args.budget)
    report.result("c_min", b.c_min, "ratio", "enumeration")
    report.result("c_max", b.c_max, "ratio", "enumeration")
    report.annotate("depth", args.depth)
    alphabet = g.potential.sft.alphabet
    report.annotate("argmin_word", alphabet.word_string(b.argmin))
    report.annotate("argmax_word", alphabet.word_string(b.argmax))


def _cmd_relent(args, report, pot, nu, labels):
    from .measures import relative_entropy, relative_entropy_direct
    from .transfer import gibbs_measure

    mu = gibbs_measure(pot.scale(args.beta))
    closed = relative_entropy(nu, mu)
    report.result("relative_entropy", closed, "nats", "spectral")
    report.annotate("chain_states", labels)
    if args.check:
        direct = relative_entropy_direct(nu, mu, args.depth, budget=args.budget)
        report.result(f"relative_entropy_direct(n={args.depth})", direct,
                      "nats", "enumeration")
        report.certificate("relent_cross_check", ["spectral", "enumeration"],
                           [closed, direct], "nats")


def _cmd_sample(args, report, nu, labels):
    from .measures import smb_estimate

    length = args.depth
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
        report.table(args.out, ["step", "symbol", "label"],
                     [range(len(path)), path,
                      map(labels.__getitem__, _entries(path))])


def _cmd_aep(args, report, nu, _labels):
    from .measures import aep_partition

    n = args.depth
    part = aep_partition(nu, n, args.alpha, budget=args.budget)
    report.result("typical_count", float(part.typical_count), "count",
                  "enumeration")
    report.result("typical_mass", part.typical_mass, "probability",
                  "enumeration")
    report.result("exceptional_mass", part.exceptional_mass, "probability",
                  "enumeration")
    report.annotate("entropy_rate", part.entropy_rate)
    report.annotate("alpha", args.alpha)
    report.annotate("depth", n)


def _cmd_periodic(args, report, sft):
    from decimal import Decimal   # whose str has no int-string digit limit
    from .sft import _trace_powers, _word_blocks

    count = sft.periodic_count(args.n, args.budget)
    try:
        value = float(count)
    except OverflowError:   # reported as "inf"; exact_count keeps the digits
        value = math.inf
    report.result(f"periodic_count(n={args.n})", value, "count", "spectral")
    report.annotate("exact_count", str(Decimal(count)))
    if args.check:
        T = sft.transition
        brute = sum(int(T[w[:, -1], w[:, 0]].sum())
                    for w in _word_blocks(T, args.n, budget=args.budget))
        report.result(f"periodic_count_brute(n={args.n})", float(brute),
                      "count", "enumeration")
        report.certificate("periodic_cross_check", ["spectral", "enumeration"],
                           [float(count), float(brute)], "count")
    if args.out:
        counts = _trace_powers(sft.transition, args.n, args.budget)
        report.table(args.out, ["n", "count"],
                     [range(1, args.n + 1), map(str, map(Decimal, counts))])


def _cmd_production(args, report, nu, _labels):
    from .measures import entropy_production, relative_entropy_direct

    ep = entropy_production(nu)
    report.result("entropy_production", ep, "nats", "variational")
    reversed_chain = nu.time_reversal()
    reversible = bool(np.max(np.abs(nu.P - reversed_chain.P)) <= 1e-12)
    report.annotate("reversible", reversible)
    if args.check:
        n = args.depth
        direct = relative_entropy_direct(nu, reversed_chain, n, budget=args.budget)
        report.result(f"entropy_production_direct(n={n})", direct, "nats",
                      "enumeration")
        report.certificate("production_cross_check",
                           ["variational", "enumeration"], [ep, direct],
                           "nats")


def _cmd_lattice(args, report, pot):
    from .variational import lattice_equilibrium, lattice_pressure_trace

    eq = lattice_equilibrium(args.n, pot, args.beta, budget=args.budget)
    report.result(f"ring_pressure(n={args.n})", eq.pressure, "nats",
                  "variational")
    if args.check:
        trace_val = lattice_pressure_trace(args.n, pot, args.beta)
        report.result(f"ring_pressure_trace(n={args.n})", trace_val, "nats",
                      "spectral")
        report.certificate("lattice_cross_check", ["variational", "spectral"],
                           [eq.pressure, trace_val], "nats")
    if args.out:
        report.table(args.out, ["configuration", "mass"],
                     [eq.configurations(pot.sft.alphabet), eq.masses])


def _cmd_ising(args, report):
    from .transfer import gibbs_measure
    from .variational import (ising_match, ising_potential, ising_pressure_exact,
                              lattice_pressure_trace)

    beta = args.beta
    g = gibbs_measure(ising_potential(beta))
    p = g.pressure
    exact = ising_pressure_exact(beta)
    report.result("pressure", p, "nats", "spectral")
    report.result("pressure_closed_form", exact, "nats", "variational")
    report.certificate("ising_pressure", ["spectral", "variational"],
                       [p, exact], "nats")
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


def _cmd_hofbauer_scan(args, report, fam):
    from .hofbauer import (diagnose, kink_quotients, pressure_periodic,
                           pressure_renewal)

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
        p = pressure_renewal(fam, beta)
        pressures.append(p)
        report.result(f"pressure(beta={beta:g})", p, "nats", "renewal")
    if args.check:
        for beta, p in zip(args.betas, pressures):
            oracle = pressure_periodic(fam, beta, n=18)
            report.certificate(f"pressure(beta={beta:g})",
                               ["renewal", "variational"], [p, oracle], "nats")
        left, right = kink_quotients(fam, args.kink,
                                     known=dict(zip(args.betas, pressures)))
        for h, q in sorted(left.items()):
            report.result(f"left_quotient(h={h:g})", q, "nats", "renewal")
        for h, q in sorted(right.items()):
            report.result(f"right_quotient(h={h:g})", q, "nats", "renewal")
    if args.out:
        report.table(args.out, ["beta", "pressure"], [args.betas, pressures])


def _cmd_dimension(args, report, imap):
    from .interval_maps import bowen_root, code, square_coding

    pot = code(imap)
    res = bowen_root(pot)
    report.result("dimension", res.dimension, "dimensionless", "spectral")
    report.result("pressure_residual", res.residual, "nats", "spectral")
    report.annotate("iterations", res.iterations)
    if args.check:
        res2 = bowen_root(square_coding(pot))
        report.result("dimension_of_square", res2.dimension, "dimensionless",
                      "spectral")
        report.certificate("square_recoding", ["spectral", "spectral"],
                           [res.dimension, res2.dimension], "dimensionless")


def _cmd_acim(args, report, imap):
    from .interval_maps import acim

    res = acim(imap)
    report.result("pressure_residual", res.pressure_residual, "nats",
                  "spectral")
    report.result("entropy", res.measure.entropy(), "nats", "spectral")
    densities = list(res.densities.values())
    intervals = [[str(x) for x in imap.interval(i)] for i in imap.branch_ids]
    for s, density in enumerate(densities):
        report.result(f"density[{s}]", density, "density", "spectral")
    report.annotate("intervals", intervals)
    if args.check:
        # every cylinder's mass(w) / |I_w| is the density on I_(w_0), so the
        # ratio extremes are the density extremes
        report.certificate("density_ratio_extremes", ["spectral"],
                           [min(densities), max(densities)], "density")
    if args.out:
        lefts, rights = zip(*intervals)
        report.table(args.out, ["left", "right", "density"],
                     [lefts, rights, densities])


def _cmd_pn_scan(args, report, pot):
    from .transfer import pressure as spectral_pressure
    from .variational import pressure_Pn_curve

    pot = pot.scale(args.beta)
    ref = spectral_pressure(pot)
    report.result("pressure", ref, "nats", "spectral")
    values = pressure_Pn_curve(pot, args.n_max, budget=args.budget)
    for n, pn in enumerate(values, 1):
        report.result(f"Pn_over_n(n={n})", pn, "nats", "variational")
    report.certificate(f"Pn_vs_spectral(n={args.n_max})",
                       ["variational", "spectral"], [values[-1], ref], "nats")
    if args.out:
        report.table(args.out, ["n", "pn_over_n", "spectral"],
                     [range(1, len(values) + 1), values, [ref] * len(values)])


# -- argument wiring ------------------------------------------------------------


def _typed(convert, accept, expected):
    """argparse type: ``convert`` the text and refuse a value ``accept``
    rejects, so a bad number is a usage error before any engine runs."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _comma_list(item):
    """Comma-separated values, each converted by ``item``; empty items are
    skipped."""
    return lambda text: [item(s) for s in text.split(",") if s.strip()]


_finite = _typed(float, math.isfinite, "a finite number")
_positive = _typed(float, lambda x: 0 < x < math.inf, "a positive finite number")
_count = _typed(int, lambda n: n >= 1, "an integer >= 1")

# flag -> add_argument keywords
_FLAGS = {
    "beta": {"type": _finite},
    "alpha": {"type": _positive},
    "n": {"type": _count, "help": "period or ring size"},
    "n-max": {"type": _count},
    "target": {"type": _finite,
               "help": "solve for the beta matching this correlation"},
    "betas": {"type": _typed(_comma_list(_finite), bool,
                             "a comma list of finite numbers"),
              "help": "comma-separated inverse temperatures"},
    "kink": {"type": _finite, "help": "the beta the --check quotients probe; "
             "the kink is at 1 only at depression 0 (default %(default)s)"},
    "depth": {"type": _count,
              "help": "cylinder depth / path length (default %(default)s)"},
    "budget": {"type": _count, "help": "cap on words or path-sum price"},
    "seed": {"type": _typed(int, lambda s: 0 <= s < 2 ** 64,
                            "an integer in [0, 2^64)"),
             "help": "64-bit RNG seed"},
    "check": {"action": "store_true",
              "help": "run the second-method cross-validation"},
    "out": {"metavar": "PATH.CSV", "help": "write the tabular artifact here"},
}

_REQUIRED = object()     # the default of a flag the command cannot run without
_BUDGET = 10 ** 7

# command -> (handler, help, model-file positionals, {flag: default}); main
# loads the model files in this order and calls the handler with their engine
# objects, a potential in place of its subshift.  The flags appear in this
# order in the usage line.
_COMMANDS = {
    "entropy": (_cmd_entropy, "topological entropy of a subshift", ["sft"],
                {"depth": 12, "check": False}),
    "pressure": (_cmd_pressure, "topological pressure of a potential",
                 ["sft", "potential"],
                 {"beta": 1.0, "depth": 12, "budget": _BUDGET, "check": False}),
    "gibbs": (_cmd_gibbs, "equilibrium state in Markov form",
              ["sft", "potential"], {"beta": 1.0, "out": None}),
    "bounds": (_cmd_bounds, "Gibbs ratio envelope at depth n",
               ["sft", "potential"],
               {"beta": 1.0, "depth": 8, "budget": _BUDGET}),
    "relent": (_cmd_relent, "relative entropy rate h(chain | gibbs)",
               ["sft", "potential", "chain"],
               {"beta": 1.0, "depth": 12, "budget": _BUDGET, "check": False}),
    "sample": (_cmd_sample, "seeded sample path and SMB estimate", ["chain"],
               {"depth": 1000, "seed": _REQUIRED, "out": None}),
    "aep": (_cmd_aep, "typical-set partition at depth n", ["chain"],
            {"alpha": 0.1, "depth": 10, "budget": _BUDGET}),
    "periodic": (_cmd_periodic, "periodic point counts", ["sft"],
                 {"n": _REQUIRED, "budget": _BUDGET, "check": False,
                  "out": None}),
    "production": (_cmd_production, "entropy production of a chain", ["chain"],
                   {"depth": 12, "budget": _BUDGET, "check": False}),
    "lattice": (_cmd_lattice, "finite-ring equilibrium pressure",
                ["sft", "potential"],
                {"n": _REQUIRED, "beta": 1.0, "budget": 2 ** 22,
                 "check": False, "out": None}),
    "ising": (_cmd_ising, "nearest-neighbour spin chain", [],
              {"beta": 1.0, "n": None, "target": None}),
    "hofbauer-scan": (_cmd_hofbauer_scan,
                      "renewal pressure scan of a run-length family",
                      ["family"],
                      {"betas": "0.8,0.9,1.0,1.1,1.2", "kink": 1.0,
                       "check": False, "out": None}),
    "dimension": (_cmd_dimension,
                  "Hausdorff dimension via the pressure equation", ["map"],
                  {"check": False}),
    "acim": (_cmd_acim, "invariant density of a covering map", ["map"],
             {"check": False, "out": None}),
    "pn-scan": (_cmd_pn_scan, "finite pressure approximants P_n/n",
                ["sft", "potential"],
                {"n-max": 12, "beta": 1.0, "budget": _BUDGET, "out": None}),
}


def build_parser(argv=()) -> _Parser:
    """The parser for ``argv``.  Every command is listed with its help, but
    only the command ``argv`` names gets its arguments."""
    parser = _Parser(prog="thermoshift",
                     description="thermodynamic formalism on subshifts: "
                                 "pressure, equilibrium states, dimensions")
    sub = parser.add_subparsers(dest="cmd", required=True)
    chosen = next((a for a in argv if not a.startswith("-")), None)
    for name, (_, text, models, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        if name != chosen:
            continue
        for model in models:
            sp.add_argument(model)
        for flag, default in flags.items():
            given = ({"required": True} if default is _REQUIRED
                     else {"default": default})
            sp.add_argument(f"--{flag}", **given, **_FLAGS[flag])
    return parser


# error class -> (exit code, what its diagnostic starts with); the first
# class the error is an instance of decides
_EXITS = {
    ModelSyntaxError: (EXIT_SYNTAX, "syntax error: "),
    ModelSchemaError: (EXIT_SCHEMA, "schema error: "),
    ModelSemanticError: (EXIT_SEMANTIC, "semantic error: "),
    BudgetError: (EXIT_BUDGET, "budget exceeded: "),
    _FileError: (EXIT_SYNTAX, ""),
    ThermoshiftError: (EXIT_COMPUTE, "computation error: "),
    ValueError: (EXIT_COMPUTE, "computation error: "),
    MemoryError: (EXIT_COMPUTE, "computation error: "),
}


def _diag(exc):
    """The error's message, then its line and column and its field where
    it carries them."""
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
    args = build_parser(argv).parse_args(argv)
    fn, _, positionals, _ = _COMMANDS[args.cmd]
    report = Report(args.cmd, argv)
    start = time.perf_counter()
    try:
        models = []
        for name in positionals:
            models += _load(report, getattr(args, name), _KINDS[name], models)
        fn(args, report, *models)
        report.emit(time.perf_counter() - start)
    except tuple(_EXITS) as exc:
        code, label = next(_EXITS[cls] for cls in _EXITS if isinstance(exc, cls))
        print(label + _diag(exc), file=sys.stderr)
        return code
    return EXIT_OK


def run():
    """The process entry point: ``main`` on ``sys.argv``, then the exit.

    When ``main`` returns, its report is flushed (``Report.emit``) and its
    CSV closed (``_write_csv``), so the process ends at once with
    ``os._exit`` and skips the interpreter's teardown, module finalisation
    and garbage collection: 40-50 ms of a 0.3 s call on a 2-vCPU machine
    (Python 3.11, numpy 2.4).  An exception ``main`` does not map to an exit
    code, a usage error's ``SystemExit`` included, takes the normal exit.
    ``main`` stays the in-process entry.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:   # a stream the process was started without
            try:
                stream.flush()
            except OSError:
                pass   # main reported the failed write already: exit 3
    os._exit(code)


if __name__ == "__main__":
    run()
