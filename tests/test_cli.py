"""End-to-end checks of the batch front-end: exit codes, report shape,
digest stability, CSV artifacts."""

import argparse
import contextlib
import copy
import csv
import hashlib
import inspect
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import yaml

from thermoshift import (LocallyConstantPotential, _numerics, cli, gibbs_measure,
                         golden_mean_shift, hofbauer, modelio)
from thermoshift.cli import main
from thermoshift.sft import SubshiftOfFiniteType
from thermoshift.transfer import build
from thermoshift.variational import lattice_equilibrium

from gibbs_oracle import mp_perron

MODELS = Path(__file__).parent.parent / "demos" / "models"

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def result(doc, name):
    for entry in doc["payload"]["results"]:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


def certificate(doc, name):
    for entry in doc["payload"]["certificates"]:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


def canonical(doc):
    return json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def test_report_shape_and_digest(capsys):
    code, doc = run(capsys, "entropy", MODELS / "full-shift.yaml")
    assert code == 0
    assert set(doc) == {"payload", "digest", "meta"}
    recomputed = hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()
    assert doc["digest"] == f"sha256:{recomputed}"
    assert doc["meta"]["wall_time_s"] >= 0.0
    payload = doc["payload"]
    assert payload["command"] == "entropy"
    assert payload["command_line"] == ["entropy", str(MODELS / "full-shift.yaml")]
    (digest,) = payload["inputs"].values()
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


def test_entropy_values_and_annotations(capsys):
    code, doc = run(capsys, "entropy", MODELS / "golden-mean.yaml")
    assert code == 0
    entry = result(doc, "topological_entropy")
    assert abs(entry["value"] - np.log(GOLDEN)) < 1e-10
    assert entry["units"] == "nats"
    assert entry["method"] == "spectral"
    assert doc["payload"]["annotations"]["primitive"] is True


def test_entropy_check_certificate(capsys):
    code, doc = run(capsys, "entropy", MODELS / "golden-mean.yaml",
                    "--check", "--depth", "12")
    assert code == 0
    cert = certificate(doc, "entropy_cross_check")
    assert cert["methods"] == ["spectral", "variational"]
    assert cert["discrepancy"] == pytest.approx(
        max(cert["values"]) - min(cert["values"]), abs=1e-15)
    assert 0.0 <= cert["discrepancy"] < 5e-2


def test_entropy_check_past_the_int64_range(capsys):
    # the word count at depth 100 is a Fibonacci number above 2^63
    code, doc = run(capsys, "entropy", MODELS / "golden-mean.yaml",
                    "--check", "--depth", "100")
    assert code == 0
    count = golden_mean_shift().count_words(100)
    assert count > 2 ** 63
    assert (result(doc, "log_word_count_over_n(n=100)")["value"]
            == math.log(count) / 100)


def test_payload_identical_across_runs(capsys):
    argv = ("pressure", MODELS / "golden-mean.yaml",
            MODELS / "run-weights.yaml", "--check")
    seen = set()
    for _ in range(3):
        code, doc = run(capsys, *argv)
        assert code == 0
        seen.add(canonical(doc))
    assert len(seen) == 1


def test_pressure_cross_check(capsys):
    code, doc = run(capsys, "pressure", MODELS / "golden-mean.yaml",
                    MODELS / "run-weights.yaml", "--check", "--depth", "12")
    assert code == 0
    cert = certificate(doc, "pressure_cross_check")
    assert cert["discrepancy"] < 5e-2
    assert result(doc, "pressure")["method"] == "spectral"


def test_gibbs_csv_artifact(capsys, tmp_path):
    out = tmp_path / "gibbs.csv"
    code, doc = run(capsys, "gibbs", MODELS / "golden-mean.yaml",
                    MODELS / "run-weights.yaml", "--out", out)
    assert code == 0
    assert result(doc, "equilibrium_residual")["value"] < 1e-10
    (art,) = doc["payload"]["artifacts"]
    assert art["path"] == str(out)
    assert art["columns"] == ["state", "stationary", "to_0", "to_1"]
    assert art["rows"] == 2
    raw = out.read_bytes()
    lines = raw.split(b"\r\n")
    assert raw.count(b"\n") == raw.count(b"\r\n") == 3
    assert lines[0] == b"state,stationary,to_0,to_1"
    # every float cell is the shortest 17-significant-digit form
    total = 0.0
    for line in lines[1:3]:
        cells = line.decode().split(",")
        for cell in cells[1:]:
            assert format(float(cell), ".17g") == cell
        total += float(cells[1])
    assert abs(total - 1.0) < 1e-12


def test_bounds_command(capsys):
    code, doc = run(capsys, "bounds", MODELS / "golden-mean.yaml",
                    MODELS / "run-weights.yaml", "--depth", "8")
    assert code == 0
    lo = result(doc, "c_min")["value"]
    hi = result(doc, "c_max")["value"]
    assert 0.0 < lo <= hi
    notes = doc["payload"]["annotations"]
    assert notes["depth"] == 8
    assert len(notes["argmin_word"]) == 8


# a range-2 potential whose weights span e^-16 to e^24 on a 6-symbol
# subshift: its Gibbs masses run from 1 down to 2.4e-49, so a pi that is
# accurate only in the sup norm puts c_max orders of magnitude above 1
WIDE_ROWS = [[1, 0, 0, 0, 1, 0], [1, 1, 0, 1, 1, 0], [0, 0, 1, 0, 0, 1],
             [0, 0, 1, 1, 0, 1], [0, 1, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0]]
WIDE_VALUES = {"aa": "21.946254", "ae": "6.712575", "ba": "7.915837",
               "bb": "-5.059592", "bd": "-8.044109", "be": "-7.971486",
               "cc": "18.840701", "cf": "13.218415", "dc": "-0.204204",
               "dd": "3.007395", "df": "-6.902013", "eb": "24.397105",
               "ee": "5.219778", "fa": "-16.444177", "fc": "-4.458045"}


def wide_model(tmp_path):
    sft, pot = tmp_path / "wide-sft.yaml", tmp_path / "wide-potential.yaml"
    sft.write_text("version: v1\nkind: sft\nlabels: [a, b, c, d, e, f]\n"
                   "transition:\n" + "".join(f"  - {row}\n" for row in WIDE_ROWS))
    pot.write_text("version: v1\nkind: potential\nrange: 2\nvalues:\n" + "".join(
        f'  "{w}": {x}\n' for w, x in WIDE_VALUES.items()))
    return sft, pot


def closed_form_gibbs_constants(A, n, dps=60):
    """c_min and c_max at depth n of the Gibbs state of the matrix A, in
    mpmath at dps digits.  The ratio of a word telescopes to u(w_0) g(w_(n-1)),
    u and v the left and right Perron vectors (u . v = 1) and
    g(z) = v_z lam / max_b A[z, b], so the extremes are those of u_a g_b over
    the pairs (a, b) joined by an admissible (n-1)-path."""
    m = len(A)
    joined = np.linalg.matrix_power((A > 0).astype(object), n - 1)
    with mpmath.workdps(dps):
        lam, _, v, u = mp_perron(A, dps)
        ratios = [u[a] * v[b] * lam / mpmath.mpf(max(A[b]))
                  for a in range(m) for b in range(m) if joined[a, b]]
        return min(ratios), max(ratios), v, [x * y for x, y in zip(u, v)]


@pytest.mark.parametrize("depth", [8, 20, 200])
def test_wide_model_gibbs_constants_are_the_closed_form(capsys, tmp_path, depth):
    # the pass telescopes the returned chain to pi_a / v_a * v_b * lam e^-max
    # phi(b) times n - 1 factors lam / r, r = (A v) / v, each within the
    # bracket: against the closed form its log is off by at most
    # e_pi + s_v (the largest |log| entry error of pi, and the spread of the
    # log entry errors of v, whose scale cancels), n times the
    # bracket's log width plus (m + 1) u on each side of every ratio, and
    # (n + 1)^2 (m + 4 + 3 T) u for rounding the n + 1 terms of the sum (each
    # to (m + 4 + 3 T) u, T the largest |log pi| or |log P| + |phi| + p)
    code, doc = run(capsys, "bounds", *wide_model(tmp_path), "--depth", depth)
    assert code == 0
    sft = SubshiftOfFiniteType(list("abcdef"), WIDE_ROWS)
    pot = LocallyConstantPotential(sft, 2, {
        ("abcdef".index(w[0]), "abcdef".index(w[1])): float(x)
        for w, x in WIDE_VALUES.items()})
    mu, A = gibbs_measure(pot), build(pot)
    c_min, c_max, v, pi = closed_form_gibbs_constants(A, depth)
    errors = [abs(math.log(result(doc, name)["value"] / float(exact)))
              for name, exact in (("c_min", c_min), ("c_max", c_max))]
    assert max(errors) < 1e-8
    log_v = [math.log(float(x / y)) for x, y in zip(mu.eigen.v, v)]
    s_v = max(log_v) - min(log_v)
    e_pi = max(abs(math.log(float(x / y))) for x, y in zip(mu.pi, pi))
    u, m, n = np.finfo(float).eps / 2, 6, depth
    admissible = A > 0
    T = max(float(np.max(-np.log(mu.pi))), float(np.max(
        np.abs(np.log(mu.P[admissible])) + np.abs(np.log(A[admissible]))
        + abs(mu.pressure))))
    # log(hi / lo) holds the rounding of the ratios, 2 (m + 1) u, by which
    # the bracket is widened
    bound = (e_pi + s_v + n * math.log(mu.eigen.hi / mu.eigen.lo)
             + (n + 1) ** 2 * (m + 4 + 3 * T) * u)
    assert max(errors) <= bound < 1e-8
    # the closed form is 1 - 1.48e-12 and 1.0733e-52 at every depth here
    assert abs(float(c_max) - 1.0) < 2e-12
    assert abs(float(c_min) / 1.0733430058992484e-52 - 1.0) < 1e-12


def test_gibbs_at_couplings_of_400_keeps_both_states(capsys, tmp_path):
    # the off-diagonal of P is e^-800, 0 as a double, so P alone has two
    # recurrent classes; pi comes from the rates A v, which keep both joined
    pot = tmp_path / "couplings.yaml"
    pot.write_text("version: v1\nkind: potential\nrange: 2\n"
                   'values: {"00": 400, "01": -400, "10": -400, "11": 400}\n')
    code, doc = run(capsys, "gibbs", MODELS / "full-shift.yaml", pot)
    assert code == 0
    notes = doc["payload"]["annotations"]
    assert notes["transition"] == [[1.0, 0.0], [0.0, 1.0]]
    assert notes["stationary"] == [0.5, 0.5]
    # tol, and each end moved out by gamma_3 = 3u / (1 - 3u) and one ulp
    gamma, eps = 3 * 2.0 ** -53 / (1 - 3 * 2.0 ** -53), 2.0 ** -52
    assert 0.0 < notes["eigen_bracket_width"] <= 1e-13 + 2 * gamma + 6 * eps


def test_relent_cross_check(capsys, tmp_path):
    chain = tmp_path / "chain.yaml"
    chain.write_text(
        "version: v1\n"
        "kind: markov-chain\n"
        'labels: ["0", "1"]\n'
        "transition:\n"
        "  - [0.5, 0.5]\n"
        "  - [1.0, 0.0]\n")
    code, doc = run(capsys, "relent", MODELS / "golden-mean.yaml",
                    MODELS / "run-weights.yaml", chain, "--check",
                    "--depth", "10")
    assert code == 0
    closed = result(doc, "relative_entropy")["value"]
    assert closed >= 0.0
    cert = certificate(doc, "relent_cross_check")
    assert cert["discrepancy"] < 0.2


def test_relent_support_mismatch_is_computation_error(capsys):
    # the sticky coin walks 1 -> 1, which the golden mean shift forbids
    code = main(["relent", str(MODELS / "golden-mean.yaml"),
                 str(MODELS / "run-weights.yaml"),
                 str(MODELS / "lazy-coin.yaml")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("computation error:")
    assert captured.out == ""


def test_relent_on_a_wide_potential_names_both_alphabets(capsys, tmp_path):
    # the range-3 Gibbs state lives on the 3 admissible 2-blocks 00, 01, 10
    weights = tmp_path / "range-3.yaml"
    weights.write_text("version: v1\nkind: potential\nrange: 3\nvalues:\n" +
                       "".join(f'  "{w}": 0.1\n'
                               for w in ("000", "001", "010", "100", "101")))
    code = main(["relent", str(MODELS / "golden-mean.yaml"), str(weights),
                 str(MODELS / "lazy-coin.yaml")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("computation error: alphabet sizes differ: "
                                   "nu has 2 symbols and mu 3;")
    assert "range r > 2 lives on its subshift of (r-1)-blocks" in captured.err


def test_sample_seeded_and_reproducible(capsys, tmp_path):
    out = tmp_path / "path.csv"
    argv = ("sample", MODELS / "lazy-coin.yaml", "--seed", "11",
            "--depth", "500", "--out", out)
    code, doc1 = run(capsys, *argv)
    assert code == 0
    code, doc2 = run(capsys, *argv)
    assert canonical(doc1) == canonical(doc2)
    est = result(doc1, "smb_estimate")["value"]
    h = result(doc1, "entropy_rate")["value"]
    assert abs(est - h) < 0.2
    prefix = doc1["payload"]["annotations"]["path_prefix"]
    assert len(prefix) == 200 and set(prefix) <= {"H", "T"}
    lines = out.read_bytes().split(b"\r\n")
    assert lines[0] == b"step,symbol,label"
    assert len(lines) == 502 and lines[-1] == b""


def _tables(capsys, tmp_path):
    """The payloads and CSV bytes of `sample --out` and `lattice --out`."""
    out = tmp_path / "table.csv"
    tables = []
    for argv in (("sample", MODELS / "lazy-coin.yaml", "--seed", "11",
                  "--depth", "50"),
                 ("lattice", MODELS / "full-shift.yaml",
                  MODELS / "site-energy.yaml", "--n", "6")):
        code, doc = run(capsys, *argv, "--out", out)
        assert code == 0
        tables.append((canonical(doc), out.read_bytes()))
    return tables


def test_sample_and_lattice_tables_across_chunk_boundaries(capsys, tmp_path,
                                                            monkeypatch):
    tables = _tables(capsys, tmp_path)
    # seven entries a chunk put chunk boundaries inside both tables: neither
    # payload nor byte moves
    monkeypatch.setattr(_numerics, "CHUNK", 7)
    assert _tables(capsys, tmp_path) == tables
    # and the rows are those written one step or one configuration at a time
    chain = modelio.parse(MODELS / "lazy-coin.yaml").obj
    path = chain.sample_path(50, seed=11).tolist()
    assert tables[0][1].decode() == "".join(
        ["step,symbol,label\r\n"] +
        [f"{i},{s},{'HT'[s]}\r\n" for i, s in enumerate(path)])
    pot = modelio.bind_potential(modelio.parse(MODELS / "site-energy.yaml"),
                                 modelio.parse(MODELS / "full-shift.yaml").obj)
    masses = lattice_equilibrium(6, pot, 1.0).masses
    words = itertools.product(range(2), repeat=6)
    assert tables[1][1].decode() == "".join(
        ["configuration,mass\r\n"] +
        [f"{pot.sft.alphabet.word_string(w)},{format(x, '.17g')}\r\n"
         for w, x in zip(words, masses.tolist())])


def test_lattice_table_costs_bytes_not_objects(capsys, tmp_path):
    argv = ["lattice", str(MODELS / "full-shift.yaml"),
            str(MODELS / "site-energy.yaml"), "--out", str(tmp_path / "l.csv")]
    assert main(argv + ["--n", "3"]) == 0     # imports outside the trace
    # a dict of 2**16 tuples and its sorted copy peaked at 36.0 MiB of traced
    # memory here; a fifth of that bounds a mass array and chunked rows
    tracemalloc.start()
    try:
        assert main(argv + ["--n", "16"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 36.0 * 2 ** 20 / 5


@pytest.mark.parametrize("argv", [
    ["relent", MODELS / "full-shift.yaml", MODELS / "site-energy.yaml",
     MODELS / "lazy-coin.yaml", "--check"],
    ["production", MODELS / "three-cycle.yaml", "--check"],
], ids=["relent", "production"])
def test_cylinder_checks_cost_a_block_of_bytes(capsys, argv):
    argv = [str(a) for a in argv]
    assert main(argv) == 0     # imports outside the trace
    # int64 words, and every row's log terms as Python floats at once,
    # peaked at 3.3-3.4 MiB of traced memory here
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1.5 * 2 ** 20


def test_sample_without_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", str(MODELS / "lazy-coin.yaml")])
    assert exc.value.code == 3
    assert "--seed" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", str(MODELS / "full-shift.yaml"), "--frumious"])
    assert exc.value.code == 3


def test_missing_file_maps_to_syntax_exit(capsys):
    code = main(["entropy", "/no/such/model.yaml"])
    assert code == 3
    assert "cannot read input" in capsys.readouterr().err


def test_directory_as_model_maps_to_syntax_exit(capsys, tmp_path):
    code = main(["entropy", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot read input: ") and "Traceback" not in err


@pytest.mark.parametrize("out", [".", "missing/path.csv"])
def test_unwritable_out_maps_to_syntax_exit(capsys, tmp_path, out):
    # "." is the directory itself; the second path's parent does not exist
    code = main(["sample", str(MODELS / "lazy-coin.yaml"), "--seed", "1",
                 "--out", str(tmp_path / out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, counted", [
    (["entropy", "golden-mean.yaml"], ["sft"]),
    # relent also solves the stationary vector of its Gibbs state, so it
    # counts the chain file's MarkovMeasure, not stationary_vector
    (["relent", "full-shift.yaml", "site-energy.yaml", "lazy-coin.yaml"],
     ["sft", "chain"]),
    (["sample", "lazy-coin.yaml", "--seed", "1"], ["stationary"]),
    (["dimension", "cantor-thirds.yaml"], ["map"]),
])
def test_each_model_file_is_built_once(capsys, monkeypatch, argv, counted):
    from thermoshift import interval_maps, measures, sft

    calls = {"sft": 0, "stationary": 0, "chain": 0, "map": 0}

    def counting(owner, name, key, only=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += only is None or type(args[0]) is only
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(sft.SubshiftOfFiniteType, "__init__", "sft")
    counting(measures, "stationary_vector", "stationary")
    counting(measures.MarkovMeasure, "__init__", "chain", measures.MarkovMeasure)
    counting(interval_maps.PiecewiseLinearMarkovMap, "__init__", "map")
    cmd, *files = argv
    args = [cmd] + [str(MODELS / a) if a.endswith(".yaml") else a for a in files]
    code, _ = run(capsys, *args)
    assert code == 0
    assert {k: calls[k] for k in counted} == {k: 1 for k in counted}


def test_malformed_model_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text('version: v1\nkind: sft\nlabels: ["0"\n')
    code = main(["entropy", str(bad)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("syntax error:") and "line" in err


@pytest.mark.parametrize("text", [
    "version: v1\nkind: sft\nlabels: !!python/object:os.system {}\n",
    "version: v1\nkind: sft\n---\nversion: v1\nkind: sft\n",
])
def test_unsafe_tag_or_second_document_exit_3(capsys, tmp_path, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["entropy", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("syntax error:")


@pytest.mark.parametrize("argv", [
    ["hofbauer-scan", str(MODELS / "cubic-family.yaml"), "--betas", "0.8,x"],
    ["periodic", str(MODELS / "golden-mean.yaml"), "--n", "0"],
    ["aep", str(MODELS / "lazy-coin.yaml"), "--depth", "0"],
])
def test_bad_number_lists_and_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["pressure", "golden-mean.yaml", "run-weights.yaml", "--depth", "0"],
    ["gibbs", "golden-mean.yaml", "run-weights.yaml", "--beta", "inf"],
    ["entropy", "golden-mean.yaml", "--depth=-1"],
    ["hofbauer-scan", "cubic-family.yaml", "--kink", "nan"],
    ["hofbauer-scan", "cubic-family.yaml", "--check", "--kink", "inf"],
    ["hofbauer-scan", "cubic-family.yaml", "--check", "--betas=0.8,-inf"],
    ["hofbauer-scan", "cubic-family.yaml", "--betas", ","],
    ["lattice", "golden-mean.yaml", "run-weights.yaml", "--n", "4",
     "--beta", "nan"],
    ["aep", "lazy-coin.yaml", "--alpha", "nan"],
    ["periodic", "golden-mean.yaml", "--n", "4", "--check", "--budget", "-3"],
    ["sample", "lazy-coin.yaml", "--seed", "-1"],
    ["sample", "lazy-coin.yaml", "--seed", str(2 ** 64)],
])
def test_out_of_range_numbers_exit_3_fast(capsys, argv):
    argv = [str(MODELS / a) if a.endswith(".yaml") else a for a in argv]
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 2.0
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


def test_largest_seed_runs(capsys):
    code, doc = run(capsys, "sample", MODELS / "lazy-coin.yaml",
                    "--seed", 2 ** 64 - 1, "--depth", "10")
    assert code == 0
    assert doc["payload"]["annotations"]["seed"] == 2 ** 64 - 1


# each command's arguments as the hand-written subparsers built them
USAGE = {
    "entropy": "[-h] [--depth DEPTH] [--check] sft",
    "pressure": "[-h] [--beta BETA] [--depth DEPTH] [--budget BUDGET] "
                "[--check] sft potential",
    "gibbs": "[-h] [--beta BETA] [--out PATH.CSV] sft potential",
    "bounds": "[-h] [--beta BETA] [--depth DEPTH] [--budget BUDGET] "
              "sft potential",
    "relent": "[-h] [--beta BETA] [--depth DEPTH] [--budget BUDGET] [--check] "
              "sft potential chain",
    "sample": "[-h] [--depth DEPTH] --seed SEED [--out PATH.CSV] chain",
    "aep": "[-h] [--alpha ALPHA] [--depth DEPTH] [--budget BUDGET] chain",
    "periodic": "[-h] --n N [--budget BUDGET] [--check] [--out PATH.CSV] sft",
    "production": "[-h] [--depth DEPTH] [--budget BUDGET] [--check] chain",
    "lattice": "[-h] --n N [--beta BETA] [--budget BUDGET] [--check] "
               "[--out PATH.CSV] sft potential",
    "ising": "[-h] [--beta BETA] [--n N] [--target TARGET]",
    "hofbauer-scan": "[-h] [--betas BETAS] [--kink KINK] [--check] "
                     "[--out PATH.CSV] family",
    "dimension": "[-h] [--check] map",
    "acim": "[-h] [--check] [--out PATH.CSV] map",
    "pn-scan": "[-h] [--n-max N_MAX] [--beta BETA] [--budget BUDGET] "
               "[--out PATH.CSV] sft potential",
}

# the flags a command needs before it runs at all
REQUIRED = {"sample": ["--seed", "1"], "periodic": ["--n", "2"],
            "lattice": ["--n", "2"]}

# the defaults the handlers applied themselves before the parser held them
DEFAULTS = {
    "depth": {"entropy": 12, "pressure": 12, "relent": 12, "production": 12,
              "bounds": 8, "aep": 10, "sample": 1000},
    "budget": {"lattice": 2 ** 22, **dict.fromkeys(
        ["pressure", "bounds", "relent", "aep", "periodic", "production",
         "pn-scan"], 10 ** 7)},
    "beta": dict.fromkeys(["pressure", "gibbs", "bounds", "relent", "lattice",
                           "ising", "pn-scan"], 1.0),
    "alpha": {"aep": 0.1},
    "n_max": {"pn-scan": 12},
    "kink": {"hofbauer-scan": 1.0},
    "betas": {"hofbauer-scan": [0.8, 0.9, 1.0, 1.1, 1.2]},
}


@pytest.mark.parametrize("cmd", sorted(USAGE))
def test_parser_keeps_each_commands_arguments_and_defaults(cmd):
    parser = cli.build_parser([cmd])
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(USAGE)
    # only the named command gets its arguments
    assert [c for c, sp in sub.choices.items() if len(sp._actions) > 1] == [cmd]
    sp = sub.choices[cmd]
    usage = " ".join(sp.format_usage().split())
    assert usage == f"usage: thermoshift {cmd} {USAGE[cmd]}"
    positionals = [a.dest for a in sp._actions if not a.option_strings]
    args = sp.parse_args(positionals + REQUIRED.get(cmd, []))
    for dest, by_cmd in DEFAULTS.items():
        if cmd in by_cmd:
            assert getattr(args, dest) == by_cmd[cmd], dest


def test_each_command_runs_its_engines_at_their_own_tolerance(monkeypatch):
    # the command line sets no tolerance and neither does a library caller:
    # only leading_eigen takes a tol, which entropy sets to 1e-14 and
    # pressure and gibbs leave at its default of 1e-13
    from thermoshift import interval_maps, transfer, variational

    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_function(sft, 1, lambda w: -1.0 - w[0])
    family = hofbauer.CriticalPowerFamily(exponent=3.0)
    imap = modelio.parse(str(MODELS / "cantor-thirds.yaml")).obj
    calls = [(SubshiftOfFiniteType.topological_entropy, sft),
             (transfer.pressure, pot), (transfer.gibbs_measure, pot),
             (hofbauer.diagnose, family),
             (hofbauer.pressure_renewal, family, 1.0),
             (hofbauer.kink_quotients, family),
             (interval_maps.bowen_dimension, imap),
             (interval_maps.bowen_root, interval_maps.code(imap)),
             (variational.solve_beta, variational.FiniteSystem([0.0, 1.0]), 0.5),
             (variational.ising_match, 0.5)]
    for fn, *args in calls:
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            fn(*args, tol=1e-12)

    real, seen = transfer.leading_eigen, []

    def spy(A, *args, **kwargs):
        bound = inspect.signature(real).bind(A, *args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["tol"])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(transfer, "leading_eigen", spy)
    sft.topological_entropy()
    assert transfer.gibbs_measure(pot).pressure == transfer.pressure(pot)
    assert seen == [1e-14, 1e-13, 1e-13]


@pytest.mark.parametrize("flag", [["--tol", "1e-10"], ["--bits"],
                                  ["--steps", "1e-2"]],
                         ids=["tol", "bits", "steps"])
@pytest.mark.parametrize("cmd", sorted(USAGE))
def test_every_command_refuses_tol_and_bits(capsys, monkeypatch, cmd, flag):
    # every report is in nats at the engines' own tolerances, and the kink
    # quotients take their own steps
    def parse(path):
        raise AssertionError(f"{path} read before the usage error")

    monkeypatch.setattr(modelio, "parse", parse)
    (sub,) = [a for a in cli.build_parser([cmd])._actions
              if isinstance(a, argparse._SubParsersAction)]
    positionals = [f"{a.dest}.yaml" for a in sub.choices[cmd]._actions
                   if not a.option_strings]
    with pytest.raises(SystemExit) as exc:
        main([cmd, *positionals, *REQUIRED.get(cmd, []), *flag])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err


def test_schema_violation_exit_4(capsys, tmp_path):
    bad = tmp_path / "future.yaml"
    bad.write_text(
        "version: v2\n"
        "kind: sft\n"
        'labels: ["0", "1"]\n'
        "transition:\n"
        "  - [1, 1]\n"
        "  - [1, 1]\n")
    code = main(["entropy", str(bad)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("schema error:")
    assert "[field: version]" in err


def test_kind_mismatch_exit_5(capsys):
    code = main(["entropy", str(MODELS / "site-energy.yaml")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("semantic error:")
    assert "[field: kind]" in err


@pytest.mark.parametrize("bad", ["-.inf", ".inf", ".nan"])
def test_non_finite_potential_value_exit_5(capsys, tmp_path, bad):
    weights = tmp_path / "weights.yaml"
    weights.write_text(f'version: v1\nkind: potential\nrange: 2\nvalues:\n'
                       f'  "00": -0.2\n  "01": {bad}\n  "10": 0.4\n')
    code = main(["pressure", str(MODELS / "golden-mean.yaml"), str(weights)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("semantic error:")
    assert "must be finite" in err
    assert err.rstrip().endswith("[field: values.01]")


# the subcommand that loads each kind of model file, with its other arguments
_LOADED_BY = {
    "sft": ["entropy", "{}"],
    "potential": ["pressure", str(MODELS / "golden-mean.yaml"), "{}"],
    "markov-chain": ["sample", "{}", "--seed", "1"],
    "markov-map": ["dimension", "{}"],
    "hofbauer-family": ["hofbauer-scan", "{}"],
}


def _scalar_paths(data, path=()):
    """Paths to the scalars of a YAML document, the first 3 items of a list."""
    if isinstance(data, dict):
        for key, val in data.items():
            yield from _scalar_paths(val, path + (key,))
    elif isinstance(data, list):
        for i, val in enumerate(data[:3]):
            yield from _scalar_paths(val, path + (i,))
    elif data is not None:
        yield path


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS.glob("*.yaml")))
def test_non_finite_scalar_in_a_model_is_refused(capsys, tmp_path, name):
    data = yaml.safe_load((MODELS / name).read_text())
    argv = _LOADED_BY[data["kind"]]
    outcomes = []
    for path in _scalar_paths(data):
        for bad in (math.inf, -math.inf, math.nan):
            doc = copy.deepcopy(data)
            node = doc
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = bad
            model = tmp_path / name
            model.write_text(yaml.safe_dump(doc))
            code = main([a.format(model) for a in argv])
            capsys.readouterr()
            outcomes.append((path, bad, code))
    assert len(outcomes) >= 9
    assert [o for o in outcomes if o[2] not in (4, 5)] == []


_HUGE = "1" + "0" * 400   # an integer no double can hold
_CHAIN = "kind: markov-chain\ntransition:\n  - [{}, 0]\n  - [0.5, 0.5]\n"
_SAMPLE = ["sample", "{}", "--seed", "1"]


_DIGITS = "integers must fit a double, got an integer of {} digits"


@pytest.mark.parametrize("text, argv, field, reason", [
    (_CHAIN.format(_HUGE), _SAMPLE, "transition.0.0", _DIGITS.format(401)),
    (f"kind: markov-chain\ntransition:\n  - [0.5, 0.5]\n  - [0.5, 0.5]\n"
     f"pi: [{_HUGE}, 0.5]\n", _SAMPLE, "pi.0", _DIGITS.format(401)),
    (f'kind: potential\nrange: 2\nvalues:\n  "00": -0.2\n  "01": {_HUGE}\n'
     f'  "10": 0.4\n', ["pressure", str(MODELS / "golden-mean.yaml"), "{}"],
     "values.01", _DIGITS.format(401)),
    (f"kind: hofbauer-family\nfamily: critical-power\nexponent: {_HUGE}\n",
     ["hofbauer-scan", "{}"], "exponent", _DIGITS.format(401)),
    # past Python's int-string limit of 4300 digits, which int() refuses:
    # the digits are counted first
    (_CHAIN.format("1" + "0" * 5000), _SAMPLE, "transition.0.0",
     _DIGITS.format(5001)),
    # a hex literal is outside the number grammar, whatever its value (16^3600)
    (_CHAIN.format("0x1" + "0" * 3600), _SAMPLE, "transition.0.0",
     "numbers must be finite decimals, got '0x100"),
], ids=["transition", "pi", "potential", "exponent", "decimal-5001-digits",
        "hex-4335-digits"])
def test_integer_past_the_double_range_is_refused(capsys, tmp_path, text, argv,
                                                  field, reason):
    model = tmp_path / "huge.yaml"
    model.write_text("version: v1\n" + text)
    assert main([a.format(model) for a in argv]) == 5
    err = capsys.readouterr().err
    assert err.startswith("semantic error:") and "Traceback" not in err
    assert reason in err
    assert err.rstrip().endswith(f"[field: {field}]") and "(line " in err


def test_one_label_subshift_exit_5(capsys, tmp_path):
    shift = tmp_path / "one.yaml"
    shift.write_text('version: v1\nkind: sft\nlabels: ["a"]\ntransition: [[1]]\n')
    assert main(["entropy", str(shift)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("semantic error:") and "[field: labels]" in err


@pytest.mark.parametrize("field, bad", [
    ("breakpoints", '["0", .inf, "1"]'), ("branches.0.slope", None)])
def test_non_finite_map_number_names_its_field(capsys, tmp_path, field, bad):
    text = (MODELS / "doubling.yaml").read_text()
    if bad is None:
        text = text.replace("{slope: 2,", "{slope: .nan,", 1)
    else:
        text = text.replace('["0", "1/2", "1"]', bad)
    imap = tmp_path / "map.yaml"
    imap.write_text(text)
    assert main(["dimension", str(imap)]) == 5
    err = capsys.readouterr().err
    assert "must be finite" in err and f"[field: {field}" in err


@pytest.mark.parametrize("old, new, field", [
    ('"1/2"', '"half"', "breakpoints.1"),
    ('"1/2"', '"1/0"', "breakpoints.1"),
    ("{slope: 2,", '{slope: "two",', "branches.0.slope"),
])
def test_malformed_map_rational_names_its_field(capsys, tmp_path, old, new,
                                                field):
    imap = tmp_path / "map.yaml"
    imap.write_text((MODELS / "doubling.yaml").read_text().replace(old, new, 1))
    assert main(["dimension", str(imap)]) == 5
    err = capsys.readouterr().err
    assert "is not a rational number" in err and f"[field: {field}]" in err


@pytest.mark.parametrize("values", [[0.0, math.nan], [math.nan, 0.0]])
def test_certificate_discrepancy_of_a_nan_value_is_nan(values):
    report = cli.Report("hofbauer-scan", [])
    report.certificate("pressure(beta=1e4)", ["renewal", "variational"],
                       values, "nats")
    assert math.isnan(report.payload["certificates"][0]["discrepancy"])


def test_hofbauer_scan_check_at_underflowing_beta(capsys):
    # every weight underflows at beta = 1e4: both routes give pressure 0, with
    # no nan in the certificate and nothing on stderr
    code = main(["hofbauer-scan", str(MODELS / "cubic-family.yaml"), "--check",
                 "--betas", "1e4"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "nan" not in captured.out
    cert = certificate(json.loads(captured.out), "pressure(beta=10000)")
    assert cert["values"] == [0.0, 0.0] and cert["discrepancy"] == 0.0


def test_budget_exhaustion_exit_2(capsys):
    code = main(["periodic", str(MODELS / "full-shift.yaml"), "--n", "30",
                 "--check", "--budget", "1000"])
    assert code == 2
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_periodic_counts_and_csv(capsys, tmp_path):
    out = tmp_path / "counts.csv"
    code, doc = run(capsys, "periodic", MODELS / "golden-mean.yaml",
                    "--n", "10", "--check", "--out", out)
    assert code == 0
    assert doc["payload"]["annotations"]["exact_count"] == "123"
    cert = certificate(doc, "periodic_cross_check")
    assert cert["discrepancy"] == 0.0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,count"
    assert len(lines) == 11
    assert lines[-1] == "10,123"


def test_periodic_count_past_the_float_range(capsys):
    code, doc = run(capsys, "periodic", MODELS / "full-shift.yaml",
                    "--n", "1100")
    assert code == 0
    assert doc["payload"]["annotations"]["exact_count"] == str(2 ** 1100)
    assert result(doc, "periodic_count(n=1100)")["value"] == "inf"


@contextlib.contextmanager
def _int_str_digits(limit):
    """Python's int-string conversion limit set to ``limit`` (0: none)
    within the block, and restored after it."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_periodic_prints_a_count_past_the_int_string_limit(capsys, tmp_path):
    # 12^4096 has 4421 digits, past the default limit of 4300: the trace of
    # the all-ones 12 x 12 matrix, whose eigenvalues are 12 and 0
    model = tmp_path / "full12.yaml"
    model.write_text("version: v1\nkind: sft\nlabels: [%s]\ntransition:\n%s" % (
        ", ".join(f"s{i}" for i in range(12)), "  - [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]\n" * 12))
    code, doc = run(capsys, "periodic", model, "--n", "4096")
    assert code == 0
    with _int_str_digits(0):
        digits = str(12 ** 4096)
    assert len(digits) == 4421
    assert doc["payload"]["annotations"]["exact_count"] == digits


def test_periodic_table_writes_counts_past_the_int_string_limit(capsys, tmp_path):
    # one --out row a period: 2^2200 has 663 digits, past a limit of 640 (the
    # least Python allows); the rows come from one running product
    out = tmp_path / "counts.csv"
    with _int_str_digits(640):
        code, doc = run(capsys, "periodic", MODELS / "full-shift.yaml",
                        "--n", "2200", "--out", out)
    assert code == 0
    assert doc["payload"]["annotations"]["exact_count"] == str(2 ** 2200)
    lines = out.read_text().splitlines()
    assert len(lines) == 2201
    assert lines[-1] == f"2200,{2 ** 2200}"
    assert lines[1:4] == ["1,2", "2,4", "3,8"]


def test_periodic_table_over_budget_writes_no_file(capsys, tmp_path):
    # the whole table is priced before the CSV is opened: the full 12-shift
    # to n = 4096 is refused at once by the default budget, and n = 200 fits
    model = tmp_path / "full12.yaml"
    model.write_text("version: v1\nkind: sft\nlabels: [%s]\ntransition:\n%s" % (
        ", ".join(f"s{i}" for i in range(12)), "  - [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]\n" * 12))
    out = tmp_path / "counts.csv"
    start = time.perf_counter()
    code = main(["periodic", str(model), "--n", "4096", "--out", str(out)])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith(
        "budget exceeded: the traces of M^1..M^4096 over 12 symbols costs ")
    code, doc = run(capsys, "periodic", model, "--n", "200", "--out", out)
    assert code == 0 and doc["payload"]["artifacts"][0]["rows"] == 200
    with _int_str_digits(0):
        assert out.read_text().splitlines()[-1] == f"200,{12 ** 200}"


@pytest.mark.parametrize("beta", ["-1e308", "1e308"])
def test_lattice_near_the_float_range_is_finite_or_typed(capsys, beta):
    # beta * S at -1e308 puts a ring weight past the float range: refused,
    # where "inf" once came out with RuntimeWarnings and exit 0; at 1e308
    # the sums overflow only to -inf, weights that underflow anyway
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lattice", str(MODELS / "full-shift.yaml"),
                     str(MODELS / "site-energy.yaml"), "--n", "4", f"--beta={beta}"])
    out, err = capsys.readouterr()
    if beta == "-1e308":
        assert code == 1 and out == ""
        assert err.startswith("computation error: beta = -1e+308 takes a ring "
                              "weight past the float range")
    else:
        assert code == 0 and err == ""
        assert result(json.loads(out), "ring_pressure(n=4)")["value"] == 0.0


def test_production_three_cycle(capsys):
    code, doc = run(capsys, "production", MODELS / "three-cycle.yaml",
                    "--check")
    assert code == 0
    ep = result(doc, "entropy_production")["value"]
    assert abs(ep - 0.8 * np.log(9.0)) < 1e-9
    assert doc["payload"]["annotations"]["reversible"] is False
    cert = certificate(doc, "production_cross_check")
    assert cert["discrepancy"] < 0.2


def chain_model(tmp_path, rows):
    """A markov-chain file of these rows; a dict of rows labels each by its key."""
    labels = f"labels: {list(rows)}\n" if isinstance(rows, dict) else ""
    rows = rows.values() if isinstance(rows, dict) else rows
    path = tmp_path / "chain.yaml"
    path.write_text("version: v1\nkind: markov-chain\n" + labels + "transition:\n" +
                    "".join(f"  - {list(row)}\n" for row in rows))
    return path


def test_production_of_a_periodic_chain(tmp_path, capsys):
    # a biased four-cycle of period 2, which no Perron solve would take
    chain = chain_model(tmp_path, [[0.0, 0.9, 0.0, 0.1], [0.1, 0.0, 0.9, 0.0],
                                   [0.0, 0.1, 0.0, 0.9], [0.9, 0.0, 0.1, 0.0]])
    code, doc = run(capsys, "production", chain, "--check")
    assert code == 0
    ep = result(doc, "entropy_production")["value"]
    assert abs(ep - 1.7577796618689756) <= math.ulp(ep)   # 0.8 ln 9


def test_production_refuses_a_one_way_transition(tmp_path):
    chain = chain_model(tmp_path, [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5],
                                   [0.5, 0.0, 0.5]])
    proc = subprocess.run([sys.executable, "-m", "thermoshift", "production",
                           str(chain)], capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("computation error: nu charges transition 0->1 "
                           "outside mu's support\n")


def test_an_allocation_that_fails_exits_1_on_one_line():
    # a path of 10^10 steps needs 9.3 GiB, past a 4 GiB address space set in
    # the child alone: numpy's MemoryError is one diagnostic, no traceback
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "thermoshift", "sample",
         str(MODELS / "lazy-coin.yaml"), "--seed", "1", "--depth", "10000000000"],
        capture_output=True, text=True, preexec_fn=limit)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("computation error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_chain_report_is_the_same_at_any_blas_thread_count(tmp_path):
    # a 100-state chain: random support of density 0.25 plus the ring i -> i+1,
    # integer weights over their row sums; a threaded LAPACK solve once gave
    # its stationary vector, and the sample digest, one ulp apart
    rng = np.random.default_rng(5)
    ring = np.roll(np.eye(100, dtype=bool), 1, axis=1)
    W = (rng.random((100, 100)) < 0.25) | ring
    W = W * rng.integers(1, 1025, size=(100, 100))
    chain = chain_model(tmp_path, (W / W.sum(axis=1, keepdims=True)).tolist())
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "thermoshift", "sample", str(chain),
             "--seed", "1", "--depth", "1000"], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout)["digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("rows, code, err", [
    ([[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]], 5,
     "states 0 and 2 lie in different recurrent classes"),
    # state 0 is transient: it gets mass 0, and the chain sits on state 1
    ([[0.5, 0.5], [0, 1]], 0, ""),
    # a file with labels has its two states named by them
    ({"a": [1, 0, 0], "b": [0.5, 0, 0.5], "c": [0, 0, 1]}, 5,
     "states 'a' and 'c' lie in different recurrent classes"),
])
def test_a_chain_needs_one_recurrent_class(capsys, tmp_path, rows, code, err):
    chain = chain_model(tmp_path, rows)
    assert main(["sample", str(chain), "--seed", "1"]) == code
    out = capsys.readouterr()
    assert err in out.err and "Traceback" not in out.err
    if code:
        assert out.err.rstrip().endswith("[field: transition]")
    else:
        assert result(json.loads(out.out), "entropy_rate")["value"] == 0.0


def test_aep_masses_sum_to_one(capsys):
    code, doc = run(capsys, "aep", MODELS / "lazy-coin.yaml",
                    "--depth", "10", "--alpha", "0.1")
    assert code == 0
    typical = result(doc, "typical_mass")["value"]
    exceptional = result(doc, "exceptional_mass")["value"]
    assert abs(typical + exceptional - 1.0) < 1e-12
    assert result(doc, "typical_count")["value"] >= 1.0


def test_ising_surface(capsys):
    code, doc = run(capsys, "ising", "--beta", "0.5", "--n", "12",
                    "--target", "0.25")
    assert code == 0
    assert certificate(doc, "ising_pressure")["discrepancy"] < 1e-10
    assert certificate(doc, "ising_correlation")["discrepancy"] < 1e-10
    assert certificate(doc, "ising_ring")["discrepancy"] < 5e-2
    matched = result(doc, "matched_beta")["value"]
    assert abs(matched - np.arctanh(0.25)) < 1e-9


def test_lattice_trace_cross_check(capsys, tmp_path):
    code, doc = run(capsys, "lattice", MODELS / "full-shift.yaml",
                    MODELS / "site-energy.yaml", "--n", "10", "--check")
    assert code == 0
    cert = certificate(doc, "lattice_cross_check")
    assert cert["discrepancy"] < 1e-12
    ring = result(doc, "ring_pressure(n=10)")["value"]
    # a single-site energy factorizes, so the ring value is already exact
    assert abs(ring - np.log(1.0 + np.exp(-0.5))) < 1e-12
    # a wider potential is certified too, its trace taken on the block matrix
    for r in (3, 4):
        weights = tmp_path / f"range-{r}.yaml"
        weights.write_text(
            f"version: v1\nkind: potential\nrange: {r}\nvalues:\n" + "".join(
                f'  "{"".join(w)}": {math.sin(3 * k):.3f}\n'
                for k, w in enumerate(itertools.product("01", repeat=r))))
        code, doc = run(capsys, "lattice", MODELS / "full-shift.yaml",
                        weights, "--n", "10", "--check")
        assert code == 0
        assert certificate(doc, "lattice_cross_check")["discrepancy"] <= 1e-15


def test_ring_traces_of_huge_weights_are_finite(capsys):
    # a transfer-matrix entry past 1e154 once overflowed in the first square
    # of the ring trace, which came out -inf with RuntimeWarnings and exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run(capsys, "lattice", MODELS / "full-shift.yaml",
                        MODELS / "site-energy.yaml", "--n", "8",
                        "--beta=-1000", "--check")
        assert code == 0
        assert result(doc, "ring_pressure_trace(n=8)")["value"] == 500.0
        assert certificate(doc, "lattice_cross_check")["discrepancy"] < 1e-12
        code, doc = run(capsys, "ising", "--beta", "400", "--n", "16")
        assert code == 0
        ring = result(doc, "ring_pressure(n=16)")["value"]
        assert abs(ring - (400.0 + math.log(2.0) / 16.0)) < 1e-12


def test_dimension_with_square_check(capsys):
    code, doc = run(capsys, "dimension", MODELS / "cantor-thirds.yaml",
                    "--check")
    assert code == 0
    dim = result(doc, "dimension")["value"]
    assert abs(dim - np.log(2.0) / np.log(3.0)) < 1e-8
    assert certificate(doc, "square_recoding")["discrepancy"] < 1e-8


def near_neutral_map(K):
    """A markov-map file in 'p/q' breakpoints: intervals J_k of length
    1 / (2 (k+1)^2), k = 0..K, laid leftward from J_0 = [1/2, 1], with a
    hole [0, left end of J_K].  J_0 maps onto [0, 1] with slope 2 and J_k
    onto J_(k-1) with slope ((k+1)/k)^2, so the survivor set has the
    dimension t of sum_(k <= K) |J_k|^t = 1."""
    J = [Fraction(1, 2 * (k + 1) ** 2) for k in range(K + 1)]
    left = [1 - s for s in itertools.accumulate(J)]       # left end of J_k
    points = [0, *left[::-1], 1]
    n = len(points) - 1
    branches = ["  - null"] + [
        f'  - {{slope: "{J[k - 1] / J[k]}", image: [{K + 2 - k}]}}'
        for k in range(K, 0, -1)]
    branches.append(f"  - {{slope: 2, image: {list(range(n))}}}")
    return ("version: v1\nkind: markov-map\nbreakpoints: ["
            + ", ".join(f'"{x}"' for x in points) + "]\nbranches:\n"
            + "\n".join(branches) + "\n")


def test_dimension_of_a_near_neutral_map_exits_0(capsys, tmp_path):
    # slopes down to (257/256)^2: an upper bracket end of P(0) / (-max phi)
    # + 1, about 90, once took the Perron vector past the float range, and
    # the command exited 1
    K = 256
    model = tmp_path / "near-neutral.yaml"
    model.write_text(near_neutral_map(K))
    code, doc = run(capsys, "dimension", model)
    assert code == 0
    with mpmath.workdps(30):
        root = mpmath.findroot(lambda t: mpmath.fsum(
            (mpmath.mpf(1) / (2 * (k + 1) ** 2)) ** t for k in range(K + 1)) - 1,
            0.9)
        assert abs(result(doc, "dimension")["value"] - root) < 1e-13


def test_dimension_of_the_uneven_repeller_is_within_4_ulps(capsys):
    # 2^-s + 4^-s = 1 at 2^-s = 1 / phi: the result is the Newton step off
    # the last evaluation, where the point that met |P| <= 1e-12 was
    # 2.8e-13 off
    code, doc = run(capsys, "dimension", MODELS / "uneven-repeller.yaml")
    assert code == 0
    dim = result(doc, "dimension")["value"]
    with mpmath.workdps(30):
        exact = mpmath.log(mpmath.phi, 2)
        assert abs(dim - exact) <= 4 * np.spacing(dim)


def test_acim_densities_and_csv(capsys, tmp_path):
    out = tmp_path / "density.csv"
    code, doc = run(capsys, "acim", MODELS / "golden-interval.yaml",
                    "--check", "--out", out)
    assert code == 0
    assert abs(result(doc, "density[0]")["value"] - 9.0 / 8.0) < 1e-10
    assert abs(result(doc, "density[1]")["value"] - 3.0 / 4.0) < 1e-10
    # the ratio extremes are the density extremes, exactly 3/4 and 9/8
    cert = certificate(doc, "density_ratio_extremes")
    assert cert["values"] == [0.75, 1.125]
    assert cert["methods"] == ["spectral"]
    assert doc["payload"]["annotations"]["intervals"] == [["0", "2/3"],
                                                          ["2/3", "1"]]
    lines = out.read_text().splitlines()
    assert lines[0] == "left,right,density"
    assert len(lines) == 3


def test_acim_check_on_an_interval_in_no_image_is_clean(tmp_path):
    # [0, 1/3] lies in no branch's image: density 0 there, and the depth-8
    # ratio pass once printed RuntimeWarnings of inf * 0 on it, exit 0
    path = tmp_path / "map.yaml"
    path.write_text('version: v1\nkind: markov-map\nbreakpoints: ["0", "1/3", '
                    '"2/3", "1"]\nbranches:\n  - {slope: 2, image: [1, 2]}\n'
                    '  - {slope: 2, image: [1, 2]}\n  - {slope: -2, image: [1, 2]}\n')
    proc = subprocess.run([sys.executable, "-m", "thermoshift", "acim",
                           str(path), "--check"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    densities = [result(doc, f"density[{s}]")["value"] for s in range(3)]
    values = certificate(doc, "density_ratio_extremes")["values"]
    assert values == [min(densities), max(densities)] == [0.0, 1.5]


_TEN_400 = 10 ** 400


@pytest.mark.parametrize("argv, breakpoints, branches, code, err", [
    # [0, 1/3] is transient: density 0 there, where the coding was refused
    (["acim"], ["0", "1/3", "2/3", "1"],
     [(3, [0, 1, 2]), (2, [1, 2]), (-2, [1, 2])], 0, ""),
    (["acim"], ["0", "1/4", "1/2", "3/4", "1"],
     [(2, [0, 1]), (-2, [0, 1]), (2, [2, 3]), (2, [2, 3])], 1,
     "computation error: intervals [0, 1/4] and [1/2, 3/4] lie in different "
     "recurrent classes"),
    # [0, 10^-400] at slope 10^400, where float(|slope|) once raised
    # OverflowError out of both commands
    *((argv, ["0", f"1/{_TEN_400}", "1/2", "1"],
       [(_TEN_400, [0, 1, 2]), (f"{2 * _TEN_400 - 2}/{_TEN_400 - 2}", [1, 2]),
        (2, [0, 1, 2])], 5, "outside the range of a double")
      for argv in (["acim", "--check"], ["dimension", "--check"])),
], ids=["transient", "two-classes", "tiny-acim", "tiny-dimension"])
def test_covering_maps_are_solved_or_refused_by_type(capsys, tmp_path, argv,
                                                      breakpoints, branches,
                                                      code, err):
    path = tmp_path / "map.yaml"
    path.write_text("version: v1\nkind: markov-map\nbreakpoints: "
                    + json.dumps(breakpoints) + "\nbranches:\n" + "".join(
                        f'  - {{slope: "{slope}", image: {image}}}\n'
                        for slope, image in branches))
    assert main([argv[0], str(path), *argv[1:]]) == code
    out = capsys.readouterr()
    assert err in out.err
    if code == 5:
        assert out.err.rstrip().endswith("[field: branches]")
    if code == 0:
        assert result(json.loads(out.out), "density[0]")["value"] == 0.0


def test_acim_passes_on_a_chain_error_that_names_no_states(capsys,
                                                           monkeypatch):
    from thermoshift.interval_maps import MarkovMeasure, acim

    error = ValueError("P must be row-stochastic (tolerance 1e-9)")

    def from_transition(P):
        raise error

    monkeypatch.setattr(MarkovMeasure, "from_transition", from_transition)
    imap = modelio.parse(MODELS / "golden-interval.yaml").obj
    with pytest.raises(ValueError) as exc:
        acim(imap)
    assert exc.value is error
    assert main(["acim", str(MODELS / "golden-interval.yaml")]) == 1
    err = capsys.readouterr().err
    assert err == f"computation error: {error}\n"


def test_hofbauer_scan_cli(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, doc = run(capsys, "hofbauer-scan", MODELS / "cubic-family.yaml",
                    "--betas", "0.8,1.2", "--out", out)
    assert code == 0
    assert doc["payload"]["annotations"]["classification"] == "non-unique"
    p08 = result(doc, "pressure(beta=0.8)")["value"]
    assert abs(p08 - 0.10838656549867665) < 1e-9
    assert result(doc, "pressure(beta=1.2)")["value"] == 0.0
    # one CRLF row per beta, each float written in full .17g form
    lines = out.read_bytes().decode().split("\r\n")
    assert lines[0] == "beta,pressure" and lines[-1] == ""
    assert len(lines) == 2 + 2 and "\n" not in "".join(lines)
    for line, beta in zip(lines[1:-1], (0.8, 1.2)):
        cells = line.split(",")
        assert cells == [format(float(c), ".17g") for c in cells]
        assert float(cells[0]) == beta
        assert float(cells[1]) == result(doc, f"pressure(beta={beta:g})")["value"]


def test_hofbauer_families_at_the_ends_of_a0(capsys, tmp_path):
    # zeta(1e30) rounds to 1, so a_0 = 0: the scan exits 0 with no nan,
    # where a nan a_0 once left the family with no tail bound (exit 1)
    model = tmp_path / "family.yaml"
    head = "version: v1\nkind: hofbauer-family\nfamily: critical-power\n"
    model.write_text(head + "exponent: 1.0e+30\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hofbauer-scan", str(model), "--check"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and "nan" not in captured.out
    # a depression below -log zeta(q) would make a_0 positive, where the scan
    # once certified a pressure of 0 against P >= beta a_0
    model.write_text(head + "exponent: 2.5\ndepression: -0.3\n")
    assert main(["hofbauer-scan", str(model), "--check", "--betas", "1e44"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("semantic error:") and "Traceback" not in err
    assert err.rstrip().endswith("[field: depression]")


def test_hofbauer_scan_check_solves_each_beta_once(capsys, monkeypatch):
    solved = []
    real = hofbauer.pressure_renewal

    def spy(potential, beta):
        solved.append(beta)
        return real(potential, beta)

    monkeypatch.setattr(hofbauer, "pressure_renewal", spy)
    code, doc = run(capsys, "hofbauer-scan", MODELS / "cubic-family.yaml",
                    "--check")
    assert code == 0
    assert result(doc, "right_quotient(h=0.01)")["value"] == 0.0
    # the grid and kink -/+ h for each step; the kink itself is on the grid
    kink = [1.0 + s * h for h in (1e-2, 1e-3, 1e-4) for s in (-1, 1)]
    assert sorted(solved) == sorted([0.8, 0.9, 1.0, 1.1, 1.2] + kink)


def test_pn_scan_csv(capsys, tmp_path):
    out = tmp_path / "pn.csv"
    code, doc = run(capsys, "pn-scan", MODELS / "golden-mean.yaml",
                    MODELS / "run-weights.yaml", "--n-max", "6",
                    "--out", out)
    assert code == 0
    cert = certificate(doc, "Pn_vs_spectral(n=6)")
    spectral = result(doc, "pressure")["value"]
    assert cert["values"][0] >= spectral - 1e-12
    lines = out.read_text().splitlines()
    assert lines[0] == "n,pn_over_n,spectral"
    assert len(lines) == 7


def test_deep_path_sums_give_values_and_are_priced_first(capsys):
    # depth 60 once spent 16 s enumerating before it exited 2; the path sum
    # gives the whole curve, and a depth it cannot afford is refused at once
    models = (MODELS / "golden-mean.yaml", MODELS / "run-weights.yaml")
    code, doc = run(capsys, "pn-scan", *models, "--n-max", "60")
    assert code == 0
    curve = [result(doc, f"Pn_over_n(n={n})")["value"] for n in range(1, 61)]
    assert all(a > b for a, b in zip(curve, curve[1:]))
    assert curve[-1] > result(doc, "pressure")["value"]
    start = time.perf_counter()
    code = main(["pressure", *map(str, models), "--check", "--depth",
                 "1000000000000"])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("budget exceeded: the path sum")


@pytest.mark.parametrize("command, models, flags", [
    ("bounds", ["golden-mean", "run-weights"], []),
    ("relent", ["full-shift", "site-energy", "lazy-coin"], ["--check"]),
    ("production", ["three-cycle"], ["--check"]),
])
def test_deep_chain_passes_give_values_and_are_priced_first(command, models,
                                                            flags, capsys):
    # depth 60 once meant more than 10^7 cylinders and exit 2; the pass over
    # the chain gives a value, and a depth it cannot afford is refused at once
    argv = [command, *(str(MODELS / f"{m}.yaml") for m in models), *flags]
    code, doc = run(capsys, *argv, "--depth", "60")
    assert code == 0
    assert all(math.isfinite(r["value"]) for r in doc["payload"]["results"])
    start = time.perf_counter()
    code = main([*argv, "--depth", "1000000000000"])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("budget exceeded: the path sum")


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "thermoshift", "entropy",
         str(MODELS / "full-shift.yaml")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    assert doc["digest"] == "sha256:" + hashlib.sha256(
        body.encode("utf-8")).hexdigest()
    entry = next(e for e in doc["payload"]["results"]
                 if e["name"] == "topological_entropy")
    assert abs(entry["value"] - np.log(2.0)) < 1e-12


def _verified(doc):
    """The report's payload, once its digest is checked."""
    assert doc["digest"] == "sha256:" + hashlib.sha256(
        canonical(doc).encode("utf-8")).hexdigest()
    return doc["payload"]


@pytest.mark.parametrize("module", ["thermoshift", "thermoshift.cli"])
def test_the_process_exits_as_main_returns(capsys, tmp_path, module):
    # the process skips the interpreter's teardown once main returns; its
    # codes, diagnostics, reports and CSV files stay those of main
    future = tmp_path / "future.yaml"
    future.write_text("version: v2\nkind: sft\nlabels: ['0']\n"
                      "transition: [[1]]\n")
    calls = {
        0: ["entropy", MODELS / "golden-mean.yaml", "--check"],
        2: ["periodic", MODELS / "full-shift.yaml", "--n", "30", "--check",
            "--budget", "1000"],
        3: ["entropy", MODELS],
        4: ["entropy", future],
        5: ["entropy", MODELS / "site-energy.yaml"],
    }
    for want, argv in calls.items():
        argv = [str(a) for a in argv]
        assert main(argv) == want
        inproc = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == want, proc.stderr
        assert proc.stderr == inproc.err
        if want == 0:
            assert (_verified(json.loads(proc.stdout))
                    == _verified(json.loads(inproc.out)))
        else:
            assert proc.stdout == inproc.out == ""
    # run the way -m runs it, the module ends the process before the
    # interpreter's teardown would call an exit hook
    hooked = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'teardown', file=sys.stderr)\n"
              "sys.argv = sys.argv[1:]\n"
              "runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", hooked, module, "entropy",
                           str(MODELS / "golden-mean.yaml")],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    argv = ["sample", str(MODELS / "lazy-coin.yaml"), "--seed", "7",
            "--depth", "100000", "--out"]
    assert main(argv + [str(tmp_path / "inproc.csv")]) == 0
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", module, *argv,
                           str(tmp_path / "proc.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    artifact, = _verified(json.loads(proc.stdout))["artifacts"]
    written = (tmp_path / "proc.csv").read_bytes()
    assert artifact["rows"] == 100000 == written.count(b"\r\n") - 1
    assert written == (tmp_path / "inproc.csv").read_bytes()


@pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
def test_stdout_that_cannot_be_written_is_a_syntax_exit(stdout):
    if stdout == "/dev/full" and not Path(stdout).exists():
        pytest.skip("no /dev/full")
    if stdout == "closed pipe":
        read_end, sink = os.pipe()
        os.close(read_end)
    else:
        sink = os.open(stdout, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "thermoshift", "entropy",
             str(MODELS / "golden-mean.yaml")],
            stdout=sink, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(sink)
    assert proc.returncode == 3
    line, = proc.stderr.splitlines()
    assert line.startswith("cannot write output: [Errno ")


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the command line must not pull it in, and
    # importing it loads no engine
    code = ("import sys, thermoshift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(sorted(m for m in sys.modules if m.startswith('thermoshift')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    scipy_mods, ours = proc.stdout.splitlines()
    assert scipy_mods == "[]"
    assert ours == str(["thermoshift", "thermoshift.cli", "thermoshift.errors",
                        "thermoshift.modelio"])


def _model(name):
    return str(MODELS / f"{name}.yaml")


_GOLDEN = [_model("golden-mean"), _model("run-weights")]
_SPECTRAL = "_numerics potentials sft transfer"

# every call of the benchmark's demo suite, and `pressure --check`, with the
# thermoshift modules it loads besides cli, errors and modelio
_CALL_MODULES = [
    (["entropy", _model("golden-mean"), "--check"], "_numerics sft transfer"),
    (["pressure", *_GOLDEN, "--beta", "1.5"], _SPECTRAL),
    (["pressure", *_GOLDEN, "--check"], _SPECTRAL + " variational"),
    (["gibbs", *_GOLDEN, "--out", "{tmp}/gibbs.csv"], _SPECTRAL + " measures"),
    (["bounds", *_GOLDEN], _SPECTRAL + " measures"),
    (["relent", _model("full-shift"), _model("site-energy"), _model("lazy-coin"),
      "--check"], _SPECTRAL + " measures"),
    (["sample", _model("lazy-coin"), "--seed", "7", "--depth", "10000", "--out",
      "{tmp}/path.csv"], "_numerics measures sft"),
    (["aep", _model("lazy-coin"), "--depth", "12", "--alpha", "0.1"],
     "_numerics measures sft"),
    (["periodic", _model("golden-mean"), "--n", "12", "--check"], "sft"),
    (["production", _model("three-cycle"), "--check"],
     "_numerics measures sft"),
    (["lattice", _model("full-shift"), _model("site-energy"), "--n", "16",
      "--check"], _SPECTRAL + " variational"),
    (["ising", "--beta", "0.8", "--n", "16", "--target", "0.5"],
     _SPECTRAL + " measures variational"),
    (["hofbauer-scan", _model("cubic-family"), "--check"], "_numerics hofbauer"),
    (["dimension", _model("cantor-thirds"), "--check"],
     _SPECTRAL + " interval_maps measures"),
    (["dimension", _model("uneven-repeller"), "--check"],
     _SPECTRAL + " interval_maps measures"),
    (["acim", _model("golden-interval"), "--check", "--out", "{tmp}/density.csv"],
     "_numerics interval_maps measures sft"),
    (["pn-scan", *_GOLDEN, "--n-max", "12", "--out", "{tmp}/curve.csv"],
     _SPECTRAL + " variational"),
]


def test_each_call_loads_only_the_engines_it_runs(tmp_path):
    # a fresh process per call: a module loaded is a module compiled and run
    code = ("import io, sys, contextlib; from thermoshift.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(*sorted(m[12:] for m in sys.modules if m.startswith('thermoshift.')))")

    def loaded(argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(loaded, (argv for argv, _ in _CALL_MODULES)))
    for (argv, modules), mods in zip(_CALL_MODULES, got):
        assert mods == sorted(["cli", "errors", "modelio", *modules.split()]), argv


def test_entropy_loads_no_rational_decimal_or_csv_module():
    # fractions (and the decimal it imports) read map slopes, csv writes --out
    code = ("import io, sys, contextlib; from thermoshift.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(*sorted({'fractions', 'decimal', 'csv'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, "entropy",
                           _model("golden-mean"), "--check"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_package_names_load_on_first_access():
    import thermoshift

    assert set(thermoshift.__all__) <= set(dir(thermoshift))
    code = ("import sys, thermoshift; from thermoshift import *; "
            "print(all(name in globals() for name in thermoshift.__all__))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "True"
    with pytest.raises(AttributeError):
        thermoshift.no_such_name


def _write_csv_per_cell(path, columns, rows):
    """The per-cell writer the column writer replaced, kept as the reference."""

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


def test_csv_columns_are_byte_identical_to_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(5)
    floats = rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, size=7)
    words = ["a,b", 'say "hi"', "plain", "", "line\nbreak", "x", "y"]

    def columns():
        return [
            [True, False, True, True, False, False, True],
            np.array([True, False, True, True, False, False, True]),
            [np.float64(x) for x in floats],
            floats,
            np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1.0]),
            [math.inf, -math.inf, math.nan, 0.1, 1e22, 3.0, 2.0 ** 70],
            np.arange(-3, 4),
            [0, -1, 10 ** 30, 7, 8, 9, 10],
            range(10, 17),
            words,
            np.array(words),
            map(str.upper, words),
            map(lambda k: 3 ** (40 * k), range(7)),
        ]

    header = [f"c{i}" for i in range(len(columns()))]
    rows = list(zip(*columns()))
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    assert cli._write_csv(new, header, columns()) == len(rows) == 7
    _write_csv_per_cell(old, header, rows)
    assert new.read_bytes() == old.read_bytes()
