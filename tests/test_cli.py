"""End-to-end checks of the batch front-end: exit codes, report shape,
digest stability, CSV artifacts."""

import argparse
import copy
import csv
import hashlib
import itertools
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from thermoshift import _numerics, cli, golden_mean_shift, modelio
from thermoshift import sft as sft_module
from thermoshift.cli import main
from thermoshift.variational import lattice_equilibrium

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


def test_bits_flag_rescales(capsys):
    code, doc = run(capsys, "entropy", MODELS / "full-shift.yaml", "--bits")
    assert code == 0
    entry = result(doc, "topological_entropy")
    assert entry["units"] == "bits"
    assert abs(entry["value"] - 1.0) < 1e-12
    code, doc = run(capsys, "entropy", MODELS / "golden-mean.yaml",
                    "--check", "--bits")
    assert code == 0
    cert = certificate(doc, "entropy_cross_check")
    assert cert["units"] == "bits"


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
    # seven entries a chunk and five rows an enumeration block put chunk and
    # block boundaries inside both tables: neither payload nor byte moves
    monkeypatch.setattr(_numerics, "CHUNK", 7)
    monkeypatch.setattr(sft_module, "_BLOCK_ROWS", 5)
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
    (["relent", "full-shift.yaml", "site-energy.yaml", "lazy-coin.yaml"],
     ["sft", "stationary"]),
    (["sample", "lazy-coin.yaml", "--seed", "1"], ["stationary"]),
    (["dimension", "cantor-thirds.yaml"], ["map"]),
])
def test_each_model_file_is_built_once(capsys, monkeypatch, argv, counted):
    from thermoshift import interval_maps, measures, sft

    calls = {"sft": 0, "stationary": 0, "map": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(sft.SubshiftOfFiniteType, "__init__", "sft")
    counting(measures, "stationary_vector", "stationary")
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
    ["pressure", "golden-mean.yaml", "run-weights.yaml", "--tol", "0"],
    ["gibbs", "golden-mean.yaml", "run-weights.yaml", "--tol", "-1"],
    ["entropy", "golden-mean.yaml", "--tol", "-1"],
    ["hofbauer-scan", "cubic-family.yaml", "--tol", "-1"],
    ["hofbauer-scan", "cubic-family.yaml", "--check", "--steps", "0"],
    ["hofbauer-scan", "cubic-family.yaml", "--check", "--steps=-0.01"],
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


def test_unreachable_tolerance_fails_fast(capsys):
    # rounding keeps the residual near 1e-16, so the solver must stop once
    # it no longer falls rather than run its 10^6 rounds
    start = time.perf_counter()
    code = main(["pressure", str(MODELS / "golden-mean.yaml"),
                 str(MODELS / "run-weights.yaml"), "--tol", "1e-300"])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("computation error:") and "stalled at" in err


# each command's arguments as the hand-written subparsers built them
USAGE = {
    "entropy": "[-h] [--tol TOL] [--depth DEPTH] [--check] [--bits] sft",
    "pressure": "[-h] [--beta BETA] [--tol TOL] [--depth DEPTH] "
                "[--budget BUDGET] [--check] [--bits] sft potential",
    "gibbs": "[-h] [--beta BETA] [--tol TOL] [--out PATH.CSV] [--bits] "
             "sft potential",
    "bounds": "[-h] [--beta BETA] [--depth DEPTH] [--budget BUDGET] [--bits] "
              "sft potential",
    "relent": "[-h] [--beta BETA] [--depth DEPTH] [--budget BUDGET] [--check] "
              "[--bits] sft potential chain",
    "sample": "[-h] [--depth DEPTH] --seed SEED [--out PATH.CSV] [--bits] chain",
    "aep": "[-h] [--alpha ALPHA] [--depth DEPTH] [--budget BUDGET] [--bits] "
           "chain",
    "periodic": "[-h] --n N [--budget BUDGET] [--check] [--out PATH.CSV] "
                "[--bits] sft",
    "production": "[-h] [--depth DEPTH] [--budget BUDGET] [--check] [--bits] "
                  "chain",
    "lattice": "[-h] --n N [--beta BETA] [--budget BUDGET] [--check] "
               "[--out PATH.CSV] [--bits] sft potential",
    "ising": "[-h] [--beta BETA] [--n N] [--target TARGET] [--tol TOL] [--bits]",
    "hofbauer-scan": "[-h] [--betas BETAS] [--kink KINK] [--steps STEPS] "
                     "[--tol TOL] [--check] [--out PATH.CSV] [--bits] family",
    "dimension": "[-h] [--tol TOL] [--check] [--bits] map",
    "acim": "[-h] [--tol TOL] [--depth DEPTH] [--budget BUDGET] [--check] "
            "[--out PATH.CSV] [--bits] map",
    "pn-scan": "[-h] [--n-max N_MAX] [--beta BETA] [--budget BUDGET] "
               "[--out PATH.CSV] [--bits] sft potential",
}

# the defaults the handlers applied themselves before the parser held them
DEFAULTS = {
    "tol": {"entropy": 1e-14, "pressure": 1e-13, "gibbs": 1e-13,
            "ising": 1e-13, "acim": 1e-13, "hofbauer-scan": 1e-12,
            "dimension": 1e-12},
    "depth": {"entropy": 12, "pressure": 12, "relent": 12, "production": 12,
              "bounds": 8, "acim": 8, "aep": 10, "sample": 1000},
    "budget": {"lattice": 2 ** 22, **dict.fromkeys(
        ["pressure", "bounds", "relent", "aep", "periodic", "production",
         "acim", "pn-scan"], 10 ** 7)},
    "beta": dict.fromkeys(["pressure", "gibbs", "bounds", "relent", "lattice",
                           "ising", "pn-scan"], 1.0),
    "alpha": {"aep": 0.1},
    "n_max": {"pn-scan": 12},
    "kink": {"hofbauer-scan": 1.0},
    "betas": {"hofbauer-scan": [0.8, 0.9, 1.0, 1.1, 1.2]},
    "steps": {"hofbauer-scan": [1e-2, 1e-3, 1e-4]},
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
    required = {"sample": ["--seed", "1"], "periodic": ["--n", "2"],
                "lattice": ["--n", "2"]}
    args = sp.parse_args(positionals + required.get(cmd, []))
    for dest, by_cmd in DEFAULTS.items():
        if cmd in by_cmd:
            assert getattr(args, dest) == by_cmd[cmd], dest


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


def test_production_three_cycle(capsys):
    code, doc = run(capsys, "production", MODELS / "three-cycle.yaml",
                    "--check")
    assert code == 0
    ep = result(doc, "entropy_production")["value"]
    assert abs(ep - 0.8 * np.log(9.0)) < 1e-9
    assert doc["payload"]["annotations"]["reversible"] is False
    cert = certificate(doc, "production_cross_check")
    assert cert["discrepancy"] < 0.2


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


def test_lattice_trace_cross_check(capsys):
    code, doc = run(capsys, "lattice", MODELS / "full-shift.yaml",
                    MODELS / "site-energy.yaml", "--n", "10", "--check")
    assert code == 0
    cert = certificate(doc, "lattice_cross_check")
    assert cert["discrepancy"] < 1e-12
    ring = result(doc, "ring_pressure(n=10)")["value"]
    # a single-site energy factorizes, so the ring value is already exact
    assert abs(ring - np.log(1.0 + np.exp(-0.5))) < 1e-12


def test_dimension_with_square_check(capsys):
    code, doc = run(capsys, "dimension", MODELS / "cantor-thirds.yaml",
                    "--check")
    assert code == 0
    dim = result(doc, "dimension")["value"]
    assert abs(dim - np.log(2.0) / np.log(3.0)) < 1e-8
    assert certificate(doc, "square_recoding")["discrepancy"] < 1e-8


def test_acim_densities_and_csv(capsys, tmp_path):
    out = tmp_path / "density.csv"
    code, doc = run(capsys, "acim", MODELS / "golden-interval.yaml",
                    "--check", "--out", out)
    assert code == 0
    assert abs(result(doc, "density[0]")["value"] - 9.0 / 8.0) < 1e-10
    assert abs(result(doc, "density[1]")["value"] - 3.0 / 4.0) < 1e-10
    cert = certificate(doc, "density_ratio_extremes")
    assert abs(min(cert["values"]) - 0.75) < 1e-10
    assert abs(max(cert["values"]) - 1.125) < 1e-10
    assert doc["payload"]["annotations"]["intervals"] == [["0", "2/3"],
                                                          ["2/3", "1"]]
    lines = out.read_text().splitlines()
    assert lines[0] == "left,right,density"
    assert len(lines) == 3


def test_hofbauer_scan_cli(capsys):
    code, doc = run(capsys, "hofbauer-scan", MODELS / "cubic-family.yaml",
                    "--betas", "0.8,1.2")
    assert code == 0
    assert doc["payload"]["annotations"]["classification"] == "non-unique"
    p08 = result(doc, "pressure(beta=0.8)")["value"]
    assert abs(p08 - 0.10838656549867665) < 1e-9
    assert result(doc, "pressure(beta=1.2)")["value"] == 0.0


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


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the command line must not pull it in, and
    # each call loads only the engines its handler uses
    code = ("import sys, thermoshift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(sorted(m for m in sys.modules if m.startswith('thermoshift')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    scipy_mods, ours = proc.stdout.splitlines()
    assert scipy_mods == "[]"
    assert ours == str(["thermoshift", "thermoshift.cli", "thermoshift.errors",
                        "thermoshift.modelio"])
    code = ("import io, sys, contextlib; from thermoshift.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['entropy', {str(MODELS / 'golden-mean.yaml')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('thermoshift')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.strip()
    for engine in ("hofbauer", "interval_maps", "variational", "measures"):
        assert f"'thermoshift.{engine}'" not in loaded
    assert "'thermoshift.sft'" in loaded


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
