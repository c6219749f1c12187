"""Model file parsing: schema layers, field diagnostics, and the engine
object each file carries."""

import hashlib
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from thermoshift import modelio
from thermoshift.errors import (ModelSchemaError, ModelSemanticError,
                                ModelSyntaxError)
from thermoshift.modelio import bind_potential, chain_labels, parse

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def write(tmp_path, text):
    p = tmp_path / "model.yaml"
    p.write_text(text)
    return p


# -- the valid corpus ---------------------------------------------------------------


# -- reference builders: each rebuilds a file's engine object from its body,
# the way the front-end did before parse kept the object it validates ------


def _reference_sft(body):
    from thermoshift.sft import Alphabet, SubshiftOfFiniteType

    M = np.array(body["transition"], dtype=np.int8)
    return SubshiftOfFiniteType(Alphabet(body["labels"]), M)


def _reference_chain(body):
    from thermoshift.measures import MarkovMeasure, stationary_vector

    P = np.array(body["transition"], dtype=float)
    pi = body.get("pi")
    if pi is None:
        pi = stationary_vector(P)
    return MarkovMeasure(np.asarray(pi, dtype=float), P)


def _reference_map(body):
    from thermoshift.interval_maps import PiecewiseLinearMarkovMap

    specs = [None if e is None else (e["slope"], tuple(e["image"]))
             for e in body["branches"]]
    return PiecewiseLinearMarkovMap(body["breakpoints"], specs)


def _reference_family(body):
    from thermoshift.hofbauer import CriticalPowerFamily, InverseSquareFamily

    if body["family"] == "critical-power":
        return CriticalPowerFamily(exponent=body.get("exponent", 3.0),
                                   depression=body.get("depression", 0.0))
    return InverseSquareFamily(scale=body.get("scale", 1.0))


def test_stored_object_equals_a_fresh_build_from_the_body():
    kinds = set()
    for f in sorted(MODELS.glob("*.yaml")):
        model = parse(f)
        obj = model.obj
        kinds.add(model.kind)
        if model.kind == "sft":
            ref = _reference_sft(model.body)
            assert obj.alphabet.labels == ref.alphabet.labels
            assert obj.transition.dtype == ref.transition.dtype
            assert np.array_equal(obj.transition, ref.transition)
        elif model.kind == "markov-chain":
            ref = _reference_chain(model.body)
            assert obj.pi.dtype == ref.pi.dtype and obj.P.dtype == ref.P.dtype
            assert np.array_equal(obj.pi, ref.pi), f
            assert np.array_equal(obj.P, ref.P), f
        elif model.kind == "markov-map":
            ref = _reference_map(model.body)
            assert obj.breakpoints == ref.breakpoints
            assert obj.branches == ref.branches
        elif model.kind == "hofbauer-family":
            ref = _reference_family(model.body)
            assert type(obj) is type(ref)
            params = (("exponent", "depression", "a0")
                      if model.body["family"] == "critical-power" else ("c",))
            for name in params:
                assert getattr(obj, name) == getattr(ref, name), (f, name)
        else:
            assert model.kind == "potential" and obj is None
    assert kinds == {"sft", "potential", "markov-chain", "markov-map",
                     "hofbauer-family"}


def test_all_demo_models_parse_and_build():
    files = sorted(MODELS.glob("*.yaml"))
    assert len(files) == 12
    built = {f.stem: parse(f).obj for f in files}
    golden = built["golden-mean"]
    assert abs(golden.topological_entropy() -
               np.log((1 + np.sqrt(5)) / 2)) < 1e-10
    assert chain_labels(parse(MODELS / "three-cycle.yaml")) == ["a", "b", "c"]
    assert built["doubling"].covering
    assert not built["cantor-thirds"].covering


def test_potential_binding_against_demo_subshift():
    sft = parse(MODELS / "golden-mean.yaml").obj
    pot = bind_potential(parse(MODELS / "run-weights.yaml"), sft)
    assert pot.table == {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4}


def test_digest_is_sha256_of_raw_bytes():
    f = MODELS / "golden-mean.yaml"
    model = parse(f)
    assert model.digest == hashlib.sha256(f.read_bytes()).hexdigest()


def test_mark_reports_line_and_column():
    model = parse(MODELS / "golden-mean.yaml")
    line, col = model.mark("transition", 1, 0)
    assert line == 7 and col >= 5
    assert model.mark("no-such-field") == (None, None)


def test_parse_matches_pure_python_loader_on_every_demo_model():
    """Data and marks agree with PyYAML's pure-Python SafeLoader, whichever
    composer parse uses."""
    def paths(node, prefix=()):
        yield prefix, node
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                yield from paths(value, prefix + (key.value,))
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                yield from paths(item, prefix + (i,))

    for f in sorted(MODELS.glob("*.yaml")):
        ref = yaml.compose(f.read_text(), Loader=yaml.SafeLoader)
        data = yaml.constructor.SafeConstructor().construct_document(ref)
        model = parse(f)
        assert {"version": model.version, "kind": model.kind,
                **model.body} == data
        for path, node in paths(ref):
            assert model.mark(*path) == (node.start_mark.line + 1,
                                         node.start_mark.column + 1), (f, path)


# -- syntax layer -------------------------------------------------------------------


def test_malformed_yaml(tmp_path):
    p = write(tmp_path, "version: v1\nkind: sft\nlabels: [a, b\n")
    with pytest.raises(ModelSyntaxError) as exc:
        parse(p)
    assert exc.value.line is not None


def test_invalid_utf8(tmp_path):
    p = tmp_path / "model.yaml"
    p.write_bytes(b"version: v1\nkind: \xff\xfe\n")
    with pytest.raises(ModelSyntaxError):
        parse(p)


# -- schema layer --------------------------------------------------------------------


def test_top_level_must_be_mapping(tmp_path):
    with pytest.raises(ModelSchemaError):
        parse(write(tmp_path, "- 1\n- 2\n"))


def test_version_field_required_and_checked(tmp_path):
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "kind: sft\nlabels: ['a']\ntransition: [[1]]\n"))
    assert exc.value.field == "version"
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v2\nkind: sft\n"))
    assert exc.value.field == "version"
    assert exc.value.line == 1


def test_unknown_kind_and_field(tmp_path):
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: spin-glass\n"))
    assert exc.value.field == "kind"
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: ['a']\n"
                              "transition: [[1]]\nextra: 3\n"))
    assert exc.value.field == "extra"


def test_wrong_types_are_schema_errors(tmp_path):
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: potential\nrange: two\n"
                              "values: {'00': 1}\n"))
    assert exc.value.field == "range"
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: ['a', 'b']\n"
                              "transition: [[1, true], [1, 0]]\n"))
    assert exc.value.field == "transition.0.1"


# -- semantic layer ------------------------------------------------------------------


@pytest.mark.parametrize("label", ["!!bool x", "!!int 09", "!!timestamp x",
                                   "!!float x", "!!int x", "!!int 5",
                                   '!!int ""'])
def test_a_type_tag_is_refused_at_its_field(tmp_path, loader, label):
    # a scalar is read by the grammar alone: a tag that would type it
    # otherwise is refused, whether YAML 1.1 could construct the value or not
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                              f"labels: [{label}, b]\n"
                              "transition: [[0.5, 0.5], [0.5, 0.5]]\n"))
    assert f"tags are refused, got {label.split()[0]}" in str(exc.value)
    assert exc.value.field == "labels.0"
    assert (exc.value.line, exc.value.column) == (3, 10)


@pytest.mark.parametrize("label", ["2020-13-45", "2020-12-25 25:00:00"])
def test_a_date_shaped_label_is_a_string(tmp_path, loader, label):
    model = parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                                  f"labels: [{label}, b]\n"
                                  "transition: [[0.5, 0.5], [0.5, 0.5]]\n"))
    assert chain_labels(model) == [label, "b"]


def test_a_date_shaped_transition_entry_is_a_schema_error(tmp_path, loader):
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: [a, b]\n"
                              "transition: [[1, 2020-01-01], [1, 0]]\n"))
    assert exc.value.field == "transition.0.1"


def test_transition_entries_must_be_binary(tmp_path):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: ['a', 'b']\n"
                              "transition:\n  - [1, 2]\n  - [1, 0]\n"))
    assert exc.value.field == "transition.0.1"
    assert exc.value.line == 5


def test_zero_row_is_semantic(tmp_path):
    with pytest.raises(ModelSemanticError):
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: ['a', 'b']\n"
                              "transition: [[1, 1], [0, 0]]\n"))


def test_duplicate_labels_are_semantic(tmp_path):
    with pytest.raises(ModelSemanticError):
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: ['a', 'a']\n"
                              "transition: [[1, 1], [1, 0]]\n"))


def test_renormalization_is_refused(tmp_path):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                              "transition:\n  - [0.5, 0.4999]\n  - [0.5, 0.5]\n"))
    assert "renormalization is refused" in str(exc.value)
    assert exc.value.field == "transition.0"
    # within 1e-9 the row passes untouched
    parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                          "transition:\n  - [0.5, 0.4999999999]\n"
                          "  - [0.5, 0.5]\n"))


def test_pi_must_be_stationary(tmp_path):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                              "transition:\n  - [0.9, 0.1]\n  - [0.5, 0.5]\n"
                              "pi: [0.5, 0.5]\n"))
    assert exc.value.field == "pi"
    model = parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                                  "transition:\n  - [0.5, 0.5]\n"
                                  "  - [0.5, 0.5]\npi: [0.5, 0.5]\n"))
    chain = model.obj
    assert np.array_equal(chain.pi, [0.5, 0.5])


def test_potential_word_length_must_match_range(tmp_path):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: potential\nrange: 2\n"
                              "values:\n  '000': 1.0\n"))
    assert exc.value.field == "values.000"


def test_flat_slope_is_semantic(tmp_path):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-map\n"
                              "breakpoints: ['0', '1/2', '1']\n"
                              "branches:\n"
                              "  - {slope: 1, image: [0]}\n"
                              "  - {slope: 2, image: [0, 1]}\n"))
    assert exc.value.field == "branches"


def test_hofbauer_family_fields(tmp_path):
    with pytest.raises(ModelSchemaError):
        parse(write(tmp_path, "version: v1\nkind: hofbauer-family\n"
                              "family: quartic\n"))
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: hofbauer-family\n"
                              "family: inverse-square\nexponent: 3\n"))
    assert exc.value.field == "exponent"
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: hofbauer-family\n"
                              "family: critical-power\nexponent: 0.5\n"))
    assert exc.value.field == "exponent"


@pytest.mark.parametrize("fields, first", [
    ("exponent: true\nscale: 2.0\n", "exponent"),
    ("scale: 2.0\nexponent: true\n", "scale"),
])
def test_hofbauer_fields_are_checked_in_file_order(tmp_path, fields, first):
    # both faults in either order: the diagnostic names the first in the
    # file, whatever the hash seed
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: hofbauer-family\n"
                              "family: critical-power\n" + fields))
    assert exc.value.field == first


# -- the number grammar --------------------------------------------------------------


@pytest.fixture(params=["default", "pure-python"])
def loader(request, monkeypatch):
    """The loader parse composes with: libyaml's where PyYAML has it, and
    the pure-Python one, which gives a plain scalar the style None, not ''."""
    if request.param == "pure-python":
        monkeypatch.setattr(modelio, "_LOADER", yaml.BaseLoader)
    return modelio._LOADER


def _read(text, loader):
    """``x`` of the one-line document ``x: text`` as parse reads it."""
    node = yaml.compose(f"x: {text}\n", Loader=loader)
    model = modelio.ModelFile(path="x.yaml", kind=None, version=None,
                              body=None, digest=None, node=node)
    return modelio._read(model, node, (), set())["x"]


def _sign(x):
    return math.copysign(1.0, x) if isinstance(x, float) else None


_PIECES = ["0", "1", "7", "9", "-", "+", ".", "e", "E", "_", ":", "0x", "0o",
           "0b", ".inf", ".nan"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=8).map("".join),
       st.sampled_from([modelio._LOADER, yaml.BaseLoader]))
def test_the_grammar_reads_numbers_as_yaml11_does(literal, loader):
    text = f"x: {literal}\n"
    try:
        expected = yaml.load(text, Loader=yaml.SafeLoader)["x"]
    except yaml.YAMLError:
        assume(False)       # not a plain scalar in this place
    except ValueError:
        # YAML 1.1 types it but cannot build it: an impossible date is no
        # number, and an int such as 0x_ no number the grammar can read
        tag = yaml.resolver.Resolver().resolve(yaml.ScalarNode, literal,
                                               (True, False))
        expected = math.nan if tag.endswith((":int", ":float")) else literal
    number = isinstance(expected, (int, float)) and not isinstance(expected,
                                                                   bool)
    try:
        got = _read(literal, loader)
    except ModelSemanticError as exc:
        # a YAML 1.1 number the grammar does not take is refused at its field
        assert number and exc.field == "x" and exc.line == 1, literal
        return
    if isinstance(got, (int, float)):
        assert number and type(got) is type(expected), literal
        assert got == expected and _sign(got) == _sign(expected), literal
    else:
        # never a YAML 1.1 string read as a number, nor the reverse
        assert not number and got == literal, literal


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("+17", 17), ("0.5", 0.5), ("-0.0", -0.0),
    (".5", 0.5), ("1.", 1.0), ("00.25", 0.25), ("1.5e-3", 1.5e-3),
    ("1" + "0" * 308, 10 ** 308), ("~", None), ("null", None), ("", None),
    ("1e3", "1e3"), ("0o17", "0o17"), ("-.5", "-.5"), ("yes", "yes"),
    ("08", "08"), ("'012'", "012"), ('"0.1"', "0.1"), ("|\n  7", "7\n"),
])
def test_the_grammar_on_chosen_literals(loader, text, value):
    got = _read(text, loader)
    assert got == value and type(got) is type(value)
    assert _sign(got) == _sign(value)


@pytest.mark.parametrize("entry, reason", [
    ("012", "numbers must be finite decimals, got '012'"),
    ("0x1F", "numbers must be finite decimals, got '0x1F'"),
    ("0b1", "numbers must be finite decimals, got '0b1'"),
    ("1_000", "numbers must be finite decimals, got '1_000'"),
    ("1:30", "numbers must be finite decimals, got '1:30'"),
    (".inf", "numbers must be finite decimals, got '.inf'"),
    (".nan", "numbers must be finite decimals, got '.nan'"),
    ("1.0e+400", "floats must fit a double, got '1.0e+400'"),
    ("2" + "0" * 308, "integers must fit a double, got an integer of 309 "
                      "digits"),
    ("-1" + "0" * 5000, "integers must fit a double, got an integer of 5001 "
                        "digits"),
])
def test_a_number_outside_the_grammar_is_refused_at_its_field(tmp_path, loader,
                                                              entry, reason):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-chain\ntransition:\n"
                              f"  - [0.5, 0.5]\n  - [0.5, {entry}]\n"))
    assert str(exc.value).startswith(f"{tmp_path / 'model.yaml'}: {reason}")
    assert exc.value.field == "transition.1.1"
    assert (exc.value.line, exc.value.column) == (5, 11)


def test_quotes_make_a_breakpoint_a_string(tmp_path, loader):
    text = ("version: v1\nkind: markov-map\nbreakpoints: [0, {}, 1]\n"
            "branches:\n  - {{slope: 10, image: [0, 1]}}\n"
            "  - {{slope: '10/9', image: [0, 1]}}\n")
    quoted = parse(write(tmp_path, text.format('"0.1"')))
    assert quoted.body["breakpoints"] == [0, "0.1", 1]
    assert quoted.obj.breakpoints[1] == Fraction(1, 10)
    # a plain 0.1 is the double nearest 1/10, so branch 0 no longer fits
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, text.format("0.1")))
    assert f"|slope| * length = {10 * Fraction(0.1)} but" in str(exc.value)


def test_unquoted_word_keys_bind(tmp_path, loader):
    sft = parse(MODELS / "golden-mean.yaml").obj
    pot = bind_potential(parse(write(
        tmp_path, "version: v1\nkind: potential\nrange: 2\n"
                  "values: {00: -0.2, 01: -0.7, 10: 0.4}\n")), sft)
    assert pot.table == {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4}


def test_the_demo_models_read_alike_without_libyaml(monkeypatch):
    monkeypatch.setattr(modelio, "_LOADER", yaml.BaseLoader)
    test_parse_matches_pure_python_loader_on_every_demo_model()


def test_a_billion_laughs_are_refused_at_once(tmp_path, loader):
    lines = ["version: v1", "kind: sft", "l0: &l0 [" + ", ".join(["lol"] * 9)
             + "]"]
    lines += [f"l{k}: &l{k} [" + ", ".join([f"*l{k - 1}"] * 9) + "]"
              for k in range(1, 9)]
    start = time.perf_counter()
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "\n".join(lines) + "\n"))
    assert time.perf_counter() - start < 1.0
    assert "aliases of lists and mappings are refused" in str(exc.value)
    assert exc.value.field == "l1.0"


def test_a_recursive_alias_is_refused(tmp_path, loader):
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: sft\nlabels: &a [a, *a]\n"))
    assert exc.value.field == "labels.1"


def test_deep_nesting_is_a_schema_error(tmp_path, loader):
    # the walk recurses once a level, so it stops long before Python must
    with pytest.raises(ModelSchemaError) as exc:
        parse(write(tmp_path, "version: v1\nkind: sft\n"
                              f"labels: {'[' * 300}{']' * 300}\n"))
    assert exc.value.field == "labels" + ".0" * 16


@pytest.mark.parametrize("key", ["[a, b]", "{a: 1}"])
def test_a_mapping_key_that_is_no_scalar_is_a_syntax_error(tmp_path, loader,
                                                           key):
    with pytest.raises(ModelSyntaxError) as exc:
        parse(write(tmp_path, f"version: v1\nkind: sft\n? {key}\n: 1\n"))
    assert (exc.value.line, exc.value.column) == (3, 3)


# -- binding --------------------------------------------------------------------------


def test_bind_rejects_unknown_and_inadmissible_words(tmp_path):
    sft = parse(MODELS / "golden-mean.yaml").obj
    with pytest.raises(ModelSemanticError) as exc:
        bind_potential(parse(write(tmp_path,
                                   "version: v1\nkind: potential\nrange: 2\n"
                                   "values:\n  '02': 1.0\n")), sft)
    assert exc.value.field == "values.02"
    with pytest.raises(ModelSemanticError) as exc:
        bind_potential(parse(write(tmp_path,
                                   "version: v1\nkind: potential\nrange: 2\n"
                                   "values:\n  '11': 1.0\n")), sft)
    assert "not admissible" in str(exc.value)


def test_bind_requires_exact_coverage(tmp_path):
    sft = parse(MODELS / "golden-mean.yaml").obj
    with pytest.raises(ModelSemanticError):
        bind_potential(parse(write(tmp_path,
                                   "version: v1\nkind: potential\nrange: 2\n"
                                   "values:\n  '00': 1.0\n  '01': 2.0\n")), sft)


def test_bind_needs_single_character_labels(tmp_path):
    sft_model = parse(write(tmp_path, "version: v1\nkind: sft\n"
                                      "labels: ['ab', 'c']\n"
                                      "transition: [[1, 1], [1, 0]]\n"))
    pot_model = parse(MODELS / "run-weights.yaml")
    with pytest.raises(ModelSemanticError) as exc:
        bind_potential(pot_model, sft_model.obj)
    assert "single" in str(exc.value)


def test_bind_rejects_wrong_kind():
    chain_model = parse(MODELS / "three-cycle.yaml")
    sft = parse(MODELS / "golden-mean.yaml").obj
    with pytest.raises(ModelSemanticError):
        bind_potential(chain_model, sft)
