"""Model file parsing: schema layers, field diagnostics, and the engine
object each file carries."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

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


@pytest.mark.parametrize("label, value, reason", [
    ("2020-13-45", "2020-13-45", "month must be in 1..12"),
    ("2020-12-25 25:00:00", "2020-12-25 25:00:00", "hour must be in 0..23"),
    ("!!timestamp x", "x", "it has no date shape"),
])
def test_an_impossible_date_is_refused_at_its_field(tmp_path, label, value,
                                                    reason):
    # YAML reads an unquoted scalar shaped like a date as a timestamp, and
    # datetime refuses an impossible one with a bare ValueError; an explicit
    # tag on any other scalar fails PyYAML's date regexp
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                              f"labels: [{label}, b]\n"
                              "transition: [[0.5, 0.5], [0.5, 0.5]]\n"))
    assert f"{value} is not a date: {reason}" in str(exc.value)
    assert exc.value.field == "labels.0"
    assert (exc.value.line, exc.value.column) == (3, 10)


@pytest.mark.parametrize("label, reason", [
    ("!!bool x", "'x' is not a valid !!bool"),           # a KeyError
    ("!!float x", "'x' is not a valid !!float"),         # a ValueError
    ("!!int x", "'x' is not a valid !!int"),
    ("!!int 09", "'09' is not a valid !!int"),           # octal, by its 0
    ('!!int ""', "'' is not a valid !!int"),             # an IndexError
])
def test_a_scalar_its_tag_refuses_is_refused_at_its_field(tmp_path, label,
                                                          reason):
    # any scalar constructor's bare error becomes a diagnostic that names
    # the tag, where it once escaped as a traceback, a computation error or
    # the false reason of an integer too long for a double
    with pytest.raises(ModelSemanticError) as exc:
        parse(write(tmp_path, "version: v1\nkind: markov-chain\n"
                              f"labels: [{label}, b]\n"
                              "transition: [[0.5, 0.5], [0.5, 0.5]]\n"))
    assert str(exc.value).endswith(reason)
    assert exc.value.field == "labels.0"
    assert (exc.value.line, exc.value.column) == (3, 10)


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
