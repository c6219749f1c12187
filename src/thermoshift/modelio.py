r"""Versioned model files for the batch front-end.

A model file is a YAML mapping carrying `version: v1`, a `kind` selecting one
of five schemas, and the body fields of that schema.  Validation separates
three layers so failures map onto distinct exit codes:

  syntax    the text is not well-formed YAML,
  schema    missing/unknown fields or fields of the wrong type,
  semantic  well-typed values violating a model invariant (rows not
            stochastic, transition entries other than 0/1, slope too flat).

No scalar is typed by YAML 1.1's rules.  Mapping keys and quoted or block
scalars are strings.  A plain scalar is an int [-+]?(0|[1-9][0-9]*), a float
[-+]?[0-9]+\.[0-9]*([eE][-+][0-9]+)? or \.[0-9]+([eE][-+][0-9]+)?, None if
~, null, Null, NULL or empty, and else a string: the numbers are the YAML 1.1
literals Python reads as the same number.  A plain scalar that YAML 1.1
reads as a number of another form (012, 0x1F, 1_000, 1:30, .inf), a number
past the double range, a type tag such as !!int and an alias of a list or
mapping are semantic errors at their field.

Diagnostics name the first offending field and, where the YAML node tree
provides one, its line and column.  Numeric tolerances follow the library:
probability rows must sum to 1 within 1e-9, and renormalization is never
applied silently.

The semantic layer is checked by constructing the engine object, and that
object is kept on the returned ModelFile as ``obj``: a file is parsed and
built once.  A potential needs its subshift, so it is built later by
bind_potential and its ``obj`` stays None.
"""

from __future__ import annotations

import hashlib
import re
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .errors import (ModelSchemaError, ModelSemanticError, ModelSyntaxError,
                     NotExpanding, NotMarkov, OutOfRange, ZeroRowOrColumn)

VERSION = "v1"
KINDS = ("sft", "potential", "markov-map", "hofbauer-family", "markov-chain")

_FIELDS = {
    "sft": {"labels", "transition"},
    "potential": {"range", "values"},
    "markov-chain": {"transition", "labels", "pi"},
    "markov-map": {"breakpoints", "branches"},
    "hofbauer-family": {"family", "exponent", "depression", "scale"},
}

_STOCHASTIC_TOL = 1e-9

# libyaml composes the same nodes, with the same marks, several times faster;
# PyYAML builds without it fall back to the pure-Python composer
_LOADER = yaml.CBaseLoader if yaml.__with_libyaml__ else yaml.BaseLoader

# the number grammar of a plain scalar, as the module docstring states it
_GRAMMAR = re.compile(r"(?P<int>[-+]?(?:0|[1-9][0-9]*))"
                      r"|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?"
                      r"|\.[0-9]+(?:[eE][-+][0-9]+)?)"
                      r"|(?P<null>~|null|Null|NULL|)")
_DOUBLE_DIGITS = len(str(int(sys.float_info.max)))
_DEPTH = 16     # far past any schema's nesting, far short of recursion's
# the tags the base loader gives an untagged scalar, list and mapping
_UNTAGGED = {f"tag:yaml.org,2002:{kind}" for kind in ("str", "seq", "map")}
# asked only whether YAML 1.1 reads a scalar the grammar misses as a number
_YAML11 = yaml.resolver.Resolver()


@dataclass
class ModelFile:
    """A parsed and validated model: kind, body fields, and provenance."""

    path: str
    kind: str
    version: str
    body: dict
    digest: str                      # sha256 of the raw file bytes
    node: object = field(repr=False, default=None)
    # SubshiftOfFiniteType, MarkovMeasure, PiecewiseLinearMarkovMap or a
    # Hofbauer family; None for a potential
    obj: object = field(repr=False, default=None)

    def mark(self, *path):
        """1-based (line, column) of a field, or (None, None) if untracked."""
        return _mark(self.node, path)


def _mark(node, path):
    cur = node
    for step in path:
        if isinstance(cur, yaml.MappingNode) and isinstance(step, str):
            for k, v in cur.value:
                if k.value == step:
                    cur = v
                    break
            else:
                return (None, None)
        elif isinstance(cur, yaml.SequenceNode) and isinstance(step, int):
            if not 0 <= step < len(cur.value):
                return (None, None)
            cur = cur.value[step]
        else:
            return (None, None)
    return (cur.start_mark.line + 1, cur.start_mark.column + 1)


def _fault(kind, model, message, *path):
    """A ``kind`` error on the model's file: the message is prefixed with its
    path, and the field at ``path``, if any, is marked and named dotted."""
    line, col = _mark(model.node, path) if path else (None, None)
    return kind(f"{model.path}: {message}",
                field=".".join(map(str, path)) or None, line=line, column=col)


_schema = partial(_fault, ModelSchemaError)
_semantic = partial(_fault, ModelSemanticError)


def _read(model, node, path, seen):
    """The data of ``node`` at ``path``, read as the module docstring says;
    ``seen`` holds the ids of the lists and mappings read so far."""
    if node.tag not in _UNTAGGED:
        raise _tagged(model, node, path)
    if type(node) is yaml.ScalarNode:
        # libyaml gives a plain scalar the style '', PyYAML's composer None
        return node.value if node.style else _plain(model, node.value, path)
    if id(node) in seen:
        raise _semantic(model, "aliases of lists and mappings are refused",
                        *path)
    if len(path) > _DEPTH:
        raise _schema(model, f"lists and mappings nest at most {_DEPTH} deep",
                      *path)
    seen.add(id(node))
    if type(node) is yaml.SequenceNode:
        return [_read(model, item, path + (i,), seen)
                for i, item in enumerate(node.value)]
    data = {}
    for key, value in node.value:
        if type(key) is not yaml.ScalarNode:
            raise yaml.constructor.ConstructorError(
                None, None, "a mapping key must be a scalar", key.start_mark)
        if key.tag not in _UNTAGGED:
            raise _tagged(model, key, path + (key.value,))
        data[key.value] = _read(model, value, path + (key.value,), seen)
    return data


def _tagged(model, node, path):
    """A YAML 1.1 type tag is refused at its field; a tag that no safe
    loader knows is malformed YAML, as it is to those loaders."""
    if node.tag not in yaml.SafeLoader.yaml_constructors:
        return yaml.constructor.ConstructorError(
            None, None, "could not determine a constructor for the tag "
                        f"{node.tag!r}", node.start_mark)
    tag = node.tag.replace("tag:yaml.org,2002:", "!!")
    return _semantic(model, f"tags are refused, got {tag}", *path)


def _plain(model, text, path):
    """A plain scalar read through the grammar."""
    m = _GRAMMAR.fullmatch(text)
    if m is None:
        if _YAML11.resolve(yaml.ScalarNode, text, (True, False)).endswith(
                (":int", ":float")):
            raise _semantic(model, "numbers must be finite decimals, got "
                                   f"{reprlib.repr(text)}; quote a string",
                            *path)
        return text
    if m.lastgroup == "int":
        digits = len(text.lstrip("+-"))
        # counted first: int() refuses more than 4300 digits
        if digits > _DOUBLE_DIGITS or abs(x := int(text)) > sys.float_info.max:
            raise _semantic(model, "integers must fit a double, got an "
                                   f"integer of {digits} digits", *path)
        return x
    if m.lastgroup == "float":
        if abs(x := float(text)) > sys.float_info.max:
            raise _semantic(model, "floats must fit a double, got "
                                   f"{reprlib.repr(text)}", *path)
        return x
    return None


def parse(path) -> ModelFile:
    """Read, syntax-check and validate a model file.

    Self-contained semantic invariants are checked here as well, by building
    the engine object, which the returned ModelFile carries as ``obj``.
    Potential files still need binding to a subshift before use; see
    bind_potential.
    """
    raw = Path(path).read_bytes()
    model = ModelFile(path=str(path), kind=None, version=VERSION, body=None,
                      digest=hashlib.sha256(raw).hexdigest())
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"{path}: not valid UTF-8 ({exc})") from None
    try:
        model.node = yaml.compose(text, Loader=_LOADER)
        data = _read(model, model.node, (), set()) if model.node else None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        raise ModelSyntaxError(
            f"{path}: {exc.problem or 'malformed YAML'}",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1) from None
    except yaml.YAMLError as exc:
        raise ModelSyntaxError(f"{path}: {exc}") from None

    if not isinstance(data, dict):
        raise _schema(model, "top level must be a mapping")
    if "version" not in data:
        raise _schema(model, "missing required field 'version'", "version")
    if data["version"] != VERSION:
        raise _schema(model, f"unsupported version {data['version']!r}, "
                             f"expected {VERSION!r}", "version")
    if "kind" not in data:
        raise _schema(model, "missing required field 'kind'", "kind")
    model.kind = data["kind"]
    if model.kind not in KINDS:
        raise _schema(model, f"unknown kind {model.kind!r}", "kind")
    allowed = _FIELDS[model.kind] | {"version", "kind"}
    for key in data:
        if key not in allowed:
            raise _schema(model, f"unknown field {key!r} for kind {model.kind}",
                          key)
    model.body = {k: v for k, v in data.items() if k not in ("version", "kind")}
    model.obj = _VALIDATORS[model.kind](model)
    return model


def _rational(model, x, what, *path):
    """A number as the map reads it, a 'p/q' string as its Fraction; a
    string that is no rational is refused at the field it came from."""
    if not isinstance(x, str):
        return x
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise _semantic(model, f"{what} {x!r} is not a rational number",
                        *path) from None


def _require(model, name, types, type_name):
    if name not in model.body:
        raise _schema(model, f"missing required field {name!r}", name)
    val = model.body[name]
    if not isinstance(val, types):
        raise _schema(model, f"field {name!r} must be {type_name}", name)
    return val


def _entries(model, rows, n):
    """(i, j, x) for each entry of the n x n ``transition`` list, in
    row-major order.  A row is checked to be a list of n entries, and an
    entry to be a number, before the caller's own check of that entry."""
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise _schema(model, "transition rows must be lists", "transition", i)
        if len(row) != n:
            raise _semantic(model, f"transition row {i} has {len(row)} entries, "
                                   f"expected {n}", "transition", i)
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)):
                raise _schema(model, "transition entries must be numbers",
                              "transition", i, j)
            yield i, j, x


def _check_sft(model):
    labels = _require(model, "labels", list, "a list of symbol labels")
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or not lab:
            raise _schema(model, "labels must be non-empty strings", "labels", i)
    from .sft import Alphabet, SubshiftOfFiniteType

    try:
        alphabet = Alphabet(labels)
    except ValueError as exc:
        raise _semantic(model, str(exc), "labels") from None
    rows = _require(model, "transition", list, "a matrix (list of rows)")
    n = len(labels)
    if len(rows) != n:
        raise _semantic(model, f"transition has {len(rows)} rows but there are "
                               f"{n} labels", "transition")
    for i, j, x in _entries(model, rows, n):
        if x not in (0, 1):
            raise _semantic(model, "transition entries must be 0/1",
                            "transition", i, j)
    try:
        return SubshiftOfFiniteType(alphabet, np.array(rows, dtype=np.int8))
    except ZeroRowOrColumn as exc:
        raise _semantic(model, str(exc), "transition") from None


def _check_potential(model):
    r = _require(model, "range", int, "a positive integer")
    if r < 1:
        raise _semantic(model, "range must be >= 1", "range")
    values = _require(model, "values", dict, "a mapping word -> value")
    if not values:
        raise _semantic(model, "values must not be empty", "values")
    for word, val in values.items():
        if not isinstance(val, (int, float)):
            raise _schema(model, "potential values must be numbers",
                          "values", word)
        if len(word) != r:
            raise _semantic(model, f"word {word!r} has length {len(word)}, "
                                   f"expected range {r}", "values", word)


def bind_potential(model: ModelFile, sft: SubshiftOfFiniteType) -> LocallyConstantPotential:
    """Attach a potential file to a subshift, decoding word keys by label.

    Word keys are strings of concatenated labels, so every label must be a
    single character; the table must cover exactly the admissible words.
    """
    from .potentials import LocallyConstantPotential

    if model.kind != "potential":
        raise _semantic(model, f"expected a potential file, got kind "
                               f"{model.kind!r}")
    labels = sft.alphabet.labels
    if any(len(lab) != 1 for lab in labels):
        raise _semantic(model, "word keys need single-character subshift "
                               f"labels, got {list(labels)}", "values")
    r = model.body["range"]
    table = {}
    for word, val in model.body["values"].items():
        try:
            key = tuple(map(sft.alphabet.index, word))
        except KeyError as exc:
            raise _semantic(model, f"word {word!r} uses unknown label "
                                   f"{exc.args[0]!r}", "values", word) from None
        if not sft.is_admissible(key):
            raise _semantic(model, f"word {word!r} is not admissible",
                            "values", word)
        table[key] = float(val)
    try:
        return LocallyConstantPotential(sft, r, table)
    except ValueError as exc:
        raise _semantic(model, str(exc), "values") from None


def _check_markov_chain(model):
    rows = _require(model, "transition", list, "a matrix (list of rows)")
    n = len(rows)
    if n == 0:
        raise _semantic(model, "transition must not be empty", "transition")
    P = np.zeros((n, n))
    for i, j, x in _entries(model, rows, n):
        if x < 0:
            raise _semantic(model, "transition entries must be >= 0",
                            "transition", i, j)
        P[i, j] = x
        if j == n - 1 and abs(P[i].sum() - 1.0) > _STOCHASTIC_TOL:
            raise _semantic(model, f"transition row {i} sums to "
                                   f"{P[i].sum():.12g}, not 1 within "
                                   f"{_STOCHASTIC_TOL}; renormalization is "
                                   "refused", "transition", i)
    labels = model.body.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or any(not isinstance(x, str) for x in labels):
            raise _schema(model, "labels must be a list of strings", "labels")
        if len(labels) != n:
            raise _semantic(model, f"{len(labels)} labels for {n} states",
                            "labels")
    pi = model.body.get("pi")
    if pi is not None:
        if not isinstance(pi, list) or not all(isinstance(x, (int, float)) for x in pi):
            raise _schema(model, "pi must be a list of numbers", "pi")
        if len(pi) != n:
            raise _semantic(model, f"pi has {len(pi)} entries for {n} states",
                            "pi")
        v = np.array(pi, dtype=float)
        if np.any(v < 0) or abs(v.sum() - 1.0) > _STOCHASTIC_TOL:
            raise _semantic(model, "pi is not a probability vector", "pi")
    from .measures import MarkovMeasure, stationary_vector

    try:
        return MarkovMeasure(v if pi is not None else stationary_vector(P), P)
    except ValueError as exc:
        raise _semantic(model, str(exc),
                        "pi" if pi is not None else "transition") from None


def chain_labels(model: ModelFile):
    labels = model.body.get("labels")
    if labels is None:
        labels = [str(i) for i in range(len(model.body["transition"]))]
    return list(labels)


def _check_markov_map(model):
    from .interval_maps import PiecewiseLinearMarkovMap

    pts = list(_require(model, "breakpoints", list, "a list of numbers or "
                                                    "'p/q' strings"))
    for i, x in enumerate(pts):
        if not isinstance(x, (int, float, str)):
            raise _schema(model, "breakpoints must be numbers or 'p/q' strings",
                          "breakpoints", i)
        pts[i] = _rational(model, x, "breakpoint", "breakpoints", i)
    branches = _require(model, "branches", list, "a list of branch entries")
    specs = []
    for i, entry in enumerate(branches):
        if entry is None:
            specs.append(None)
            continue
        if not isinstance(entry, dict):
            raise _schema(model, "branch entries must be null or mappings",
                          "branches", i)
        extra = set(entry) - {"slope", "image"}
        if extra:
            raise _schema(model, f"unknown branch field {sorted(extra)[0]!r}",
                          "branches", i)
        if "slope" not in entry or "image" not in entry:
            raise _schema(model, f"branch {i} needs 'slope' and 'image'",
                          "branches", i)
        slope = entry["slope"]
        if not isinstance(slope, (int, float, str)):
            raise _schema(model, "slope must be a number or 'p/q' string",
                          "branches", i, "slope")
        slope = _rational(model, slope, "slope", "branches", i, "slope")
        image = entry["image"]
        if not isinstance(image, list) or not all(
                isinstance(j, int) for j in image):
            raise _schema(model, "image must be a list of interval indices",
                          "branches", i, "image")
        specs.append((slope, tuple(image)))
    try:
        return PiecewiseLinearMarkovMap(pts, specs)
    except (NotMarkov, NotExpanding, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise _semantic(model, str(exc), "branches") from None


# family -> {numeric field: default}; the first field is the one the family
# refuses out of range
_FAMILIES = {"critical-power": {"exponent": 3.0, "depression": 0.0},
             "inverse-square": {"scale": 1.0}}


def _check_hofbauer(model):
    fam = _require(model, "family", str, "one of " + ", ".join(_FAMILIES))
    if fam not in _FAMILIES:
        raise _schema(model, f"unknown family {fam!r}", "family")
    defaults = _FAMILIES[fam]
    for name, val in model.body.items():    # file order: the first fault is named
        if name == "family":
            continue
        if name not in defaults:
            raise _schema(model, f"field {name!r} does not apply to family "
                                 f"{fam}", name)
        if not isinstance(val, (int, float)):
            raise _schema(model, f"field {name!r} must be a number", name)
    from .hofbauer import CriticalPowerFamily, InverseSquareFamily

    family = (CriticalPowerFamily if fam == "critical-power"
              else InverseSquareFamily)
    try:
        return family(**{name: model.body.get(name, default)
                         for name, default in defaults.items()})
    except OutOfRange as exc:
        raise _semantic(model, str(exc), next(iter(defaults))) from None


_VALIDATORS = {
    "sft": _check_sft,
    "potential": _check_potential,
    "markov-chain": _check_markov_chain,
    "markov-map": _check_markov_map,
    "hofbauer-family": _check_hofbauer,
}
