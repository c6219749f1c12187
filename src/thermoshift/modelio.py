"""Versioned model files for the batch front-end.

A model file is a YAML mapping carrying `version: v1`, a `kind` selecting one
of five schemas, and the body fields of that schema.  Validation separates
three layers so failures map onto distinct exit codes:

  syntax    the text is not well-formed YAML,
  schema    missing/unknown fields or fields of the wrong type,
  semantic  well-typed values violating a model invariant (rows not
            stochastic, transition entries other than 0/1, slope too flat).

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
import math
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
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


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


def _nodes(node, path=()):
    """Every node under ``node``, itself included, with its path as _mark
    takes it."""
    yield path, node
    if isinstance(node, yaml.MappingNode):
        for key, child in node.value:
            yield from _nodes(child, path + (key.value,))
    elif isinstance(node, yaml.SequenceNode):
        for i, child in enumerate(node.value):
            yield from _nodes(child, path + (i,))


class _Constructor(yaml.constructor.SafeConstructor):
    """PyYAML's safe constructor, except that a scalar its tag's constructor
    refuses with a bare ValueError, LookupError or AttributeError is a
    semantic error at its field: ``!!bool x``, ``!!int ""``, an integer past
    Python's int-string limit (4300 digits by default), which no double holds
    either, or a scalar shaped like an impossible date, such as 2020-13-45."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError) as exc:
            if not isinstance(node, yaml.ScalarNode):
                raise
            # a mapping key has no path
            path = next((p for p, n in _nodes(self.model.node) if n is node), ())
            raise _semantic(self.model, _refusal(node, exc), *path) from None


def _refusal(node, exc):
    """Why a scalar constructor refused ``node`` with ``exc``."""
    tag = node.tag.rpartition(":")[2]
    if tag == "timestamp":
        # datetime refuses an impossible date with a ValueError; a scalar
        # that PyYAML's date regexp does not match fails as an AttributeError
        reason = (str(exc) if isinstance(exc, ValueError)
                  else "it has no date shape")
        return f"{node.value} is not a date: {reason}"
    digits = node.value.replace("_", "").lstrip("+-")
    # int() reads such a literal in base 10, so only its length can fail it
    if tag == "int" and digits.isdecimal() and digits[0] != "0":
        return ("integers must fit a double, got an integer of "
                f"{len(digits)} digits")
    return f"{node.value!r} is not a valid !!{tag}"


def _is_number(x, types=(int, float)):
    """Whether x is one of ``types``; YAML's true and false are bools, which
    count as none of them."""
    return isinstance(x, types) and not isinstance(x, bool)


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
        data = (None if model.node is None
                else _Constructor(model).construct_document(model.node))
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


def _require_finite(model, x, what, *path):
    """Refuse an infinite or NaN number at the field it came from."""
    if isinstance(x, float) and not math.isfinite(x):
        raise _semantic(model, f"{what} must be finite, got {x}", *path)


def _require_double(model, x, what, *path):
    """Refuse an integer past the largest double at the field it came from,
    where the engines read the field as a float."""
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        # its decimal digits, counted without str(), which refuses more than
        # 4300 of them: a hex literal reaches that count and still parses
        digits = int((abs(x).bit_length() - 1) * math.log10(2)) + 1
        digits += abs(x) >= 10 ** digits
        raise _semantic(model, f"{what} must fit a double, got an integer of "
                               f"{digits} digits", *path)


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
    if not _is_number(val, types):
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
            if not _is_number(x):
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
        if not isinstance(word, str):
            raise _schema(model, "word keys must be strings", "values")
        if not _is_number(val):
            raise _schema(model, "potential values must be numbers",
                          "values", word)
        _require_finite(model, val, "potential values", "values", word)
        _require_double(model, val, "potential values", "values", word)
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
        _require_finite(model, x, "transition entries", "transition", i, j)
        _require_double(model, x, "transition entries", "transition", i, j)
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
        if not isinstance(pi, list) or not all(map(_is_number, pi)):
            raise _schema(model, "pi must be a list of numbers", "pi")
        if len(pi) != n:
            raise _semantic(model, f"pi has {len(pi)} entries for {n} states",
                            "pi")
        for i, x in enumerate(pi):
            _require_finite(model, x, "pi entries", "pi", i)
            _require_double(model, x, "pi entries", "pi", i)
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
        if not _is_number(x, (int, float, str)):
            raise _schema(model, "breakpoints must be numbers or 'p/q' strings",
                          "breakpoints", i)
        _require_finite(model, x, "breakpoints", "breakpoints", i)
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
        if not _is_number(slope, (int, float, str)):
            raise _schema(model, "slope must be a number or 'p/q' string",
                          "branches", i, "slope")
        _require_finite(model, slope, "slope", "branches", i, "slope")
        slope = _rational(model, slope, "slope", "branches", i, "slope")
        image = entry["image"]
        if not isinstance(image, list) or not all(
                _is_number(j, int) for j in image):
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
        if not _is_number(val):
            raise _schema(model, f"field {name!r} must be a number", name)
        _require_finite(model, val, f"field {name!r}", name)
        _require_double(model, val, f"field {name!r}", name)
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
