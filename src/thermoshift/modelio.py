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
from dataclasses import dataclass, field
from fractions import Fraction
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


def _schema(model_or_node, message, *path):
    line, col = _mark(model_or_node, path)
    return ModelSchemaError(message, field=".".join(str(p) for p in path) or None,
                            line=line, column=col)


def _semantic(node, message, *path):
    line, col = _mark(node, path)
    return ModelSemanticError(message, field=".".join(str(p) for p in path) or None,
                              line=line, column=col)


def parse(path) -> ModelFile:
    """Read, syntax-check and validate a model file.

    Self-contained semantic invariants are checked here as well, by building
    the engine object, which the returned ModelFile carries as ``obj``.
    Potential files still need binding to a subshift before use; see
    bind_potential.
    """
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"{path}: not valid UTF-8 ({exc})") from None
    try:
        node = yaml.compose(text, Loader=_LOADER)
        data = (None if node is None
                else yaml.constructor.SafeConstructor().construct_document(node))
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        raise ModelSyntaxError(
            f"{path}: {exc.problem or 'malformed YAML'}",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1) from None
    except yaml.YAMLError as exc:
        raise ModelSyntaxError(f"{path}: {exc}") from None

    if not isinstance(data, dict):
        raise ModelSchemaError(f"{path}: top level must be a mapping")
    if "version" not in data:
        raise _schema(node, f"{path}: missing required field 'version'", "version")
    if data["version"] != VERSION:
        raise _schema(node, f"{path}: unsupported version {data['version']!r}, "
                            f"expected {VERSION!r}", "version")
    if "kind" not in data:
        raise _schema(node, f"{path}: missing required field 'kind'", "kind")
    kind = data["kind"]
    if kind not in KINDS:
        raise _schema(node, f"{path}: unknown kind {kind!r}", "kind")
    allowed = _FIELDS[kind] | {"version", "kind"}
    for key in data:
        if key not in allowed:
            raise _schema(node, f"{path}: unknown field {key!r} for kind {kind}",
                          key)
    body = {k: v for k, v in data.items() if k not in ("version", "kind")}
    model = ModelFile(path=str(path), kind=kind, version=VERSION, body=body,
                      digest=digest, node=node)
    model.obj = _VALIDATORS[kind](model)
    return model


def _require_finite(model, x, what, *path):
    """Refuse an infinite or NaN number at the field it came from."""
    if isinstance(x, float) and not math.isfinite(x):
        raise _semantic(model.node, f"{model.path}: {what} must be finite, "
                                    f"got {x}", *path)


def _rational(model, x, what, *path):
    """A number as the map reads it, a 'p/q' string as its Fraction; a
    string that is no rational is refused at the field it came from."""
    if not isinstance(x, str):
        return x
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise _semantic(model.node, f"{model.path}: {what} {x!r} is not a "
                                    "rational number", *path) from None


def _require(model, name, types, type_name):
    if name not in model.body:
        raise _schema(model.node, f"{model.path}: missing required field "
                                  f"{name!r}", name)
    val = model.body[name]
    if not isinstance(val, types) or isinstance(val, bool):
        raise _schema(model.node, f"{model.path}: field {name!r} must be "
                                  f"{type_name}", name)
    return val


def _check_sft(model):
    labels = _require(model, "labels", list, "a list of symbol labels")
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or not lab:
            raise _schema(model.node, f"{model.path}: labels must be non-empty "
                                      "strings", "labels", i)
    from .sft import Alphabet, SubshiftOfFiniteType

    try:
        alphabet = Alphabet(labels)
    except ValueError as exc:
        raise _semantic(model.node, f"{model.path}: {exc}", "labels") from None
    rows = _require(model, "transition", list, "a matrix (list of rows)")
    n = len(labels)
    if len(rows) != n:
        raise _semantic(model.node, f"{model.path}: transition has {len(rows)} "
                                    f"rows but there are {n} labels", "transition")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise _schema(model.node, f"{model.path}: transition rows must be "
                                      "lists", "transition", i)
        if len(row) != n:
            raise _semantic(model.node, f"{model.path}: transition row {i} has "
                                        f"{len(row)} entries, expected {n}",
                            "transition", i)
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise _schema(model.node, f"{model.path}: transition entries "
                                          "must be numbers", "transition", i, j)
            if x not in (0, 1):
                raise _semantic(model.node, f"{model.path}: transition entries "
                                            "must be 0/1", "transition", i, j)
    try:
        return SubshiftOfFiniteType(alphabet, np.array(rows, dtype=np.int8))
    except ZeroRowOrColumn as exc:
        raise _semantic(model.node, f"{model.path}: {exc}", "transition") from None


def _check_potential(model):
    r = _require(model, "range", int, "a positive integer")
    if r < 1:
        raise _semantic(model.node, f"{model.path}: range must be >= 1", "range")
    values = _require(model, "values", dict, "a mapping word -> value")
    if not values:
        raise _semantic(model.node, f"{model.path}: values must not be empty",
                        "values")
    for word, val in values.items():
        if not isinstance(word, str):
            raise _schema(model.node, f"{model.path}: word keys must be strings",
                          "values")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise _schema(model.node, f"{model.path}: potential values must be "
                                      "numbers", "values", word)
        if len(word) != r:
            raise _semantic(model.node, f"{model.path}: word {word!r} has length "
                                        f"{len(word)}, expected range {r}",
                            "values", word)


def bind_potential(model: ModelFile, sft: SubshiftOfFiniteType) -> LocallyConstantPotential:
    """Attach a potential file to a subshift, decoding word keys by label.

    Word keys are strings of concatenated labels, so every label must be a
    single character; the table must cover exactly the admissible words.
    """
    from .potentials import LocallyConstantPotential

    if model.kind != "potential":
        raise ModelSemanticError(f"{model.path}: expected a potential file, "
                                 f"got kind {model.kind!r}")
    labels = sft.alphabet.labels
    if any(len(lab) != 1 for lab in labels):
        raise _semantic(model.node, f"{model.path}: word keys need single-"
                                    "character subshift labels, got "
                                    f"{list(labels)}", "values")
    index = {lab: i for i, lab in enumerate(labels)}
    r = model.body["range"]
    table = {}
    for word, val in model.body["values"].items():
        try:
            key = tuple(index[ch] for ch in word)
        except KeyError as exc:
            raise _semantic(model.node, f"{model.path}: word {word!r} uses "
                                        f"unknown label {exc.args[0]!r}",
                            "values", word) from None
        if not sft.is_admissible(key):
            raise _semantic(model.node, f"{model.path}: word {word!r} is not "
                                        "admissible", "values", word)
        table[key] = float(val)
    try:
        return LocallyConstantPotential(sft, r, table)
    except ValueError as exc:
        raise _semantic(model.node, f"{model.path}: {exc}", "values") from None


def _check_markov_chain(model):
    rows = _require(model, "transition", list, "a matrix (list of rows)")
    n = len(rows)
    if n == 0:
        raise _semantic(model.node, f"{model.path}: transition must not be "
                                    "empty", "transition")
    P = np.zeros((n, n))
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise _schema(model.node, f"{model.path}: transition rows must be "
                                      "lists", "transition", i)
        if len(row) != n:
            raise _semantic(model.node, f"{model.path}: transition row {i} has "
                                        f"{len(row)} entries, expected {n}",
                            "transition", i)
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise _schema(model.node, f"{model.path}: transition entries "
                                          "must be numbers", "transition", i, j)
            _require_finite(model, x, "transition entries", "transition", i, j)
            if x < 0:
                raise _semantic(model.node, f"{model.path}: transition entries "
                                            "must be >= 0", "transition", i, j)
            P[i, j] = x
        if abs(P[i].sum() - 1.0) > _STOCHASTIC_TOL:
            raise _semantic(model.node, f"{model.path}: transition row {i} sums "
                                        f"to {P[i].sum():.12g}, not 1 within "
                                        f"{_STOCHASTIC_TOL}; renormalization is "
                                        "refused", "transition", i)
    labels = model.body.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or any(not isinstance(x, str) for x in labels):
            raise _schema(model.node, f"{model.path}: labels must be a list of "
                                      "strings", "labels")
        if len(labels) != n:
            raise _semantic(model.node, f"{model.path}: {len(labels)} labels for "
                                        f"{n} states", "labels")
    pi = model.body.get("pi")
    if pi is not None:
        if not isinstance(pi, list) or any(
                isinstance(x, bool) or not isinstance(x, (int, float)) for x in pi):
            raise _schema(model.node, f"{model.path}: pi must be a list of "
                                      "numbers", "pi")
        if len(pi) != n:
            raise _semantic(model.node, f"{model.path}: pi has {len(pi)} entries "
                                        f"for {n} states", "pi")
        for i, x in enumerate(pi):
            _require_finite(model, x, "pi entries", "pi", i)
        v = np.array(pi, dtype=float)
        if np.any(v < 0) or abs(v.sum() - 1.0) > _STOCHASTIC_TOL:
            raise _semantic(model.node, f"{model.path}: pi is not a probability "
                                        "vector", "pi")
    from .measures import MarkovMeasure, stationary_vector

    try:
        return MarkovMeasure(v if pi is not None else stationary_vector(P), P)
    except ValueError as exc:
        raise _semantic(model.node, f"{model.path}: {exc}",
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
        if isinstance(x, bool) or not isinstance(x, (int, float, str)):
            raise _schema(model.node, f"{model.path}: breakpoints must be "
                                      "numbers or 'p/q' strings",
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
            raise _schema(model.node, f"{model.path}: branch entries must be "
                                      "null or mappings", "branches", i)
        extra = set(entry) - {"slope", "image"}
        if extra:
            raise _schema(model.node, f"{model.path}: unknown branch field "
                                      f"{sorted(extra)[0]!r}", "branches", i)
        if "slope" not in entry or "image" not in entry:
            raise _schema(model.node, f"{model.path}: branch {i} needs 'slope' "
                                      "and 'image'", "branches", i)
        slope = entry["slope"]
        if isinstance(slope, bool) or not isinstance(slope, (int, float, str)):
            raise _schema(model.node, f"{model.path}: slope must be a number or "
                                      "'p/q' string", "branches", i, "slope")
        _require_finite(model, slope, "slope", "branches", i, "slope")
        slope = _rational(model, slope, "slope", "branches", i, "slope")
        image = entry["image"]
        if not isinstance(image, list) or any(
                isinstance(j, bool) or not isinstance(j, int) for j in image):
            raise _schema(model.node, f"{model.path}: image must be a list of "
                                      "interval indices", "branches", i, "image")
        specs.append((slope, tuple(image)))
    try:
        return PiecewiseLinearMarkovMap(pts, specs)
    except (NotMarkov, NotExpanding, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise _semantic(model.node, f"{model.path}: {exc}", "branches") from None


_FAMILIES = ("critical-power", "inverse-square")


def _check_hofbauer(model):
    fam = _require(model, "family", str, "one of " + ", ".join(_FAMILIES))
    if fam not in _FAMILIES:
        raise _schema(model.node, f"{model.path}: unknown family {fam!r}",
                      "family")
    numeric = {"exponent", "depression", "scale"}
    relevant = {"critical-power": {"exponent", "depression"},
                "inverse-square": {"scale"}}[fam]
    for name in numeric:
        if name in model.body:
            if name not in relevant:
                raise _schema(model.node, f"{model.path}: field {name!r} does "
                                          f"not apply to family {fam}", name)
            val = model.body[name]
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise _schema(model.node, f"{model.path}: field {name!r} must "
                                          "be a number", name)
            _require_finite(model, val, f"field {name!r}", name)
    from .hofbauer import CriticalPowerFamily, InverseSquareFamily

    try:
        if fam == "critical-power":
            return CriticalPowerFamily(exponent=model.body.get("exponent", 3.0),
                                       depression=model.body.get("depression", 0.0))
        return InverseSquareFamily(scale=model.body.get("scale", 1.0))
    except OutOfRange as exc:
        bad = "exponent" if fam == "critical-power" else "scale"
        raise _semantic(model.node, f"{model.path}: {exc}", bad) from None


_VALIDATORS = {
    "sft": _check_sft,
    "potential": _check_potential,
    "markov-chain": _check_markov_chain,
    "markov-map": _check_markov_map,
    "hofbauer-family": _check_hofbauer,
}
