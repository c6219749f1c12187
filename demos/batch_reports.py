#!/usr/bin/env python3
"""Driving the batch front-end from Python.

Model files are small YAML documents with a version, a kind, and the data
for that kind; the command line front-end parses them, computes, and emits
a JSON report whose payload is deterministic and digest-stamped.  This
script runs a few commands in-process and also shows the three-layer input
validation (syntax, schema, semantics) with line/column diagnostics.
"""

import json
import tempfile
from pathlib import Path

from thermoshift import modelio
from thermoshift.cli import main
from thermoshift.errors import ModelSchemaError, ModelSemanticError

MODELS = Path(__file__).parent / "models"

# a model file is hashed as raw bytes; reports embed the digest
model = modelio.parse(MODELS / "golden-mean.yaml")
print(f"parsed {model.path}: kind={model.kind}, sha256={model.digest[:16]}...")

print("\nrunning: entropy golden-mean.yaml --check")
code = main(["entropy", str(MODELS / "golden-mean.yaml"), "--check"])
print(f"(exit code {code}; the JSON report above is the whole interface)")

print("\nrunning: hofbauer-scan cubic-family.yaml --betas 0.8,1.0,1.2")
code = main(["hofbauer-scan", str(MODELS / "cubic-family.yaml"),
             "--betas", "0.8,1.0,1.2"])
print(f"(exit code {code})")

# -- validation layers ------------------------------------------------------------

print("\nvalidation is layered; each layer has its own exit code:")

with tempfile.TemporaryDirectory() as tmp:
    bad = Path(tmp) / "future.yaml"
    bad.write_text("version: v2\nkind: sft\nlabels: ['0']\ntransition: [[1]]\n")
    try:
        modelio.parse(bad)
    except ModelSchemaError as exc:
        print(f"  schema   (exit 4): {exc} [field: {exc.field}]")

    lopsided = Path(tmp) / "lopsided.yaml"
    lopsided.write_text(
        "version: v1\n"
        "kind: markov-chain\n"
        "labels: ['a', 'b']\n"
        "transition:\n"
        "  - [0.5, 0.5]\n"
        "  - [0.3, 0.6]\n")
    try:
        modelio.parse(lopsided)
    except ModelSemanticError as exc:
        print(f"  semantic (exit 5): {exc}")
        print("  (rows must sum to 1 within 1e-9; renormalization is refused)")

# the payload digest makes reports comparable across runs
print("\ndeterminism: the same invocation always digests identically;")
print("wall time lives outside the digest, in meta.")
import io
import contextlib

digests = set()
for _ in range(3):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["periodic", str(MODELS / "golden-mean.yaml"), "--n", "8"])
    digests.add(json.loads(buf.getvalue())["digest"])
print(f"three runs, {len(digests)} distinct digest: {digests.pop()}")
