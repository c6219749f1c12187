"""Seeded model files and the fixed invocation list of each workload.

The seed varies labels, tables and weights; the sizes below and the spectral
gaps are constants, so a run costs the same on every seed.  Every generated
input comes with reference values computed here by an independent route
(dense numpy eigensolvers, exact vector iteration, bisection), never by the
program under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# -- sizes and gaps (constants of the benchmark) --------------------------------

GAP = 1e-3                         # 1 - lambda_2 / lambda_1 of the gap potential
RING_N = 12                        # lattice ring size on the gap potential
REPELLER = (20, 5)                 # (intervals, holes) of the generated map
ALPHABETS = (100, 160)             # symbols of the large subshifts
DENSITY = 0.25                     # share of allowed transitions
WORD_DEPTH = 12                    # default --depth of `entropy --check`
SAMPLE_STEPS = 100_000             # `sample --depth` on the large chain
DYADIC_UNITS = 1024                # chain rows are multiples of 1/1024

# one character per symbol: potential word keys concatenate labels
_LABEL_POOL = [chr(c) for c in range(0x100, 0x250)]

MODELS = "demos/models"
CLOSED_RTOL = 1e-9                 # closed forms: log phi, log 2cosh(beta), ...


@dataclass
class Call:
    """One CLI invocation and what its report must contain.

    ``expect`` maps a result name (or ``cert:<name>`` for certificate values)
    to a reference value, computed independently or in closed form, checked
    within ``rtol``.  ``defect`` names a known-defect ledger entry the call
    is expected to hit (it still counts as failed).
    """

    id: str
    argv: list
    expect: dict = field(default_factory=dict)
    rtol: float = 1e-7
    defect: str | None = None
    csv: str | None = None


# -- YAML writers ------------------------------------------------------------------


def _num(x):
    """Shortest round-trip text of a float that YAML 1.1 also reads as a float.

    PyYAML takes ``3e-06`` for a string; it needs a dot before the exponent.
    """
    text = repr(float(x))
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def _row(values):
    return "  - [" + ", ".join(values) + "]\n"


def _write_sft(path, labels, M):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version: v1\nkind: sft\n")
        fh.write("labels: " + json.dumps(labels, ensure_ascii=False) + "\n")
        fh.write("transition:\n")
        for row in M:
            fh.write(_row(str(int(x)) for x in row))


def _write_potential(path, labels, phi, M):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version: v1\nkind: potential\nrange: 2\nvalues:\n")
        for a, b in zip(*np.nonzero(M)):
            key = json.dumps(labels[a] + labels[b], ensure_ascii=False)
            fh.write(f"  {key}: {_num(phi[a, b])}\n")


def _write_chain(path, labels, P):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version: v1\nkind: markov-chain\n")
        fh.write("labels: " + json.dumps(labels, ensure_ascii=False) + "\n")
        fh.write("transition:\n")
        for row in P:
            fh.write(_row("0" if x == 0 else _num(x) for x in row))


def _write_map(path, n, branches):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version: v1\nkind: markov-map\n")
        fh.write("breakpoints: " + json.dumps([f"{i}/{n}" for i in range(n + 1)])
                 + "\nbranches:\n")
        for br in branches:
            if br is None:
                fh.write("  - null\n")
            else:
                fh.write(f"  - {{slope: {br}, image: {list(range(br))}}}\n")


# -- generators --------------------------------------------------------------------


def _labels(rng, m):
    return [str(x) for x in rng.permutation(np.array(_LABEL_POOL))[:m]]


def _subshift(rng, m):
    """Primitive 0/1 matrix with exactly round(DENSITY m^2) ones.

    A Hamiltonian cycle plus one loop makes it primitive on every seed; the
    remaining ones are placed at random.
    """
    M = np.zeros((m, m), dtype=np.int8)
    M[np.arange(m), (np.arange(m) + 1) % m] = 1
    M[0, 0] = 1
    free = np.flatnonzero(M.ravel() == 0)
    extra = round(DENSITY * m * m) - int(M.sum())
    M.ravel()[rng.choice(free, size=extra, replace=False)] = 1
    return M


def _dyadic_chain(rng, support):
    """Row-stochastic matrix on ``support`` with entries k/1024.

    Every partial row sum is a multiple of 1/1024, so rows sum to 1 exactly.
    """
    P = np.zeros(support.shape)
    for a in range(len(support)):
        cols = np.flatnonzero(support[a])
        cuts = np.sort(rng.choice(np.arange(1, DYADIC_UNITS), size=len(cols) - 1,
                                  replace=False))
        units = np.diff(np.concatenate(([0], cuts, [DYADIC_UNITS])))
        P[a, cols] = units / DYADIC_UNITS
    return P


def _gap_potential(rng, gap):
    """Range-2 weights on the full 2-shift with lambda_2 / lambda_1 = 1 - gap.

    A = c D ((1 - gap) I + gap 1 pi^T) D^-1 has eigenvalues c and c (1 - gap)
    for any positive pi, D and c, which the seed draws.
    """
    p0 = rng.uniform(0.2, 0.8)
    pi = np.array([p0, 1.0 - p0])
    d = np.exp(rng.uniform(-1.0, 1.0, size=2))
    c = math.exp(rng.uniform(-0.5, 0.5))
    A = (1.0 - gap) * np.eye(2) + gap * np.outer(np.ones(2), pi)
    A = c * (d[:, None] * A / d[None, :])
    return np.log(A)


def _repeller(rng, n, holes):
    """n equal intervals, ``holes`` of them holes; branch i maps onto [0, k_i).

    Interval 0 is always a full branch, so the coding is primitive; the
    multiset of slopes k_i is fixed and the seed only permutes it.
    """
    slots = 1 + rng.permutation(n - 1)
    branches = [None] * n
    branches[0] = n
    for k, i in zip(range(2, n + 1), slots[holes:]):
        branches[int(i)] = k
    return branches


# -- independent references -------------------------------------------------------


def _perron(A):
    """Leading eigenvalue with right and left eigenvectors, via dense eig."""
    w, V = np.linalg.eig(A)
    k = int(np.argmax(w.real))
    wl, U = np.linalg.eig(A.T)
    kl = int(np.argmax(wl.real))
    v = np.abs(V[:, k].real)
    u = np.abs(U[:, kl].real)
    return float(w[k].real), v / v.sum(), u / float(u @ (v / v.sum()))


def _stationary(P):
    w, U = np.linalg.eig(P.T)
    pi = np.abs(U[:, int(np.argmin(np.abs(w - 1.0)))].real)
    return pi / pi.sum()


def _entropy_rate(pi, P):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0, P * np.log(P), 0.0)
    return float(-(pi @ terms.sum(axis=1)))


def _gibbs_ref(M, phi):
    """Pressure, entropy and mean potential of the Gibbs state of phi on M."""
    A = np.where(M > 0, np.exp(np.where(M > 0, phi, 0.0)), 0.0)
    lam, v, u = _perron(A)
    P = A * v[None, :] / (lam * v[:, None])
    pi = u * v / float(u @ v)
    mean = float(pi @ np.where(M > 0, P * phi, 0.0).sum(axis=1))
    return {"pressure": math.log(lam), "entropy": _entropy_rate(pi, P),
            "potential_mean": mean}


def _word_count(M, n):
    """Exact number of admissible n-words, by integer vector iteration."""
    B = M.astype(object)
    vec = np.ones(len(M), dtype=object)
    for _ in range(n - 1):
        vec = vec @ B
    return int(sum(vec))


def _dimension(branches):
    """Root of s -> log rho(diag(k^-s) M) by bisection, to 1e-15."""
    ids = [i for i, k in enumerate(branches) if k is not None]
    M = np.array([[1.0 if j < branches[i] else 0.0 for j in ids] for i in ids])
    k = np.array([float(branches[i]) for i in ids])

    def p(s):
        return math.log(max(abs(np.linalg.eigvals(M * (k ** -s)[:, None]))))

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if p(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


# -- workloads ----------------------------------------------------------------------


def _m(name):
    return f"{MODELS}/{name}.yaml"


def demo_suite(rng, tmp):
    """Every subcommand once on the shipped models, with the README's flags."""
    golden, weights = _m("golden-mean"), _m("run-weights")
    phi = (1 + math.sqrt(5)) / 2
    return [
        Call("entropy", ["entropy", golden, "--check"],
             rtol=CLOSED_RTOL, expect={"topological_entropy": math.log(phi)}),
        Call("pressure", ["pressure", golden, weights, "--beta", "1.5"]),
        Call("gibbs", ["gibbs", golden, weights, "--out", f"{tmp}/gibbs.csv"],
             csv=f"{tmp}/gibbs.csv"),
        Call("bounds", ["bounds", golden, weights]),
        Call("relent", ["relent", _m("full-shift"), _m("site-energy"),
                        _m("lazy-coin"), "--check"]),
        Call("sample", ["sample", _m("lazy-coin"), "--seed", "7", "--depth",
                        "10000", "--out", f"{tmp}/path.csv"],
             csv=f"{tmp}/path.csv"),
        Call("aep", ["aep", _m("lazy-coin"), "--depth", "12", "--alpha", "0.1"]),
        Call("periodic", ["periodic", golden, "--n", "12", "--check"]),
        Call("production", ["production", _m("three-cycle"), "--check"]),
        Call("lattice", ["lattice", _m("full-shift"), _m("site-energy"), "--n",
                         "16", "--check"]),
        Call("ising", ["ising", "--beta", "0.8", "--n", "16", "--target", "0.5"],
             rtol=CLOSED_RTOL,
             expect={"pressure": math.log(2 * math.cosh(0.8)),
                     "correlation": math.tanh(0.8),
                     "matched_beta": math.atanh(0.5)}),
        Call("hofbauer-scan", ["hofbauer-scan", _m("cubic-family"), "--check"]),
        Call("dimension-cantor", ["dimension", _m("cantor-thirds"), "--check"],
             rtol=CLOSED_RTOL,
             expect={"dimension": math.log(2) / math.log(3),
                     "dimension_of_square": math.log(2) / math.log(3)}),
        Call("dimension-uneven", ["dimension", _m("uneven-repeller"), "--check"],
             rtol=CLOSED_RTOL, expect={"dimension": math.log2(phi)}),
        Call("acim", ["acim", _m("golden-interval"), "--check", "--out",
                      f"{tmp}/density.csv"], csv=f"{tmp}/density.csv"),
        Call("pn-scan", ["pn-scan", golden, weights, "--n-max", "12", "--out",
                         f"{tmp}/curve.csv"], csv=f"{tmp}/curve.csv"),
    ]


def deep_cylinders(rng, tmp):
    """The shipped models at raised cylinder depths."""
    golden, weights = _m("golden-mean"), _m("run-weights")
    full, site = _m("full-shift"), _m("site-energy")
    calls = [
        Call("pressure-21", ["pressure", golden, weights, "--check", "--depth", "21"]),
        Call("bounds-21", ["bounds", golden, weights, "--depth", "21"]),
        Call("pn-scan-19", ["pn-scan", golden, weights, "--n-max", "19"]),
        Call("relent-14", ["relent", full, site, _m("lazy-coin"), "--check",
                           "--depth", "14"]),
        Call("lattice-15", ["lattice", full, site, "--n", "15", "--check"]),
        Call("lattice-13-out", ["lattice", full, site, "--n", "13", "--out",
                                f"{tmp}/lattice.csv"], csv=f"{tmp}/lattice.csv"),
    ]
    return _segment("deep-cylinders", calls)


def iterative_solvers(rng, tmp):
    """A small spectral gap, a many-branch repeller, a renewal scan."""
    shift, pot = f"{tmp}/full2.yaml", f"{tmp}/gap.yaml"
    M = np.ones((2, 2), dtype=np.int8)
    phi = _gap_potential(rng, GAP)
    _write_sft(shift, ["0", "1"], M)
    _write_potential(pot, ["0", "1"], phi, M)
    ref = _gibbs_ref(M, phi)
    ring = math.log(np.trace(np.linalg.matrix_power(np.exp(phi), RING_N))) / RING_N
    n, holes = REPELLER
    branches = _repeller(rng, n, holes)
    repeller = f"{tmp}/repeller-{n}.yaml"
    _write_map(repeller, n, branches)
    dim = _dimension(branches)
    calls = [
        Call("pressure-gap", ["pressure", shift, pot],
             expect={"pressure": ref["pressure"]}),
        Call("gibbs-gap", ["gibbs", shift, pot],
             expect={**ref, "equilibrium_residual": 0.0}),
        Call("lattice-gap", ["lattice", shift, pot, "--n", str(RING_N), "--check"],
             expect={f"ring_pressure(n={RING_N})": ring,
                     f"ring_pressure_trace(n={RING_N})": ring}),
        Call(f"dimension-{n}", ["dimension", repeller, "--check"],
             expect={"dimension": dim, "dimension_of_square": dim,
                     "pressure_residual": 0.0}),
        Call("hofbauer-cubic", ["hofbauer-scan", _m("cubic-family"), "--check",
                                "--betas", "0.8,0.9,1.0,1.1,1.2"]),
    ]
    return _segment("iterative-solvers", calls)


def large_alphabet(rng, tmp):
    """Big generated subshifts: model I/O and exact integer counting."""
    small, big = ALPHABETS
    labels_big, M_big = _labels(rng, big), _subshift(rng, big)
    sft_big = f"{tmp}/sft-{big}.yaml"
    _write_sft(sft_big, labels_big, M_big)
    rho = float(max(abs(np.linalg.eigvals(M_big.astype(float)))))
    count = _word_count(M_big, WORD_DEPTH)

    labels, M = _labels(rng, small), _subshift(rng, small)
    phi = np.round(rng.normal(0.0, 0.5, size=M.shape), 6) * M
    P = _dyadic_chain(rng, M)
    sft, pot, chain = (f"{tmp}/{kind}-{small}.yaml" for kind in ("sft", "pot", "chain"))
    _write_sft(sft, labels, M)
    _write_potential(pot, labels, phi, M)
    _write_chain(chain, labels, P)
    pi = _stationary(P)
    h = _entropy_rate(pi, P)
    relent = _gibbs_ref(M, phi)["pressure"] - float(pi @ (P * phi).sum(axis=1)) - h
    calls = [
        Call(f"entropy-{big}", ["entropy", sft_big, "--check"],
             expect={"topological_entropy": math.log(rho),
                     f"log_word_count_over_n(n={WORD_DEPTH})":
                         math.log(count) / WORD_DEPTH},
             rtol=1e-9,
             defect="entropy-log-bigint" if count >= 2 ** 63 else None),
        Call(f"relent-{small}", ["relent", sft, pot, chain],
             expect={"relative_entropy": relent}),
        Call(f"sample-{small}-out", ["sample", chain, "--seed", "11", "--depth",
                                     str(SAMPLE_STEPS), "--out", f"{tmp}/path.csv"],
             expect={"entropy_rate": h}, csv=f"{tmp}/path.csv"),
    ]
    return _segment("large-alphabet", calls)


def _segment(name, calls):
    for call in calls:
        call.id = f"{name}/{call.id}"
    return calls


def engines(rng, tmp):
    """Three segments, each dominated by one engine of the program."""
    return (deep_cylinders(rng, tmp) + iterative_solvers(rng, tmp)
            + large_alphabet(rng, tmp))


WORKLOADS = {
    "demo-suite": demo_suite,
    "engines": engines,
}


def segment(workload, call):
    """The segment a call belongs to: its id prefix, else the workload."""
    return call.id.split("/")[0] if "/" in call.id else workload


def build(workload, seed, tmp):
    """Write the workload's generated inputs under ``tmp`` and return its calls."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[workload](rng, Path(tmp))
