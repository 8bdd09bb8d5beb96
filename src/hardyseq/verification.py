"""Seeded verification sweeps: property suites with machine-readable reports.

Each suite draws random instances from a seeded generator and runs its check
on them.  A check takes a batch of instances and returns one ``(observed,
passed)`` per instance, in order.  For five suites the batch is a list of
dicts of inputs (windows and scalars).  The three oracle suites draw an
ensemble first and check it in one call, which hands the whole list to the
oracle's list entry points, so that same-shaped problems are searched as one
stack: ``linft`` and ``chain-equivalence`` their whole ensemble,
``equivalence-ratio`` one (p, q, form) cell at a time.  ``bridge`` and
``partition`` check each instance as it is drawn, their per-instance check
mapped over a list of one.  ``chain`` and ``doubling`` draw their probes
straight into rows, with the Generator calls that :func:`rand_window` makes
for a window, and check them in bounded chunks through the row kernels
(``hardyops._chain_rows``, ``blocks._doubling_rows``), of which their public
checks are one-row calls; they build a window only to replay a probe.  A
failing instance is recorded as its suite name, its inputs in the wire
format (windows as ``{"start", "values"}``, scalars as numbers or strings)
and the observed numbers.  :func:`replay_instance` decodes such a record
and runs the same check on a list of one or a batch of one row, so a replay
reproduces the sweep's ``observed`` and verdict bit for bit (every list
entry point and row kernel gives each item the bits it has alone).  A spec's
replay entries are decoded and checked against what their suites' checks
accept before any suite runs.  All randomness flows from the sweep seed;
reports are deterministic.

Observed values per suite: ``chain`` the triple ``[sup, sum, powered sum]``;
``bridge`` ``{"gop": ..., "antigop": ...}``, the two bridge results;
``partition`` the invariant report plus the ``partition`` itself; ``linft``
``{"exact", "brute"}``, the closed form and the oracle's constant (its spike
maximum, since the suite's inputs lie in the spike range);
``equivalence-ratio`` ``{"F", "B", "ratio"}``; ``chain-equivalence`` the
chain report; ``doubling`` both sides of the sum and the sup pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import blocks, bridge, charformulas, hardyops, oracle
from .hardyops import ANTIGOP_SUP, RatioProblem
from .oracle import FAST_CONFIG
from .seqcore import Window, _in_groups, _wire_float, _wire_int, _wire_list, common_window, ext_pow

__all__ = ["SweepSpec", "run_verification", "replay_instance", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

ALL_SUITES = (
    "chain",
    "bridge",
    "partition",
    "linft",
    "equivalence-ratio",
    "chain-equivalence",
    "doubling",
)

DEFAULT_REGIMES = ((2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.25))


#: How :meth:`SweepSpec.from_json` reads each field it is given.
_SPEC_FIELDS: dict[str, Callable[[Any], Any]] = {
    "seed": lambda x: _wire_int(x, "seed"),
    "suites": lambda x: tuple(_wire_list(x, "suites")),
    "regimes": lambda x: tuple(
        (_wire_float(p, "regime p"), _wire_float(q, "regime q"))
        for p, q in (_wire_list(pq, "regime") for pq in _wire_list(x, "regimes"))
    ),
    "window_sizes": lambda x: tuple(
        _wire_int(n, "window size") for n in _wire_list(x, "window_sizes")
    ),
    "ensemble": lambda x: _wire_int(x, "ensemble"),
    "weight_exponent": lambda x: _wire_float(x, "weight_exponent"),
    "out": lambda x: None if x is None else str(x),
    "replay": lambda x: tuple(_wire_list(x, "replay")),
}


@dataclass(frozen=True)
class SweepSpec:
    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES
    regimes: tuple[tuple[float, float], ...] = DEFAULT_REGIMES
    window_sizes: tuple[int, ...] = (3, 5, 8)
    ensemble: int = 40
    weight_exponent: float = 3.0
    out: str | None = None
    replay: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if not self.suites:
            raise ValueError("suite list must not be empty")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ValueError(f"unknown suite {s!r}; known: {ALL_SUITES}")
        if not self.regimes:
            raise ValueError("regime list must not be empty")
        for pq in self.regimes:
            if len(pq) != 2 or not (0 < pq[0] < math.inf and pq[1] > 0):
                raise ValueError(f"regimes must be positive (p, q) pairs with p finite, got {pq}")
        if not 0 <= self.weight_exponent < 1024:  # weights 2**U(-e, e) stay finite
            raise ValueError(f"weight_exponent must be in [0, 1024), got {self.weight_exponent}")
        if self.ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        if not self.window_sizes or not all(n >= 1 for n in self.window_sizes):
            raise ValueError("window sizes must be a non-empty list of values >= 1")
        for entry in self.replay:  # a bad entry fails before any suite runs
            _decode(entry)

    @classmethod
    def from_json(cls, obj: dict) -> "SweepSpec":
        if not isinstance(obj, dict):
            raise ValueError("sweep spec must be a JSON object")
        unknown = sorted(set(obj) - set(_SPEC_FIELDS))
        if unknown:
            raise ValueError(f"unknown sweep spec fields {unknown}; known: {list(_SPEC_FIELDS)}")
        return cls(**{k: read(obj[k]) for k, read in _SPEC_FIELDS.items() if k in obj})

    def to_json(self) -> dict:
        obj = {
            "seed": self.seed,
            "suites": list(self.suites),
            "regimes": [list(pq) for pq in self.regimes],
            "window_sizes": list(self.window_sizes),
            "ensemble": self.ensemble,
            "weight_exponent": self.weight_exponent,
            "out": self.out,
        }
        if self.replay:  # omitted when empty, so default reports keep their bytes
            obj["replay"] = list(self.replay)
        return obj


# ---------------------------------------------------------------------------
# Random instance generators (shared with the test suite)
# ---------------------------------------------------------------------------

def rand_window(
    rng: np.random.Generator,
    n: int,
    start: int = 0,
    exponent: float = 3.0,
    zero_prob: float = 0.0,
) -> Window:
    """Log-uniform positive entries ``2**U(-e, e)``, optionally zeroed."""
    vals = 2.0 ** rng.uniform(-exponent, exponent, size=n)
    if zero_prob > 0:
        mask = rng.random(n) < zero_prob
        if mask.all():
            mask[rng.integers(0, n)] = False
        vals = np.where(mask, 0.0, vals)
    return Window(start, vals)


def rand_dyadic_window(
    rng: np.random.Generator, n: int, start: int = 0, allow_zero: bool = False
) -> Window:
    """Random dyadic rationals k / 2**j, exactly representable as floats."""
    num = rng.integers(0 if allow_zero else 1, 17, size=n)
    den = 2.0 ** rng.integers(0, 4, size=n)
    return Window(start, num / den)


def _rand_row(
    rng: np.random.Generator, values: np.ndarray, draws: np.ndarray, exponent: float,
    zero_prob: float,
) -> None:
    """The Generator calls of ``rand_window(rng, len(values), start,
    exponent, zero_prob)`` for ``zero_prob > 0``, into a row: its entries
    into ``values``, and its draws below ``zero_prob`` into ``draws``, where
    they mark the entries that the caller sets to zero (one entry is raised
    to 1 when every draw is below, as ``rand_window`` keeps it)."""
    n = len(values)
    values[:] = 2.0 ** rng.uniform(-exponent, exponent, size=n)
    draws[:] = below = rng.random(n)
    if max(below.tolist()) < zero_prob:
        draws[int(rng.integers(0, n))] = 1.0


def _pick(rng: np.random.Generator, seq: Sequence) -> Any:
    """An entry of ``seq`` drawn as ``Generator.choice(seq)`` draws it (one
    bounded integer from the same stream), without the argument handling
    that costs three to four times the draw on a short list."""
    return seq[int(rng.integers(0, len(seq)))]


def _weight_triple(rng: np.random.Generator, n: int, exponent: float) -> tuple[Window, Window, Window]:
    """Three ``rand_window`` draws as one (3, n) block: the same values and
    the same generator state after it."""
    start = int(rng.integers(-4, 5))
    u, v, w = 2.0 ** rng.uniform(-exponent, exponent, size=(3, n))
    return Window(start, u), Window(start, v), Window(start, w)


@dataclass(frozen=True)
class _ChainRows:
    """Chain probes as rows.  Probe i's window ``a`` starts at ``starts[i]``
    and holds the last ``lengths[i]`` entries of row i of ``values`` (B, W),
    zeros to their left; so its tail from the index ``n[i]`` on, of length
    ``m = starts[i] + lengths[i] - n[i]``, is the row's last m entries.
    ``p[i]`` is its exponent."""

    starts: list[int]
    lengths: list[int]
    values: np.ndarray
    p: list[float]
    n: list[int]

    @classmethod
    def one(cls, x: dict) -> "_ChainRows":
        """The one row of a decoded ``{"a", "p", "n"}`` probe, checked as
        ``elementary_chain_check`` checks it."""
        a = x["a"]
        hardyops._chain_tail(a, x["p"], x["n"])
        return cls([a.start], [len(a)], a.values[None], [x["p"]], [x["n"]])

    def record(self, i: int) -> dict:
        """Probe i's inputs in the wire format."""
        a = {"start": self.starts[i], "values": self.values[i, -self.lengths[i]:].tolist()}
        return {"a": a, "p": self.p[i], "n": self.n[i]}


@dataclass(frozen=True)
class _DoublingRows:
    """Doubling probes as rows.  Probe i's windows ``b`` and ``c`` start at
    ``starts[i]`` and hold the first ``lengths[i]`` entries of row i of
    ``b`` and ``c`` (B, W), the lemma taken over the whole window;
    ``alpha[i]`` is its exponent."""

    starts: list[int]
    lengths: list[int]
    b: np.ndarray
    c: np.ndarray
    alpha: list[float]

    @classmethod
    def one(cls, x: dict) -> "_DoublingRows":
        """The one row of a decoded ``{"b", "c", "alpha"}`` probe, checked
        as ``doubling_lemma_check`` checks it over the whole window."""
        b = x["b"]
        bb, cc, alpha = blocks._doubling_sides(b, x["c"], x["alpha"], b.start, b.last)
        return cls([b.start], [len(b)], bb[None], cc[None], [alpha])

    def record(self, i: int) -> dict:
        """Probe i's inputs in the wire format."""
        start, length = self.starts[i], self.lengths[i]
        b = {"start": start, "values": self.b[i, :length].tolist()}
        c = {"start": start, "values": self.c[i, :length].tolist()}
        return {"b": b, "c": c, "alpha": self.alpha[i]}


# ---------------------------------------------------------------------------
# Checks: one per suite, shared by the sweep and by replay
# ---------------------------------------------------------------------------

def _fsum(x: list[float]) -> float:
    """``math.fsum`` of nonnegative terms; inf past the float range."""
    try:
        return math.fsum(x)
    except OverflowError:
        return math.inf


def _check_chain(rows: _ChainRows) -> list[tuple[Any, bool]]:
    """``s1 <= s2 <= s3``, with s1 the tail's maximum, s2 within
    ``gamma_(m+2)`` of ``fsum(tail)`` and s3 within ``1.01 L`` of ``G =
    fsum(tail**p) ** (1/p)`` (relative; ``m`` terms, ``gamma_k = k eps /
    (1 - k eps)``).

    ``hardyops._chain_rows`` divides the tail by s1, sums (``gamma_(m-1)``
    for nonnegative terms) and multiplies by s1: ``gamma_(m+1)`` from the
    exact sum, which fsum rounds once.  L bounds ``|ln(s3/G)|`` with every
    ``pow`` within 2^-48 and rounding its exponent ``1/p`` adding ``|ln
    result| eps``, as :func:`oracle._block_caps` takes them: s3's terms
    ``(tail/s1)^p`` err by ``p eps + 2^-48``, their sum (1 to ``m``) by
    ``gamma_(m-1)`` more, the root multiplies that by ``1/p`` and adds
    ``2^-48 + eps ln(m)/p``, the product with s1 ``eps``, and ``max(t3,
    t1)`` taking ``t1`` at most ``gamma_(m+1)``, since the sum is at most
    ``T = (sum tail^p)^(1/p)``; a quotient below 2^-1022, and its power,
    err by less than ``2^(-1022 p)`` against a sum of at least 1.  G errs by
    ``2^-48 + (2^-48 + eps)/p + eps |ln G|``.  The 1% covers ``e^L - 1 - L``
    and the bound's own rounding.  The count takes every value to be a
    normal float, as weights within 2^(+-1000) keep them.
    """
    width = rows.values.shape[1]
    p = np.array(rows.p, dtype=float)
    m = [start + length - n for start, length, n in zip(rows.starts, rows.lengths, rows.n)]
    return _in_groups(range(len(m)), m.__getitem__, lambda idx: _chain_verdicts(
        rows.values[idx, width - m[idx[0]]:], p[idx]
    ))


def _chain_verdicts(tails: np.ndarray, p: np.ndarray) -> list[tuple[Any, bool]]:
    """:func:`_check_chain` on the C-contiguous tails (B, m) of one length
    m, the bounds read from the rows the chains are evaluated on."""
    triples = hardyops._chain_rows(tails, p)
    powered = hardyops._row_powers(tails, p)
    tops = np.maximum.reduce(tails, axis=-1)
    lows = np.where(tails > 0, tails, math.inf).min(axis=-1)
    m, eps, pw = tails.shape[1], oracle._EPS, oracle._POW_ERR
    gamma = lambda k: k * eps / (1.0 - k * eps)
    near = lambda x, y, bound: x == y or abs(x - y) <= 1.01 * bound * max(x, y) < math.inf
    out = []
    for (s1, s2, s3), e, vals, terms, top, low in zip(
        triples, p.tolist(), tails.tolist(), powered.tolist(), tops.tolist(), lows.tolist()
    ):
        # tail**1 is the tail itself, which the row's power need not return
        g = ext_pow(_fsum(vals if e == 1.0 else terms), 1.0 / e)
        under = m * 2.0 ** (-1022.0 * e) if low < s1 * 2.0**-1022 else 0.0
        lam = (max(gamma(m + 1), 2 * eps + pw + (pw + gamma(m - 1) + under + eps * math.log(m)) / e)
               + pw + (pw + eps) / e + (eps * abs(math.log(g)) if 0 < g < math.inf else 0.0))
        ok = s1 <= s2 <= s3 and s1 == top and near(s2, _fsum(vals), gamma(m + 2))
        out.append(([s1, s2, s3], ok and near(s3, g, lam)))
    return out


def _check_bridge(
    u: Window, v: Window, w: Window, a: Window, q: float
) -> tuple[Any, bool]:
    res = bridge.bridge_check(u, v, w, a, 1.0, q, form="gop")
    anti = bridge.bridge_check(u, v, w, a, 1.0, q, form="antigop")
    ok = res.lhs_equal and res.rhs_equal and res.exact_lhs and res.exact_rhs
    ok = ok and anti.continuous_lhs_pow <= anti.discrete_lhs_pow and anti.rhs_equal
    return {"gop": res.to_json(), "antigop": anti.to_json()}, ok


def _check_partition(w: Window, n0: int) -> tuple[Any, bool]:
    bp = blocks.block_partition(w, n0)
    report = blocks.verify_partition_invariants(w, bp)
    return {**report.to_json(), "partition": bp.to_json()}, report.all_pass


def _check_linft(instances: list[dict]) -> list[tuple[Any, bool]]:
    problems = [
        RatioProblem(x["u"], x["v"], x["u"].with_values([1.0] * len(x["u"])),
                     x["p"], math.inf, ANTIGOP_SUP)
        for x in instances
    ]
    out = []
    for prob, brute in zip(problems, oracle.brute_force_constants(problems, FAST_CONFIG)):
        exact = charformulas.char_linft_exact(prob.u, prob.v, prob.p)
        ok = math.isclose(brute.constant, exact, rel_tol=1e-9, abs_tol=0.0)
        out.append(({"exact": exact, "brute": brute.constant}, ok))
    return out


def _check_doubling(rows: _DoublingRows) -> list[tuple[Any, bool]]:
    """``lhs <= 2 rhs`` for the sum pair and the sup pair, each (length,
    ``alpha``) group of probes evaluated as one batch of rows."""
    keys = list(zip(rows.lengths, rows.alpha))

    def group(idx: list[int]) -> list[tuple[Any, bool]]:
        length, alpha = keys[idx[0]]
        sums = blocks._doubling_rows(rows.b[idx, :length], rows.c[idx, :length], alpha)
        return [
            (blocks.DoublingQuantities(*q).to_json(), q[0] <= 2.0 * q[2] and q[1] <= 2.0 * q[3])
            for q in zip(*sums)
        ]

    return _in_groups(range(len(keys)), keys.__getitem__, group)


def _check_equivalence(instances: list[dict]) -> list[tuple[Any, bool]]:
    """F/B passes as a sentinel or finite and positive.  For gop where B
    is the spike maximum C (certificate ``exact-spike``: p <= 1, p <= q)
    and F and B are finite and positive, it must also lie in ``[1 - 1e-12,
    2^(1/q) (1 + 1e-12)]``, the slack covering the roundings of F and B.

    Proof of ``C <= F <= 2^(1/q) C``: with ``U_m = sup_{i >= m} u_i``, the
    spike at m has ratio ``b(m)^(1/q) v_m^(-1/p)``, ``b(m) = sum_n w_n
    U_max(n,m)^q`` nonincreasing in m, and C is the largest.  ``char_gop``'s
    term at m is ``(b(m) + w_m U_m^q)^(1/q) max_{k <= m} v_k^(-1/p)``, and
    ``w_m U_m^q`` is a term of ``b(m)``: so F >= C, and with k <= m the
    argmax of the v-factor the term is at most ``(2 b(k))^(1/q) v_k^(-1/p)
    <= 2^(1/q) C``."""
    problems = [
        RatioProblem(
            x["u"], x["v"], x["w"], x["p"], x["q"], hardyops.form_by_name(x["form"])
        )
        for x in instances
    ]
    out = []
    for x, eq in zip(instances, oracle.equivalence_ratios(problems, FAST_CONFIG)):
        ok = eq.sentinel or 0 < eq.ratio < math.inf
        if (ok and x["form"] == "gop" and eq.oracle.certificate == "exact-spike"
                and 0 < eq.formula < math.inf and 0 < eq.brute < math.inf):
            ok = 1 - 1e-12 <= eq.ratio <= 2.0 ** (1.0 / x["q"]) * (1 + 1e-12)
        out.append(({"F": eq.formula, "B": eq.brute, "ratio": eq.ratio}, ok))
    return out


def _check_chain_equivalence(instances: list[dict]) -> list[tuple[Any, bool]]:
    reps = oracle.chain_equivalence_sweeps(
        [(x["u"], x["v"], x["w"], x["p"], x["q"], x["family"]) for x in instances],
        FAST_CONFIG,
    )
    return [
        (rep.to_json(), not rep.violations and (rep.sentinel or rep.ratio31 < math.inf))
        for rep in reps
    ]


def _each(check: Callable[..., tuple[Any, bool]]) -> Callable[[list[dict]], list]:
    """The list form of a check that takes one instance's inputs."""
    return lambda instances: [check(**inputs) for inputs in instances]


def _one_of(known: tuple[str, ...], name: str) -> Callable[[Any], str]:
    """A reader of a field that must be one of the names ``known``."""
    def read(x: Any) -> str:
        if x not in known:
            raise ValueError(f"{name} must be one of {', '.join(known)}, got {x!r}")
        return x
    return read


#: The operator forms of the equivalence-ratio suite and the iterated
#: triples of the chain-equivalence suite.
_FORMS = ("gop", "antigop")
_FAMILIES = ("antigop", "gop", "simple")

#: How replay decodes each recorded input field.
_DECODE: dict[str, Callable[[Any], Any]] = {
    **dict.fromkeys("abcuvw", Window.from_json),
    "p": lambda x: _wire_float(x, "p"),
    "q": lambda x: _wire_float(x, "q"),
    "alpha": lambda x: _wire_float(x, "alpha"),
    "n": lambda x: _wire_int(x, "n"),
    "n0": lambda x: _wire_int(x, "n0"),
    "form": _one_of(_FORMS, "form"),
    "family": _one_of(_FAMILIES, "family"),
}


def _check(failures: list, suite: str, instances: Any) -> list:
    """Run the suite's check on every instance; record each failure, in
    instance order, as a replayable entry; return the observed values."""
    outcomes = _SUITES[suite][1](instances)
    rows = isinstance(instances, (_ChainRows, _DoublingRows))
    for i, (observed, passed) in enumerate(outcomes):
        if not passed:
            inputs = instances.record(i) if rows else {
                k: x.to_json() if isinstance(x, Window) else x for k, x in instances[i].items()
            }
            failures.append({"suite": suite, **inputs, "observed": observed})
    return [observed for observed, _ in outcomes]


def _listed(x: dict) -> list[dict]:
    """A decoded instance as a list of one."""
    return [x]


def _listed_after(check: Callable[[dict], Any]) -> Callable[[dict], list[dict]]:
    """A decoded instance as a list of one, after ``check`` (an argument
    check of the suite's entry point, which raises) has passed it."""
    def listed(x: dict) -> list[dict]:
        check(x)
        return [x]
    return listed


def _decode(entry: dict) -> tuple[str, Any]:
    """A recorded failure's suite and its inputs, decoded as its suite's
    check reads them (a list of one, or one row); ``ValueError`` or
    ``IndexError`` for an entry that is not an object, names no known suite,
    lacks one of that suite's fields or holds inputs that the check rejects
    (windows of different index ranges, an unknown form or family, and the
    argument checks of the chain, partition, doubling, bridge and linft
    entry points and of the chain equivalences' ``p``)."""
    if not isinstance(entry, dict):
        raise ValueError(f"a replay entry must be a JSON object, got {entry!r}")
    suite = entry.get("suite")
    if suite not in ALL_SUITES:
        raise ValueError(f"cannot replay suite {suite!r}")
    fields = _SUITES[suite][2]
    missing = [k for k in fields if k not in entry]
    if missing:
        raise ValueError(f"a {suite} replay entry needs the fields {', '.join(missing)}")
    inputs = {k: _DECODE[k](entry[k]) for k in fields}
    common_window(*(x for x in inputs.values() if isinstance(x, Window)))
    return suite, _SUITES[suite][3](inputs)


def replay_instance(entry: dict) -> dict:
    """Re-run one recorded failure through its suite's check, as a list of
    one or a batch of one row."""
    suite, instances = _decode(entry)
    [(observed, passed)] = _SUITES[suite][1](instances)
    return {"suite": suite, "observed": observed, "passed": passed}


# ---------------------------------------------------------------------------
# Suites.  A runner draws its instances, hands them to ``check`` (which
# records the failures and returns the observed values) and returns only its
# own report fields; :func:`run_verification` adds ``passed`` and
# ``failures``.  What one ``check`` call gets, suite by suite: linft and
# chain-equivalence their whole ensemble, same-shaped problems sharing one
# oracle stack; equivalence-ratio one (p, q, form) cell, since problems of
# different cells never share a stack and holding the whole ensemble with its
# results at once costs memory for nothing; chain and doubling one chunk of at
# most ``_CHUNK_PROBES`` probes as rows (``_ChainRows``, ``_DoublingRows``),
# so that memory stays bounded at any ensemble (the default spec's probes are
# one chunk per suite), which their checks split into (B, m) row batches by
# tail length (and ``alpha``); bridge and partition one instance, their checks
# having no batch form.
# ---------------------------------------------------------------------------

Check = Callable[[Any], list]

#: The most chain or doubling probes one ``check`` call gets.
_CHUNK_PROBES = 1024


def _in_chunks(check: Check, draw: Callable[[int], Any], count: int) -> None:
    """Draw ``count`` probes in order and hand them to ``check`` in chunks
    of at most :data:`_CHUNK_PROBES`, ``draw(k)`` drawing the next k."""
    for done in range(0, count, _CHUNK_PROBES):
        check(draw(min(_CHUNK_PROBES, count - done)))


def _suite_chain(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    sizes, e = spec.window_sizes, spec.weight_exponent
    integers, uniform, random = rng.integers, rng.uniform, rng.random

    def draw(count: int) -> _ChainRows:
        # each window right-aligned in its row, so that its tail ends the row
        width = int(max(sizes))
        values, draws = np.zeros((count, width)), np.ones((count, width))
        starts, lengths, ps, ns = [], [], [], []
        for i in range(count):
            size = int(_pick(rng, sizes))
            start = int(integers(-4, 5))
            _rand_row(rng, values[i, width - size:], draws[i, width - size:], e, 0.2)
            ps.append(float(uniform(0.05, 1.0)) if random() < 0.8 else 1.0)
            ns.append(int(integers(start, start + size)))
            starts.append(start)
            lengths.append(size)
        values[draws < 0.2] = 0.0
        return _ChainRows(starts, lengths, values, ps, ns)

    probes = max(spec.ensemble * 25, 100)
    _in_chunks(check, draw, probes)
    return {"probes": probes}


def _suite_bridge(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    for _ in range(spec.ensemble):
        n_len = int(min(max(spec.window_sizes), 12))
        n_len = int(rng.integers(1, n_len + 1))
        start = int(rng.integers(-4, 5))
        u = rand_dyadic_window(rng, n_len, start)
        v = rand_dyadic_window(rng, n_len, start)
        w = rand_dyadic_window(rng, n_len, start)
        a = rand_dyadic_window(rng, n_len, start, allow_zero=True)
        q = float(rng.integers(1, 4))
        check([{"u": u, "v": v, "w": w, "a": a, "q": q}])
    return {"checks": spec.ensemble}


def _suite_partition(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    for _ in range(spec.ensemble):
        n_len = int(_pick(rng, spec.window_sizes))
        w = rand_window(rng, n_len, int(rng.integers(-4, 5)), spec.weight_exponent, 0.25)
        n0 = int(rng.integers(w.start, w.stop))
        check([{"w": w, "n0": n0}])
    return {"checks": spec.ensemble}


def _suite_linft(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    instances = []
    for _ in range(spec.ensemble):
        n_len = int(_pick(rng, spec.window_sizes))
        start = int(rng.integers(-4, 5))
        u = rand_window(rng, n_len, start, spec.weight_exponent)
        v = rand_window(rng, n_len, start, spec.weight_exponent)
        p = _pick(rng, (0.25, 0.5, 1.0))
        instances.append({"u": u, "v": v, "p": p})
    check(instances)
    return {"checks": spec.ensemble}


def _suite_equivalence(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    stats: dict[str, dict] = {}
    for p, q in spec.regimes:
        for form in _FORMS:
            cell = []
            for _ in range(spec.ensemble):
                n_len = int(_pick(rng, [n for n in spec.window_sizes if n <= 8] or [5]))
                u, v, w = _weight_triple(rng, n_len, spec.weight_exponent)
                cell.append({"u": u, "v": v, "w": w, "p": p, "q": q, "form": form})
            arr = np.asarray([obs["ratio"] for obs in check(cell)])
            stats[f"{form}:p={p},q={q}"] = {
                "min": float(arr.min()),
                "median": float(np.median(arr)),
                "max": float(arr.max()),
            }
    return {"ratio_stats": stats}


def _suite_chain_equivalence(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    regimes = [(p, q) for p, q in spec.regimes if p <= 1] or [(1.0, 1.0)]
    instances = []
    for p, q in regimes:
        for family in _FAMILIES:
            for _ in range(max(spec.ensemble // 4, 1)):
                n_len = int(_pick(rng, [n for n in spec.window_sizes if n <= 8] or [5]))
                u, v, w = _weight_triple(rng, n_len, spec.weight_exponent)
                instances.append(
                    {"u": u, "v": v, "w": w, "p": p, "q": q, "family": family}
                )
    ratios = [obs["ratio_A3_A1"] for obs in check(instances)]
    return {"max_ratio_A3_A1": float(max(ratios)) if ratios else None}


def _suite_doubling(spec: SweepSpec, rng: np.random.Generator, check: Check) -> dict:
    e, integers, uniform = spec.weight_exponent, rng.integers, rng.uniform

    def draw(count: int) -> _DoublingRows:
        # b doubling by factors in [2, 4) from a first entry in [0.5, 2), the
        # factors drawn first; 9 entries at most
        b, c, draws = np.zeros((count, 9)), np.zeros((count, 9)), np.ones((count, 9))
        lengths, alphas = [], []
        for i in range(count):
            size = int(integers(3, 10))
            b[i, 1:size] = uniform(2.0, 4.0, size=size - 1)
            b[i, 0] = uniform(0.5, 2.0)
            _rand_row(rng, c[i, :size], draws[i, :size], e, 0.3)
            alphas.append(_pick(rng, (0.25, 0.5, 1.0)))
            lengths.append(size)
        c[draws < 0.3] = 0.0
        # each row's running product, as the cumprod of its window alone
        return _DoublingRows([0] * count, lengths, np.multiply.accumulate(b, axis=-1), c, alphas)

    probes = max(spec.ensemble * 10, 50)
    _in_chunks(check, draw, probes)
    return {"probes": probes}


#: Each suite's runner; its check, a list of instances (dicts of inputs), or
#: for chain and doubling their rows, in and one ``(observed, passed)`` per
#: instance out; its instances' fields; and how replay turns one decoded
#: instance into its check's input, rejecting what the check would.
_SUITES: dict[str, tuple[Callable[..., dict], Check, tuple[str, ...], Callable[[dict], Any]]] = {
    "chain": (_suite_chain, _check_chain, ("a", "p", "n"), _ChainRows.one),
    "bridge": (
        _suite_bridge, _each(_check_bridge), ("u", "v", "w", "a", "q"),
        _listed_after(lambda x: bridge._bridge_arguments(1.0, x["q"], "gop")),
    ),
    "partition": (
        _suite_partition, _each(_check_partition), ("w", "n0"),
        _listed_after(lambda x: blocks._partition_start(x["w"], x["n0"])),
    ),
    "linft": (
        _suite_linft, _check_linft, ("u", "v", "p"),
        _listed_after(lambda x: charformulas._linft_exponent(x["p"])),
    ),
    "equivalence-ratio": (
        _suite_equivalence, _check_equivalence, ("u", "v", "w", "p", "q", "form"), _listed
    ),
    "chain-equivalence": (
        _suite_chain_equivalence, _check_chain_equivalence, ("u", "v", "w", "p", "q", "family"),
        _listed_after(lambda x: oracle._chain_exponent(x["p"])),
    ),
    "doubling": (_suite_doubling, _check_doubling, ("b", "c", "alpha"), _DoublingRows.one),
}


def run_verification(spec: SweepSpec) -> dict:
    """Run the selected suites; returns the full report as a JSON-able dict."""
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_json(),
        "suites": {},
    }
    for name in spec.suites:
        rng = np.random.default_rng((spec.seed, ALL_SUITES.index(name)))
        failures: list = []
        fields = _SUITES[name][0](spec, rng, lambda instances: _check(failures, name, instances))
        report["suites"][name] = {"passed": not failures, **fields, "failures": failures}
    if spec.replay:
        report["replay"] = [replay_instance(entry) for entry in spec.replay]
    report["passed"] = all(s["passed"] for s in report["suites"].values()) and all(
        r["passed"] for r in report.get("replay", [])
    )
    return report
