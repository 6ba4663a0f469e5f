"""The four benchmark workloads, written against the public API of
``levelrank``.

Each workload lists its cases in the order drawn from the seed. The seed
only permutes that order, so it changes which case fills a memo table first
but never the work done: verdicts, digests and per-layer counts are the same
for every seed. ``run`` is the timed part. ``check`` is the correctness gate,
run after the clock stops; it returns one (label, ok) pair per verdict and
re-derives the result by an independent route where one exists. ``digest``
gives a canonical line per case, so runs in any order can be compared.

Library functions are looked up on the package at call time, so the
wrappers installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import io
import random

import mpmath

import levelrank as lr
from levelrank import cli, verify

FLOAT_RTOL = 1e-9  # float qdims run at mpmath's default 53-bit precision
S_MATRIX_TOL = 1e-25  # the S-matrix is computed at 128 bits


def _holds(verdict) -> bool:
    holds = getattr(verdict, "holds", None)
    return bool(verdict) if holds is None else bool(holds)


class VerifyAll:
    """``levelrank verify all`` at default bounds, stdout captured. The seed
    reorders the suite registry, so the suites run in seed order."""

    name = "verify_all"

    def cases(self, rng: random.Random) -> list:
        order = list(verify.SUITES)
        rng.shuffle(order)
        return [tuple(order)]

    def run(self, order):
        suites = verify.SUITES
        reordered = {k: suites[k] for k in order}
        suites.clear()
        suites.update(reordered)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["verify", "all"])
        return status, out.getvalue()

    @staticmethod
    def _lines(text: str) -> list[str]:
        return [line for line in text.splitlines() if line.startswith("[")]

    def check(self, case, value):
        status, text = value
        lines = self._lines(text)
        verdicts = [(line, line.startswith("[PASS]")) for line in lines]
        verdicts.append((f"exit status {status}", status == 0 and bool(lines)))
        return verdicts

    def digest(self, case, value):
        status, text = value
        # drop the parenthesised detail, which may carry timings
        return [f"status {status}"] + [line.split("  (")[0] for line in self._lines(text)]


class Exhaustion:
    """``verify_exhaustion(7, 7, i)`` for all 49 classes: exact quantum
    dimensions in the conductor-28 cyclotomic field."""

    name = "exhaustion_7x7"
    n = m = 7

    def cases(self, rng: random.Random) -> list:
        return rng.sample(range(self.n * self.m), self.n * self.m)

    def run(self, i):
        verdict = lr.verify_exhaustion(self.n, self.m, i)
        return verdict, _holds(verdict)  # deciding the verdict is part of the work

    def check(self, i, value):
        return [(f"class {i}", value[1])]

    def digest(self, i, value):
        verdict, holds = value
        return [f"{i} {holds} {getattr(verdict, 'paired_sum', '')!r}"]


class Fusion:
    """Every ordered pair of rank-5 level-4 weights fused, each checked
    against the degree grading (the work of ``grading_violations(5, 4)``),
    one verdict per pair and in seed order."""

    name = "fusion_5x4"
    n, m = 5, 4

    def __init__(self):
        self._float_dims: dict | None = None

    def cases(self, rng: random.Random) -> list:
        weights = lr.enumerate_weights(self.n, self.m)
        pairs = [(a, b) for a in weights for b in weights]
        rng.shuffle(pairs)
        return pairs

    def run(self, pair):
        a, b = pair
        want = (a.degree() + b.degree()) % self.n
        return tuple(c for c in lr.fuse(a, b).terms if c.degree() != want)

    def check(self, pair, off_grade):
        # sum_c N_ab^c d_c = d_a d_b, with hook-content dimensions as floats.
        # The product is asked for again here rather than kept from the timed
        # region, so the peak memory there is the package's own.
        if self._float_dims is None:
            self._float_dims = {w: float(lr.qdim_weight(w, "float"))
                                for w in lr.enumerate_weights(self.n, self.m)}
        d = self._float_dims
        a, b = pair
        lhs = sum(k * d[c] for c, k in lr.fuse(a, b).terms.items())
        rhs = d[a] * d[b]
        return [(f"{a} x {b} grading", not off_grade),
                (f"{a} x {b} dimension", abs(lhs - rhs) <= FLOAT_RTOL * rhs)]

    def digest(self, pair, off_grade):
        a, b = pair
        terms = sorted(lr.fuse(a, b).terms.items(), key=lambda t: t[0].components)
        return [f"{a}x{b} {len(off_grade)} " + " ".join(f"{k}*{c}" for c, k in terms)]


class Modular:
    """``s_matrix(4, 4)`` then ``verlinde_check(4, 3)``: the floating-point
    layer. The seed has nothing to reorder here."""

    name = "modular_4x4"

    def cases(self, rng: random.Random) -> list:
        return [("s_matrix", 4, 4), ("verlinde_check", 4, 3)]

    def run(self, case):
        fn, n, m = case
        return getattr(lr, fn)(n, m)

    def _ratios(self, data):
        s = data.entries
        with mpmath.workprec(data.precision_bits):
            return [(w, s[0][j] / s[0][0]) for j, w in enumerate(data.weights)]

    def check(self, case, value):
        if case[0] == "verlinde_check":
            return [("verlinde 4 3", _holds(value))]
        # S_0a / S_00 is the quantum dimension of a: compare with hook-content
        out = []
        for w, ratio in self._ratios(value):
            d = float(lr.qdim_weight(w, "float"))
            ok = abs(ratio.imag) < S_MATRIX_TOL and abs(float(ratio.real) - d) <= FLOAT_RTOL * d
            out.append((f"S_0a/S_00 {w}", ok))
        return out

    def digest(self, case, value):
        if case[0] == "verlinde_check":
            return [f"verlinde 4 3 {_holds(value)}"]
        return [f"{w} {float(r.real):.12g}" for w, r in self._ratios(value)]


WORKLOADS = {w.name: w for w in (VerifyAll(), Exhaustion(), Fusion(), Modular())}
