"""Correctness gate, run outside the timed region on every answer.

A ``nullspace`` answer must pass three checks: exact annihilation
(``basis @ M == 0`` coefficient by coefficient), full row rank of the
basis over K(x), and a rank equal to the brute-force ``rank_oracle``.
Row rank is checked at fresh points until one shows it; a nonzero
maximal minor has degree at most the basis degree sum, so degree_sum + 1
distinct points settle it.

A ``pm_mul`` product C = A @ B is checked at two random points with
Python-int arithmetic, which shares no code with the library.  The
product is unique, so a later answer for the same input only has to be
identical to the verified one (compared by SHA-256 of its coefficients).

A ``Fail`` is not a wrong answer: it is counted, not gated.
"""

from __future__ import annotations

import hashlib
import random
from operator import mul

import polynull
from polynull.polymat import const_rank


class WrongAnswer(Exception):
    """An answer the library returned is not correct."""


class Gate:
    def __init__(self, prime: int, rng: random.Random):
        self.p = prime
        self.rng = rng
        self._reference: dict[int, object] = {}  # per input: oracle rank or verified digest

    def check(self, index: int, inp, out) -> None:
        if isinstance(out, polynull.Fail):
            return
        if isinstance(inp, tuple):
            self._check_product(index, *inp, out)
        else:
            self._check_nullspace(index, inp, out)

    def _check_nullspace(self, index: int, m, res) -> None:
        if index not in self._reference:
            self._reference[index] = polynull.rank_oracle(m)
        rank, basis = res.rank, res.basis
        if rank != self._reference[index]:
            raise WrongAnswer(f"input {index}: rank {rank}, oracle says {self._reference[index]}")
        need = m.rows - rank
        if (basis.rows, basis.cols) != (need, m.rows):
            raise WrongAnswer(f"input {index}: basis is {basis.rows}x{basis.cols}, expected {need}x{m.rows}")
        if not polynull.pm_mul(basis, m).is_zero():
            raise WrongAnswer(f"input {index}: basis does not annihilate the input")
        if need == 0:
            return
        points = self.rng.sample(range(self.p), min(self.p, res.degree_sum + 1))
        if not any(const_rank(basis.eval(x), self.p) == need for x in points):
            raise WrongAnswer(f"input {index}: basis rows are dependent over K(x)")

    def _check_product(self, index: int, a, b, c) -> None:
        if (c.rows, c.cols) != (a.rows, b.cols) or c.degree > a.degree + b.degree:
            raise WrongAnswer(f"input {index}: product is {c.rows}x{c.cols} of degree {c.degree}")
        digest = (c.coeffs.shape, hashlib.sha256(c.coeffs.tobytes()).digest())
        if index in self._reference:
            if digest != self._reference[index]:
                raise WrongAnswer(f"input {index}: product differs from the verified one")
            return
        ca, cb, cc = a.coeffs.tolist(), b.coeffs.tolist(), c.coeffs.tolist()
        for _ in range(2):
            x = self.rng.randrange(self.p)
            cols = list(zip(*self._eval(cb, x)))
            want = [[sum(map(mul, row, col)) % self.p for col in cols] for row in self._eval(ca, x)]
            if self._eval(cc, x) != want:
                raise WrongAnswer(f"input {index}: product differs from A(x) B(x) at x = {x}")
        self._reference[index] = digest

    def _eval(self, coeffs: list, x: int) -> list[list[int]]:
        powers = [pow(x, e, self.p) for e in range(len(coeffs[0][0]))]
        return [[sum(map(mul, entry, powers)) % self.p for entry in row] for row in coeffs]
