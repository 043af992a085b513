"""Command-line front-end: matrix files, subcommands, reports.

Matrix file format, line-oriented and diffable::

    polymat 1 p=<prime> rows=<m> cols=<n>
    i j : c0 c1 ... ck

Indices are 0-based, coefficients ascending; entries not listed are
zero; duplicate (i, j) lines and coefficients >= p are rejected.

Exit codes: 0 success, 1 failed verification, 2 usage, 3 parse error,
4 algorithm failure after retries.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import Fail, MatrixParseError, PolynullError
from .field import FieldSpec, Poly
from .nullspace import RandomPlan, nullspace, nullspace_minimal_vectors, rows_annihilate
from .oracle import kronecker_indices
from .polymat import PolyMatrix, pm_mul

FORMAT_NAME = "polymat"
FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_FAIL = 4


def parse_matrix(text: str, prime_override: int | None = None) -> PolyMatrix:
    """Parse the text format; errors carry the offending line number."""
    lines = text.splitlines()
    if not lines:
        raise MatrixParseError(1, "empty file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != FORMAT_NAME:
        raise MatrixParseError(1, f"expected '{FORMAT_NAME} 1 p=... rows=... cols=...'")
    try:
        version = int(head[1])
    except ValueError:
        raise MatrixParseError(1, f"bad format version {head[1]!r}") from None
    if version != FORMAT_VERSION:
        raise MatrixParseError(1, f"unsupported format version {version}")
    fields = {}
    for token in head[2:]:
        key, _, value = token.partition("=")
        if not value:
            raise MatrixParseError(1, f"malformed header token {token!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise MatrixParseError(1, f"non-integer header value {token!r}") from None
    for key in ("p", "rows", "cols"):
        if key not in fields:
            raise MatrixParseError(1, f"header is missing {key}=")
    p = prime_override if prime_override is not None else fields["p"]
    rows, cols = fields["rows"], fields["cols"]
    if rows < 0 or cols < 0:
        raise MatrixParseError(1, "negative dimensions")
    try:
        field = FieldSpec(p)
    except ValueError as exc:
        raise MatrixParseError(1, str(exc)) from None

    entries: dict[tuple[int, int], list[int]] = {}
    max_len = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, colon, right = line.partition(":")
        if not colon:
            raise MatrixParseError(lineno, "expected 'i j : coefficients'")
        idx = left.split()
        if len(idx) != 2:
            raise MatrixParseError(lineno, "expected two indices before ':'")
        try:
            i, j = int(idx[0]), int(idx[1])
        except ValueError:
            raise MatrixParseError(lineno, "indices must be integers") from None
        if not (0 <= i < rows and 0 <= j < cols):
            raise MatrixParseError(lineno, f"index ({i}, {j}) out of range")
        if (i, j) in entries:
            raise MatrixParseError(lineno, f"duplicate entry ({i}, {j})")
        try:
            coeffs = [int(tok) for tok in right.split()]
        except ValueError:
            raise MatrixParseError(lineno, "coefficients must be integers") from None
        for c in coeffs:
            if not 0 <= c < p:
                raise MatrixParseError(lineno, f"coefficient {c} out of range [0, {p})")
        entries[(i, j)] = coeffs
        max_len = max(max_len, len(coeffs))

    tensor = np.zeros((rows, cols, max_len), dtype=np.int64)
    for (i, j), coeffs in entries.items():
        tensor[i, j, : len(coeffs)] = coeffs
    return PolyMatrix(field, tensor)


def serialize_matrix(m: PolyMatrix) -> str:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION} p={m.field.p} rows={m.rows} cols={m.cols}"]
    for i in range(m.rows):
        for j in range(m.cols):
            f = m.poly(i, j)
            if not f.is_zero():
                lines.append(f"{i} {j} : " + " ".join(str(c) for c in f.coeffs))
    return "\n".join(lines) + "\n"


def _basis_payload(m: PolyMatrix) -> list[list[list[int]]]:
    return [
        [list(m.poly(i, j).coeffs) for j in range(m.cols)] for i in range(m.rows)
    ]


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, separators=(",", ":"), sort_keys=True))
        return
    field = FieldSpec(report["prime"])
    for key, value in report.items():
        if key == "basis":
            print("basis:")
            for row in value:
                print("  [" + ", ".join(repr(Poly(field, c)) for c in row) + "]")
        else:
            print(f"{key}: {value}")


def _load(path: str, prime: int | None) -> PolyMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read(), prime)


def _cmd_rank(args) -> int:
    m = _load(args.file, args.prime)
    plan = RandomPlan(args.seed, args.max_retries)
    result = nullspace(m, plan)
    report = {
        "command": "rank",
        "prime": m.field.p,
        "seed": plan.seed,
        "rank": result.rank,
        "retries_used": result.retries_used,
        "certified": True,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_nullspace(args) -> int:
    m = _load(args.file, args.prime)
    plan = RandomPlan(args.seed, args.max_retries)
    result = nullspace(m, plan)
    report = {
        "command": "nullspace",
        "prime": m.field.p,
        "seed": plan.seed,
        "rank": result.rank,
        "basis": _basis_payload(result.basis),
        "degrees": list(result.degrees),
        "degree_sum": result.degree_sum,
        "retries_used": result.retries_used,
        "certified": True,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_minimal_vectors(args) -> int:
    m = _load(args.file, args.prime)
    plan = RandomPlan(args.seed, args.max_retries)
    result = nullspace_minimal_vectors(m, args.delta, plan)
    report = {
        "command": "minimal-vectors",
        "prime": m.field.p,
        "seed": plan.seed,
        "kappa": result.kappa,
        "basis": _basis_payload(result.vectors),
        "degrees": list(result.degrees),
        "degree_sum": sum(result.degrees),
        "retries_used": result.retries_used,
        "certified": True,
    }
    _emit(report, args.json)
    return EXIT_OK


def _cmd_mul(args) -> int:
    a = _load(args.a, args.prime)
    b = _load(args.b, args.prime)
    product = pm_mul(a, b)
    if args.json:
        report = {
            "command": "mul",
            "prime": product.field.p,
            "rows": product.rows,
            "cols": product.cols,
            "basis": _basis_payload(product),
        }
        print(json.dumps(report, separators=(",", ":"), sort_keys=True))
    else:
        sys.stdout.write(serialize_matrix(product))
    return EXIT_OK


def _cmd_verify(args) -> int:
    basis = _load(args.basisfile, args.prime)
    m = _load(args.matrixfile, args.prime)
    ok = all(rows_annihilate(basis, m))
    report = {
        "command": "verify",
        "prime": m.field.p,
        "rows_checked": basis.rows,
        "certified": ok,
    }
    _emit(report, args.json)
    return EXIT_OK if ok else EXIT_UNVERIFIED


def _cmd_oracle(args) -> int:
    m = _load(args.file, args.prime)
    profile = kronecker_indices(m, include_basis=False)
    report = {
        "command": "oracle kronecker",
        "prime": m.field.p,
        "rank": profile.rank,
        "indices": list(profile.indices),
        "certified": True,
    }
    _emit(report, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polynull",
        description="Rank and small-degree left nullspace bases of polynomial matrices over F_p.",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: OS entropy)")
    parser.add_argument("--prime", type=int, default=None, help="override the file header prime")
    parser.add_argument("--max-retries", type=int, default=4, dest="max_retries")
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("rank", help="certified rank")
    cmd.add_argument("file")
    cmd.set_defaults(func=_cmd_rank)

    cmd = sub.add_parser("nullspace", help="certified rank and nullspace basis")
    cmd.add_argument("file")
    cmd.set_defaults(func=_cmd_nullspace)

    cmd = sub.add_parser("minimal-vectors", help="nullspace vectors under a degree threshold")
    cmd.add_argument("file")
    cmd.add_argument("--delta", type=int, required=True, help="degree threshold")
    cmd.set_defaults(func=_cmd_minimal_vectors)

    cmd = sub.add_parser("mul", help="exact product of two matrix files")
    cmd.add_argument("a")
    cmd.add_argument("b")
    cmd.set_defaults(func=_cmd_mul)

    cmd = sub.add_parser("verify", help="check that basis rows annihilate a matrix")
    cmd.add_argument("basisfile")
    cmd.add_argument("matrixfile")
    cmd.set_defaults(func=_cmd_verify)

    cmd = sub.add_parser("oracle", help="brute-force reference computations")
    oracle_sub = cmd.add_subparsers(dest="oracle_command", required=True)
    kron = oracle_sub.add_parser("kronecker", help="Kronecker indices by linearization")
    kron.add_argument("file")
    kron.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Fail as exc:
        print(
            f"algorithm failed after retries: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    except (PolynullError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
