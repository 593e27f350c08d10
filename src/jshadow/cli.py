"""Command-line front end.

One subcommand per verifiable statement, plus ``padic`` for ad hoc
arithmetic and ``sweep <name>``, the one way to run a named verification
suite.  Its grid flags are the keywords of the registered sweep, written
``--keyword=value`` (``--p-max=50``; a comma list such as ``--ells=3,5``
where the default is a tuple); ``--seed`` goes only to the sweeps that
take a seed, and ``sweep all`` runs every default grid.  Each run
prints a report: human-readable text by default, or a canonical JSON
object with ``--json`` (top-level keys: command, inputs, rows, verdict,
provenance, version).  Reports contain no timestamps and are
byte-for-byte reproducible for fixed inputs and seed.

Exit codes: 0 for pass or informational output, 1 for a verification
failure, 2 for a usage error (unknown subcommand or grid flag, malformed
rational, composite number where a prime is required, empty sweep grid,
an integer too large for the interpreter to index with, named by its flag).
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from ._integers import _PSI_13, is_prime
from .imj import (
    bernoulli,
    imj_order,
    k1_sphere_order,
    k_finite_field,
    von_staudt_clausen_denominator,
)
from .jmaps import adelic_norm_product
from .padic import (
    DEFAULT_PRECISION,
    embed,
    padic_log,
    padic_norm,
    rezk_log_pi0,
    teichmuller,
    vp,
)
from .sweeps import DEFAULT_SEED, STATEMENTS, SWEEPS, SweepResult
from .symbols import (
    Place,
    hilbert_oracle,
    hilbert_reciprocity_check,
    hilbert_symbol,
    legendre,
    tame_symbol,
    zolotarev_sign,
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class UsageError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise UsageError(f"malformed rational {text!r}; expected [-]digits[/digits]")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError("zero denominator") from None


def parse_nonzero_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value == 0:
        raise UsageError("value must be nonzero")
    return value


def parse_prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"not an integer: {text!r}") from None
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return p


def parse_place(text: str) -> Place:
    if text in ("inf", "oo", "infinity"):
        return Place.infinity()
    return Place.finite(parse_prime(text))


def _report(
    command: str,
    inputs: dict,
    rows: list[dict],
    verdict: str,
    provenance: list[dict],
) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "rows": rows,
        "verdict": verdict,
        "provenance": provenance,
        "version": __version__,
    }


def _marked(row: dict, p: int | None) -> dict:
    """The row, marked when the prime p is a BPSW probable prime: at or above psi_13."""
    if p is not None and p >= _PSI_13:
        row["bpsw_probable_prime"] = True
    return row


def _prov(*statement_ids: str) -> list[dict]:
    return [{"statement_id": sid, "statement": STATEMENTS[sid]} for sid in statement_ids]


def _sweep_report(result: SweepResult, command: str) -> dict:
    rows = result.rows + [
        {"summary": True, "checked": result.checked, "failures": result.failures}
    ]
    inputs = result.params | {"sweep": result.name}
    return _report(command, inputs, rows, result.verdict, _prov(result.statement_id))


def _emit(report: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1))
    else:
        print(f"command: {report['command']}")
        for key in sorted(report["inputs"]):
            print(f"  {key} = {report['inputs'][key]}")
        for row in report["rows"]:
            cells = "  ".join(f"{k}={v}" for k, v in row.items())
            print(f"  | {cells}")
        for entry in report["provenance"]:
            print(f"checks: {entry['statement_id']}: {entry['statement']}")
        print(f"verdict: {report['verdict']}")
    return 0 if report["verdict"] in ("pass", "n/a") else 1


# -- subcommand handlers -------------------------------------------------


def _cmd_hilbert(args) -> dict:
    a = parse_nonzero_rational(args.a)
    b = parse_nonzero_rational(args.b)
    place = parse_place(args.place)
    symbol = hilbert_symbol(a, b, place)
    rows = [_marked({"a": str(a), "b": str(b), "place": str(place), "symbol": symbol}, place.prime)]
    verdict = "n/a"
    if args.oracle:
        oracle = hilbert_oracle(a, b, place)
        rows[0]["oracle"] = oracle
        verdict = "pass" if oracle == symbol else "fail"
    return _report(
        "hilbert",
        {"a": str(a), "b": str(b), "place": str(place), "oracle": args.oracle},
        rows,
        verdict,
        _prov("hilbert-symbol-solvability"),
    )


def _cmd_reciprocity(args) -> dict:
    a = parse_nonzero_rational(args.a)
    b = parse_nonzero_rational(args.b)
    result = hilbert_reciprocity_check(a, b)
    rows = [_marked({"place": str(v), "symbol": s}, v.prime) for v, s in result.local_symbols]
    rows.append({"product": result.product, "omitted_places": "+1 (unit coefficients)"})
    return _report(
        "reciprocity",
        {"a": str(a), "b": str(b)},
        rows,
        "pass" if result.passes else "fail",
        _prov("hilbert-reciprocity"),
    )


def _cmd_zolotarev(args) -> dict:
    p = parse_prime(str(args.p))
    sign = zolotarev_sign(args.a, p)
    leg = legendre(args.a, p)
    rows = [{"a": args.a, "p": p, "permutation_sign": sign, "legendre": leg}]
    return _report(
        "zolotarev",
        {"a": args.a, "p": p},
        rows,
        "pass" if sign == leg else "fail",
        _prov("zolotarev-lemma"),
    )


def _cmd_tame(args) -> dict:
    a = parse_nonzero_rational(args.a)
    b = parse_nonzero_rational(args.b)
    p = parse_prime(str(args.p))
    value = tame_symbol(a, b, p)
    rows = [_marked({"a": str(a), "b": str(b), "p": p, "tame_symbol": value}, p)]
    verdict = "n/a"
    if p != 2:
        compatible = legendre(value, p) == hilbert_symbol(a, b, Place.finite(p))
        rows[0]["legendre_of_value"] = legendre(value, p)
        verdict = "pass" if compatible else "fail"
    return _report(
        "tame",
        {"a": str(a), "b": str(b), "p": p},
        rows,
        verdict,
        _prov("tame-hilbert-compatibility"),
    )


def _cmd_bernoulli(args) -> dict:
    n = args.n
    value = bernoulli(n)
    rows = [{"n": n, "value": str(value)}]
    verdict = "n/a"
    if n >= 2 and n % 2 == 0:
        expected = von_staudt_clausen_denominator(n)
        rows[0]["denominator"] = value.denominator
        rows[0]["vsc_product"] = expected
        verdict = "pass" if value.denominator == expected else "fail"
    return _report("bernoulli", {"n": n}, rows, verdict, _prov("von-staudt-clausen"))


def _cmd_imj_order(args) -> dict:
    report = imj_order(args.k)
    odd = report.order >> (report.order & -report.order).bit_length() - 1
    rows = [
        {
            "k": args.k,
            "stem": 4 * args.k - 1,
            "order": report.order,
            "factorization": " * ".join(f"{p}^{e}" for p, e in report.factors) or "1",
            "odd_part": odd,
        }
    ]
    return _report("imj-order", {"k": args.k}, rows, "n/a", _prov("image-of-j-order"))


def _cmd_k1_sphere(args) -> dict:
    ell = parse_prime(str(args.ell))
    result = k1_sphere_order(ell, args.k, args.generator)
    row = {
        "ell": ell,
        "k": args.k,
        "degree": 2 * args.k - 1,
        "generator": result.generator,
        "order": result.order,
        "closed_form": result.closed_form,
    }
    rows = [_marked(row, ell)]
    return _report(
        "k1-sphere",
        {"ell": ell, "k": args.k, "generator": args.generator},
        rows,
        "pass" if result.order == result.closed_form else "fail",
        _prov("image-of-j-order"),
    )


def _cmd_kff(args) -> dict:
    report = k_finite_field(args.n, args.q)
    rows = [
        {
            "n": args.n,
            "q": args.q,
            "group": report.describe(),
            "order": report.order if report.order is not None else "infinite",
        }
    ]
    verdict = "n/a"
    if report.order is not None and args.n > 0:
        verdict = "pass" if gcd(report.order, args.q) == 1 else "fail"
    return _report(
        "kff", {"n": args.n, "q": args.q}, rows, verdict, _prov("k-groups-finite-field")
    )


def _cmd_rezk_log(args) -> dict:
    ell = parse_prime(str(args.ell))
    if ell == 2:
        raise UsageError("l must be an odd prime")
    x = parse_nonzero_rational(args.x)
    if vp(x, ell) != 0:
        raise UsageError("x must be a unit of Z_l")
    value = rezk_log_pi0(embed(x, ell, args.precision))
    in_zl = value.is_zero or value.valuation >= 0
    row = {
        "ell": ell,
        "x": str(x),
        "value": str(value),
        "valuation": "zero-to-precision" if value.is_zero else value.valuation,
    }
    rows = [_marked(row, ell)]
    return _report(
        "rezk-log",
        {"ell": ell, "x": str(x), "precision": args.precision},
        rows,
        "pass" if in_zl else "fail",
        _prov("degree-zero-logarithm"),
    )


def _cmd_padic(args) -> dict:
    p = parse_prime(str(args.p))
    n = args.precision
    op = args.op
    inputs = {"p": p, "op": op, "precision": n}
    if op in ("add", "sub", "mul", "div"):
        if args.x is None or args.y is None:
            raise UsageError(f"{op} needs --x and --y")
        x = embed(parse_nonzero_rational(args.x), p, n)
        y = embed(parse_nonzero_rational(args.y), p, n)
        value = {"add": x + y, "sub": x - y, "mul": x * y, "div": x / y}[op]
        inputs.update(x=args.x, y=args.y)
    elif op == "inv":
        if args.x is None:
            raise UsageError("inv needs --x")
        value = embed(parse_nonzero_rational(args.x), p, n).inv()
        inputs.update(x=args.x)
    elif op == "pow":
        if args.x is None or args.exponent is None:
            raise UsageError("pow needs --x and --exponent")
        value = embed(parse_nonzero_rational(args.x), p, n) ** args.exponent
        inputs.update(x=args.x, exponent=args.exponent)
    elif op == "log":
        if args.x is None:
            raise UsageError("log needs --x")
        value = padic_log(embed(parse_nonzero_rational(args.x), p, n))
        inputs.update(x=args.x)
    elif op == "teichmuller":
        if args.residue is None:
            raise UsageError("teichmuller needs --residue")
        value = teichmuller(args.residue, p, n)
        inputs.update(residue=args.residue)
    else:  # valuation, the last of the choices argparse allows
        if args.x is None:
            raise UsageError("valuation needs --x")
        x = parse_nonzero_rational(args.x)
        rows = [_marked({"x": args.x, "valuation": vp(x, p), "norm": str(padic_norm(x, p))}, p)]
        return _report("padic", inputs | {"x": args.x}, rows, "n/a", [])
    rows = [_marked({"value": str(value)}, p)]
    return _report("padic", inputs, rows, "n/a", [])


def _cmd_norm_product(args) -> dict:
    x = parse_nonzero_rational(args.x)
    product = adelic_norm_product(x)
    rows = [{"x": str(x), "product": str(product)}]
    return _report(
        "norm-product",
        {"x": str(x)},
        rows,
        "pass" if product == 1 else "fail",
        _prov("adelic-norm-product"),
    )


def _run_sweep(name: str, seed: int, flags: list[str]) -> SweepResult:
    """Run the registered sweep ``name`` on the grid its ``--keyword=value``
    flags set (an int, or a comma list where the default is a tuple), seeded
    exactly when it takes a seed."""
    fn = SWEEPS[name]
    keywords = inspect.signature(fn).parameters
    grid = {"seed": seed} if "seed" in keywords else {}
    params = {"--" + k.replace("_", "-"): v for k, v in keywords.items() if k != "seed"}
    for flag in flags:
        key, eq, text = flag.partition("=")
        if key not in params or not eq:
            raise UsageError(f"unknown flag {flag!r}; sweep {name} takes {'=, '.join(params)}=")
        is_list = isinstance(params[key].default, tuple)
        try:
            grid[params[key].name] = tuple(map(int, text.split(","))) if is_list else int(text)
        except ValueError:
            kind = "a comma list of integers" if is_list else "an integer"
            raise UsageError(f"{key} takes {kind}, got {text!r}") from None
    return fn(**grid)


def _cmd_sweep(args) -> dict:
    if args.name != "all":
        if args.name not in SWEEPS:
            raise UsageError(f"unknown sweep {args.name!r}; known: {', '.join(sorted(SWEEPS))}, all")
        return _sweep_report(_run_sweep(args.name, args.seed, args.grid), "sweep")
    if args.grid:
        raise UsageError(f"sweep all takes no grid flags, got {' '.join(args.grid)}")
    results = [_run_sweep(name, args.seed, []) for name in SWEEPS]
    rows = [
        {"sweep": r.name, "checked": r.checked, "failures": r.failures, "verdict": r.verdict}
        for r in results
    ]
    checked = sum(r.checked for r in results)
    failures = sum(r.failures for r in results)
    rows.append({"summary": True, "checked": checked, "failures": failures})
    return _report(
        "sweep",
        {"sweep": "all", "seed": args.seed},
        rows,
        "pass" if failures == 0 else "fail",
        _prov(*(r.statement_id for r in results)),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jshadow",
        description=(
            "Exact verification of Hilbert reciprocity, Zolotarev signs, "
            "image-of-J group orders, and p-adic logarithm identities."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("hilbert", help="Hilbert symbol (a,b)_v")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--place", required=True, help="a prime or 'inf'")
    sp.add_argument("--oracle", action="store_true", help="cross-check by solvability search")
    sp.set_defaults(handler=_cmd_hilbert)

    sp = sub.add_parser("reciprocity", help="per-place Hilbert symbols and their product")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(handler=_cmd_reciprocity)

    sp = sub.add_parser("zolotarev", help="permutation sign versus Legendre symbol")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(handler=_cmd_zolotarev)

    sp = sub.add_parser("tame", help="tame symbol at p")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(handler=_cmd_tame)

    sp = sub.add_parser("bernoulli", help="exact Bernoulli number")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_bernoulli)

    sp = sub.add_parser("imj-order", help="image-of-J order in stem 4k-1")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=_cmd_imj_order)

    sp = sub.add_parser("k1-sphere", help="order of pi_{2k-1} of the K(1)-local sphere")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--generator", type=int)
    sp.set_defaults(handler=_cmd_k1_sphere)

    sp = sub.add_parser("kff", help="Quillen K-group of a finite field")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(handler=_cmd_kff)

    sp = sub.add_parser("rezk-log", help="degree-zero logarithm of a unit")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sp.set_defaults(handler=_cmd_rezk_log)

    sp = sub.add_parser("padic", help="ad hoc p-adic arithmetic")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument(
        "--op",
        required=True,
        choices=["add", "sub", "mul", "div", "inv", "pow", "log", "teichmuller", "valuation"],
    )
    sp.add_argument("--x")
    sp.add_argument("--y")
    sp.add_argument("--exponent", type=int)
    sp.add_argument("--residue", type=int)
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    sp.set_defaults(handler=_cmd_padic)

    sp = sub.add_parser("norm-product", help="product of all absolute values of x")
    sp.add_argument("--x", required=True)
    sp.set_defaults(handler=_cmd_norm_product)

    sp = sub.add_parser("sweep", help="run a named verification suite; grid flags --keyword=value")
    sp.add_argument("name", help=f"one of: {', '.join(sorted(SWEEPS))}, all")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(handler=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, grid = parser.parse_known_args(argv)
        args.grid = grid
        if args.grid and args.handler is not _cmd_sweep:
            parser.error(f"unrecognized arguments: {' '.join(args.grid)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except (ValueError, OverflowError) as exc:
        flags = f"{_oversized_flags(args)}: " if isinstance(exc, OverflowError) else ""
        print(f"error: {flags}{exc}", file=sys.stderr)
        return 2
    return _emit(report, args.json)


def _oversized_flags(args) -> str:
    """The flags given an integer too large for the interpreter to index with."""
    given = [(k, str(v)) for k, v in vars(args).items()]
    given += [flag[2:].partition("=")[::2] for flag in args.grid]
    return ", ".join(
        "--" + key.replace("_", "-")
        for key, text in given
        if any(v.lstrip("+-").isdecimal() and abs(int(v)) > sys.maxsize for v in text.split(","))
    ) or "an argument"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
