"""Command-line front end.

One subcommand per verifiable statement, plus ``padic`` for ad hoc
arithmetic and ``sweep <name>``, the one way to run a named verification
suite.  Each run prints a report: text by default, or a canonical JSON
object with ``--json`` (keys: command, inputs, rows, verdict, provenance,
version).  Reports hold no timestamps and are byte-for-byte reproducible:
``json.dumps`` with sorted keys and indent 1, written by :func:`_canonical_json`.

A single-shot command is one handler decorated with
``@_command(name, statement_id, help)``.  Its parameters are its flags,
``--name``, required when without a default.  Each annotation says how its
flag is read: ``int`` by :func:`parse_int`, ``tuple[int, ...]`` as a comma
list of them, ``str`` as text, ``bool`` as a switch, a tuple of strings as
choices, and ``Annotated[kind, parse, help]`` as ``kind`` passed through
``parse`` (``NonzeroRational``), whose ``UsageError`` is an ``error:``
line.  A prime is an ``int``, which the library refuses if it is not
prime.  The handler returns its rows and verdict (``padic`` its inputs
too); the registry records the arguments as ``inputs`` and the statement
as provenance.  ``_flags`` builds each signature's flag table, which
both readers use.  argvs of the exact form ``[--json] <command>
--flag=value ... --switch`` build no parser: :func:`_exact_args` reads
them from the command's table.  Every other argv, and ``sweep``, shares
one parser of every command, built once per process, so help, usage and
error messages are argparse's own.

``sweep <name>`` reads its flags the same way, from the signature of the
sweep's function: one subparser per sweep, whose ``--help`` lists each
keyword with its default.  Every one takes ``--seed``, which goes only to
seeded sweeps; ``sweep all`` runs every default grid.

Exit codes: 0 for pass or informational output, 1 for a verification
failure, 2 for a usage error (unknown subcommand, sweep or flag, malformed
rational, composite number where a prime is required, empty sweep grid,
an int argument below its lower bound or past its cap, named by its
parameter, or the value ``--``, named by its flag).
"""

import argparse
import inspect
import json
import operator
import os
import re
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import Annotated, get_args, get_origin

from . import __version__
from ._integers import _PSI_13
from .imj import (
    bernoulli, imj_order, k1_sphere_order, k_finite_field, von_staudt_clausen_denominator
)
from .jmaps import adelic_norm_product
from .padic import DEFAULT_PRECISION, embed, padic_log, padic_norm, rezk_log_pi0, teichmuller, vp
from .sweeps import DEFAULT_SEED, STATEMENTS, SWEEPS, SweepResult
from .symbols import (
    INFINITY, Place, hilbert_oracle, hilbert_reciprocity_check, hilbert_symbol, legendre,
    tame_symbol, zolotarev_sign,
)

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")


class UsageError(ValueError, argparse.ArgumentTypeError):
    """A malformed argument: exit 2.  Raised by a flag's argparse type, it
    reads ``argument --flag: <message>``; raised later, ``error: <message>``."""


def parse_int(text: str) -> int:
    """The grammar of every integer flag: [+-]digits, nothing else (no
    spaces or underscores, which int() would take)."""
    if not _INT_RE.fullmatch(text):
        raise UsageError(f"invalid int value: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
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


def parse_place(text: str) -> Place:
    if text in ("inf", "oo", "infinity"):
        return INFINITY
    return Place(parse_int(text))


NonzeroRational = Annotated[str, parse_nonzero_rational]


def _report(command: str, inputs: dict, rows: list, verdict: str, statement_ids: list) -> dict:
    provenance = [{"statement_id": sid, "statement": STATEMENTS[sid]} for sid in statement_ids]
    report = {"command": command, "inputs": inputs, "rows": rows, "verdict": verdict}
    return report | {"provenance": provenance, "version": __version__}


def _marked(row: dict, p: int | None) -> dict:
    """The row, marked when the prime p is a BPSW probable prime: at or above psi_13."""
    if p is not None and p >= _PSI_13:
        row["bpsw_probable_prime"] = True
    return row


def _sweep_report(result: SweepResult) -> dict:
    rows = result.rows + [
        {"summary": True, "checked": result.checked, "failures": result.failures}
    ]
    inputs = result.params | {"sweep": result.name}
    return _report("sweep", inputs, rows, result.verdict, [result.statement_id])


_quote = json.encoder.encode_basestring_ascii


def _canonical_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1)``, byte for
    byte, for dicts with str keys, lists, str, int, bool and None; TypeError for any other
    value, key or container (a tuple too).  ``indent`` is the newline and indent of ``value``'s
    own line.  ``json`` indents in pure Python before 3.13, about twice as slow as this."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + " "
        items = [_quote(key) + ": " + _canonical_json(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + " "
        items = [_canonical_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, as_json: bool) -> int:
    try:
        if as_json:
            print(_canonical_json(report))
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
        sys.stdout.flush()
    except BrokenPipeError:  # a closed stdout: what is left goes to devnull, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["verdict"] in ("pass", "n/a") else 1


# -- the command registry ---------------------------------------------------

# name -> (help, handler, flags, start), in the order `jshadow --help` lists them: flags is the
# flag table of the handler's signature, start the namespace a parse starts from, its
# defaults and its "handler", the function from the parsed arguments to the report.
_COMMANDS: dict[str, tuple[str, Callable, dict, dict]] = {}


def _command(name: str, statement_id: str | None, help: str):
    """Register the handler as single-shot command ``name``, citing ``statement_id`` if any."""

    def register(handler):
        flags = _flags(inspect.signature(handler))
        start = {dest: options["default"] for dest, options, _ in flags.values()}
        report = partial(_single_shot, name, statement_id, handler, flags)
        _COMMANDS[name] = help, handler, flags, start | {"handler": report}
        return handler

    return register


def _flags(signature: inspect.Signature) -> dict[str, tuple[str, dict, Callable]]:
    """The flag table of ``signature``, one flag per parameter: option string -> (parameter
    name, the options ``add_argument`` takes, the function from the flag's value to the
    argument)."""
    table = {}
    for param in signature.parameters.values():
        note = param.annotation
        kind, *meta = get_args(note) if get_origin(note) is Annotated else (note,)
        required = param.default is param.empty
        options = {"required": required, "default": None if required else param.default}
        if kind is bool:
            options["action"] = "store_true"
        elif isinstance(kind, tuple):
            options["choices"] = kind
        elif get_origin(kind) is tuple:  # a comma list, its default shown as one
            options["type"] = lambda text: tuple(map(parse_int, text.split(",")))
        elif int in (kind, *get_args(kind)):
            options["type"] = parse_int
        notes = [m for m in meta if isinstance(m, str)]
        if options["default"] is not None and kind is not bool:
            shown = ",".join(map(str, param.default)) if get_origin(kind) is tuple else "%(default)s"
            notes.append("default: " + shown)
        options["help"] = "; ".join(notes) or None
        parse = next((m for m in meta if callable(m)), lambda value: value)
        table["--" + param.name.replace("_", "-")] = param.name, options, parse
    return table


def _single_shot(name: str, statement_id: str | None, handler, flags: dict, args) -> dict:
    """The report of the handler on the values ``args`` holds of its flags."""
    values = {dest: parse(getattr(args, dest)) for dest, _, parse in flags.values()}
    rows, verdict, *inputs = handler(**values)
    shown = {k: str(v) if isinstance(v, (Fraction, Place)) else v for k, v in values.items()}
    statement_ids = [statement_id] if statement_id else []
    return _report(name, inputs[0] if inputs else shown, rows, verdict, statement_ids)


# -- single-shot commands, each a handler returning its rows and verdict ---


@_command("hilbert", "hilbert-symbol-solvability", "Hilbert symbol (a,b)_v")
def _hilbert(
    a: NonzeroRational,
    b: NonzeroRational,
    place: Annotated[str, parse_place, "a prime or 'inf'"],
    oracle: Annotated[bool, "cross-check by solvability search"] = False,
):
    symbol = hilbert_symbol(a, b, place)
    row = _marked({"a": str(a), "b": str(b), "place": str(place), "symbol": symbol}, place.prime)
    if not oracle:
        return [row], "n/a"
    row["oracle"] = hilbert_oracle(a, b, place)
    return [row], "pass" if row["oracle"] == symbol else "fail"


@_command("reciprocity", "hilbert-reciprocity", "per-place Hilbert symbols and their product")
def _reciprocity(a: NonzeroRational, b: NonzeroRational):
    result = hilbert_reciprocity_check(a, b)
    rows = [_marked({"place": str(v), "symbol": s}, v.prime) for v, s in result.local_symbols]
    rows.append({"product": result.product, "omitted_places": "+1 (unit coefficients)"})
    return rows, "pass" if result.passes else "fail"


@_command("zolotarev", "zolotarev-lemma", "permutation sign versus Legendre symbol")
def _zolotarev(a: int, p: int):
    sign, leg = zolotarev_sign(a, p), legendre(a, p)
    rows = [{"a": a, "p": p, "permutation_sign": sign, "legendre": leg}]
    return rows, "pass" if sign == leg else "fail"


@_command("tame", "tame-hilbert-compatibility", "tame symbol at p")
def _tame(a: NonzeroRational, b: NonzeroRational, p: int):
    value = tame_symbol(a, b, p)
    row = _marked({"a": str(a), "b": str(b), "p": p, "tame_symbol": value}, p)
    if p == 2:
        return [row], "n/a"
    row["legendre_of_value"] = legendre(value, p)
    compatible = row["legendre_of_value"] == hilbert_symbol(a, b, Place(p))
    return [row], "pass" if compatible else "fail"


@_command("bernoulli", "von-staudt-clausen", "exact Bernoulli number")
def _bernoulli(n: int):
    value = bernoulli(n)
    row = {"n": n, "value": str(value)}
    if n < 2 or n % 2:
        return [row], "n/a"
    row["denominator"] = value.denominator
    row["vsc_product"] = von_staudt_clausen_denominator(n)
    return [row], "pass" if value.denominator == row["vsc_product"] else "fail"


@_command("imj-order", "image-of-j-order", "image-of-J order in stem 4k-1")
def _imj_order(k: int):
    report = imj_order(k)
    factorization = " * ".join(f"{p}^{e}" for p, e in report.factors) or "1"
    row = {"k": k, "stem": 4 * k - 1, "order": report.order}
    return [row | {"factorization": factorization, "odd_part": report.order // report.part(2)}], "n/a"


@_command("k1-sphere", "image-of-j-order", "order of pi_{2k-1} of the K(1)-local sphere")
def _k1_sphere(ell: int, k: int, generator: int | None = None):
    result = k1_sphere_order(ell, k, generator)
    row = {"ell": ell, "k": k, "degree": 2 * k - 1, "generator": result.generator}
    row |= {"order": result.order, "closed_form": result.closed_form}
    return [_marked(row, ell)], "pass" if result.order == result.closed_form else "fail"


@_command("kff", "k-groups-finite-field", "Quillen K-group of a finite field")
def _kff(n: int, q: int):
    report = k_finite_field(n, q)
    order = "infinite" if report.order is None else report.order
    rows = [{"n": n, "q": q, "group": report.describe(), "order": order}]
    if report.order is None or n <= 0:
        return rows, "n/a"
    return rows, "pass" if gcd(report.order, q) == 1 else "fail"


@_command("rezk-log", "degree-zero-logarithm", "degree-zero logarithm of a unit")
def _rezk_log(ell: int, x: NonzeroRational, precision: int = DEFAULT_PRECISION):
    value = rezk_log_pi0(embed(x, ell, precision))
    valuation = "zero-to-precision" if value.is_zero else value.valuation
    row = {"ell": ell, "x": str(x), "value": str(value), "valuation": valuation}
    return [_marked(row, ell)], "pass" if value.is_zero or value.valuation >= 0 else "fail"


@_command("padic", None, "ad hoc p-adic arithmetic")
def _padic(
    p: int,
    op: ("add", "sub", "mul", "div", "inv", "pow", "log", "teichmuller", "valuation"),
    x: str | None = None,
    y: str | None = None,
    exponent: int | None = None,
    residue: int | None = None,
    precision: int = DEFAULT_PRECISION,
):
    """Returns the inputs as well: they echo only the operands ``op`` uses, as given."""
    ops = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
    needs = {"pow": "x exponent", "teichmuller": "residue"}.get(op, "x y" if op in ops else "x")
    given = {"x": x, "y": y, "exponent": exponent, "residue": residue}
    operands = {key: given[key] for key in needs.split()}
    if None in operands.values():
        raise UsageError(f"{op} needs " + " and ".join(f"--{key}" for key in operands))
    inputs = {"p": p, "op": op, "precision": precision} | operands
    if op == "valuation":
        value = parse_nonzero_rational(x)
        row = {"x": x, "valuation": vp(value, p), "norm": str(padic_norm(value, p))}
        return [_marked(row, p)], "n/a", inputs
    if op == "teichmuller":
        value = teichmuller(residue, p, precision)
    elif op in ops:
        u, w = (embed(parse_nonzero_rational(text), p, precision) for text in (x, y))
        value = ops[op](u, w)
    else:
        u = embed(parse_nonzero_rational(x), p, precision)
        value = u.inv() if op == "inv" else u**exponent if op == "pow" else padic_log(u)
    return [_marked({"value": str(value)}, p)], "n/a", inputs


@_command("norm-product", "adelic-norm-product", "product of all absolute values of x")
def _norm_product(x: NonzeroRational):
    product = adelic_norm_product(x)
    return [{"x": str(x), "product": str(product)}], "pass" if product == 1 else "fail"


# -- sweeps -----------------------------------------------------------------


def _run_sweep(name: str, args) -> SweepResult:
    """Run the registered sweep ``name`` on the values ``args`` holds of its keywords."""
    fn, given = SWEEPS[name], vars(args)
    return fn(**{key: given[key] for key in inspect.signature(fn).parameters if key in given})


def _sweep(args) -> dict:
    if args.name != "all":
        return _sweep_report(_run_sweep(args.name, args))
    results = [_run_sweep(name, args) for name in SWEEPS]
    rows = [
        {"sweep": r.name, "checked": r.checked, "failures": r.failures, "verdict": r.verdict}
        for r in results
    ]
    checked = sum(r.checked for r in results)
    failures = sum(r.failures for r in results)
    rows.append({"summary": True, "checked": checked, "failures": failures})
    verdict = "pass" if failures == 0 else "fail"
    statement_ids = [r.statement_id for r in results]
    return _report("sweep", {"sweep": "all", "seed": args.seed}, rows, verdict, statement_ids)


def _add_flags(sp: argparse.ArgumentParser, flags: dict) -> None:
    for option, (_, options, _) in flags.items():
        sp.add_argument(option, **options)


def _sweep_arguments(sp: argparse.ArgumentParser) -> None:
    """One subparser per sweep, whose flags are its keywords, and one for ``all``.  Each
    takes ``--seed``, which reaches only the sweeps with a ``seed`` keyword."""
    names = sp.add_subparsers(
        dest="name", required=True, metavar="name", help=f"one of: {', '.join(sorted(SWEEPS))}, all"
    )
    seed = "seed", {"type": parse_int, "default": DEFAULT_SEED, "help": "default: %(default)s"}, None
    for name in (*SWEEPS, "all"):
        flags = _flags(inspect.signature(SWEEPS[name])) if name in SWEEPS else {}
        flags.setdefault("--seed", seed)
        _add_flags(names.add_parser(name), flags)


_COMMANDS["sweep"] = (
    "run a named verification suite; its keywords are its flags", _sweep, {}, {"handler": _sweep}
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process from the flag tables and shared,
    so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="jshadow",
        description=(
            "Exact verification of Hilbert reciprocity, Zolotarev signs, "
            "image-of-J group orders, and p-adic logarithm identities."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, _, flags, start) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        _add_flags(sp, flags)
        sp.set_defaults(handler=start["handler"])
    _sweep_arguments(sub.choices["sweep"])
    return parser


def _exact_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args`` makes of an argv of the exact form, read
    from the command's flag table; None for a prefix, a separate value, a flag given twice, a
    switch given a value, a value its flag refuses, a required flag missing, or any other argv."""
    as_json = argv[:1] == ["--json"]
    name, *given = (argv[1:] if as_json else argv) or [None]
    if name == "sweep" or name not in _COMMANDS:
        return None
    _, _, flags, start = _COMMANDS[name]
    values = {}
    for arg in given:
        option, eq, text = arg.partition("=")
        if option not in flags:
            return None
        dest, options, _ = flags[option]
        switch = options.get("action") == "store_true"
        # each flag at most once, a switch bare, a value after "=" (argparse reads "--" as none)
        if dest in values or switch == bool(eq) or text == "--":
            return None
        try:  # the flag's own type and choices, as argparse applies them
            values[dest] = True if switch else options.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in options and values[dest] not in options["choices"]:
            return None
    complete = all(dest in values for dest, options, _ in flags.values() if options["required"])
    return argparse.Namespace(json=as_json, subcommand=name, **start | values) if complete else None


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # --flag=--: argparse stores [] before 3.13 and passes "--" on from 3.13, so no parser sees it
    empty = [arg[:-3] for arg in argv if arg[-3:] == "=--" and arg[:2] == "--" and "=" not in arg[:-3]]
    if empty:
        print(f"error: {', '.join(empty)}: expected one argument", file=sys.stderr)
        return 2
    try:
        args = _exact_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args.json)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
