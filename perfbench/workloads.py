"""Seeded workload inputs, one timed pass of each workload, and output checks.

Inputs are plain JSON-serialisable data made only from the workload seed,
so the same seed gives byte-identical inputs.  The program under test
receives the generated inputs, never the generator.  Expected answers are
derived here from how each input was built (known factorisations, Euler's
criterion, Adams' closed form for image-of-J orders), not from jshadow.

Three workloads of the benchmark stress different layers:

* ``sweep-stream``: the twelve acceptance sweeps at small grids, as a
  stream of short library calls dominated by reciprocity and the oracles
  (symbols, small-integer factoring with repeated arguments, jmaps).
* ``queries-mixed``: a stream of single-shot CLI commands on large
  rationals, p-adic arithmetic and a few malformed inputs (cli, large-number
  factoring).
* ``padic-imj``: the public sweeps of statements 4-8 at grids and
  precisions larger than the defaults (padic, imj).

A fourth, ``sweep-all``, is ``jshadow --json sweep all --seed=<seed>`` as
users run it, checked against a golden digest.  It is one call of 9 to 15 s,
too coarse for a steady figure from a run on a shared machine, so it is
for runs by hand and traced runs, not one of the benchmark's workloads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep-stream", "queries-mixed", "padic-imj", "sweep-all")

# Digest of the canonical `sweep all` report for GOLDEN["seed"], recorded
# when the benchmark was added.  Every sweep-all pass at that seed must
# reproduce it byte for byte.
with open(__file__.rsplit("/", 1)[0] + "/golden.json", encoding="utf-8") as _f:
    GOLDEN = json.load(_f)

QUERIES_PER_PASS = 1000
PADIC_PRECISION = 64

# Seconds one pass takes, from spawn to exit, at the commit that added the
# benchmark on a 2-vCPU shared VM.  A run of --seconds S makes
# round(S / PASS_SECONDS) passes, at least MIN_PASSES: the repetition count
# depends on S alone, never on how fast the code under test is, so that a
# faster commit does not also get more chances at a low minimum.
PASS_SECONDS = {"sweep-stream": 2.5, "queries-mixed": 3.0, "padic-imj": 2.5, "sweep-all": 12.0}
MIN_PASSES = 3


def passes_per_run(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))

# Shares of the query stream, in percent.
_QUERY_MIX = (
    ("reciprocity", 25),
    ("tame", 12),
    ("norm-product", 12),
    ("hilbert", 10),
    ("zolotarev", 10),
    ("padic", 18),
    ("imj-order", 8),
    ("malformed", 5),
)

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.4e12 (bases 2..13), independent of jshadow."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:6]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if _is_prime(n):
            return n


def _structured_int(rng: random.Random) -> tuple[int, dict[int, int]]:
    """A positive integer below 10**12 with its factorisation, built from
    known primes: a semiprime with 10**5-size factors, a smooth number, a
    large prime, or a smooth number times a 10**5-size prime."""
    kind = rng.choice(("semiprime", "smooth", "prime", "mixed"))
    factors: dict[int, int] = {}
    if kind == "semiprime":
        for q in (_random_prime(rng, 10**5, 10**6), _random_prime(rng, 10**5, 10**6)):
            factors[q] = factors.get(q, 0) + 1
    elif kind == "prime":
        factors[_random_prime(rng, 10**11, 10**12)] = 1
    else:
        limit = 10**6 if kind == "mixed" else 10**12
        n = 1
        while True:
            q = rng.choice(_SMALL_PRIMES)
            if n * q > limit:
                break
            n *= q
            factors[q] = factors.get(q, 0) + 1
        if kind == "mixed":
            q = _random_prime(rng, 10**5, 10**6)
            factors[q] = factors.get(q, 0) + 1
    n = 1
    for q, e in factors.items():
        n *= q**e
    return n, factors


def _structured_rational(rng: random.Random) -> tuple[Fraction, set[int]]:
    """A nonzero rational with numerator and denominator below 10**12, and
    the set of primes dividing its reduced numerator or denominator."""
    num, fn = _structured_int(rng)
    den, fd = _structured_int(rng) if rng.random() < 0.5 else (1, {})
    net = {q: fn.get(q, 0) - fd.get(q, 0) for q in set(fn) | set(fd)}
    sign = rng.choice((-1, 1))
    return Fraction(sign * num, den), {q for q, e in net.items() if e}


def _small_rational(rng: random.Random, bound: int) -> Fraction:
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x:
            return x


def _query(kind: str, argv: list[str], expect_exit: int = 0, **expect) -> dict:
    return {"kind": kind, "argv": ["--json", *argv], "expect_exit": expect_exit, "expect": expect}


def _gen_query(rng: random.Random, kind: str) -> dict:
    if kind == "reciprocity":
        (a, pa), (b, pb) = _structured_rational(rng), _structured_rational(rng)
        odd = sorted((pa | pb) - {2})
        places = ["2", *map(str, odd), "inf"]
        return _query(kind, ["reciprocity", f"--a={a}", f"--b={b}"], places=places)
    if kind == "tame":
        p = rng.choice(_SMALL_PRIMES[:60])
        (a, _), (b, _) = _structured_rational(rng), _structured_rational(rng)
        a *= Fraction(p) ** rng.randint(-2, 2)
        b *= Fraction(p) ** rng.randint(-2, 2)
        return _query(kind, ["tame", f"--a={a}", f"--b={b}", f"--p={p}"])
    if kind == "norm-product":
        x, _ = _structured_rational(rng)
        return _query(kind, ["norm-product", f"--x={x}"])
    if kind == "hilbert":
        p = rng.choice([p for p in _SMALL_PRIMES if p <= 97])
        a, b = _small_rational(rng, 200), _small_rational(rng, 200)
        return _query(kind, ["hilbert", f"--a={a}", f"--b={b}", f"--place={p}", "--oracle"])
    if kind == "zolotarev":
        p = _random_prime(rng, 3, 5000)
        a = rng.randrange(1, p) + p * rng.randint(-3, 3)
        euler = pow(a, (p - 1) // 2, p)
        return _query(kind, ["zolotarev", f"--a={a}", f"--p={p}"], sign=1 if euler == 1 else -1)
    if kind == "padic":
        return _gen_padic(rng)
    if kind == "imj-order":
        k = rng.randint(1, 40)
        return _query(kind, ["imj-order", f"--k={k}"], k=k)
    return _gen_malformed(rng)


def _gen_padic(rng: random.Random) -> dict:
    op = rng.choice(("add", "sub", "mul", "div", "inv", "pow", "log", "teichmuller"))
    # The logarithm and Teichmuller lifts are defined at odd primes only.
    p = rng.choice(_SMALL_PRIMES[1:15] if op in ("log", "teichmuller") else _SMALL_PRIMES[:15])
    argv = ["padic", f"--p={p}", f"--op={op}", f"--precision={PADIC_PRECISION}"]
    expect: dict = {"p": p, "op": op}
    if op == "teichmuller":
        expect["residue"] = rng.randrange(1, p) + p * rng.randint(0, 100)
        argv.append(f"--residue={expect['residue']}")
        return _query("padic", argv, **expect)
    if op == "log":
        while True:
            x = Fraction(1 + p * rng.randint(-10**6, 10**6), 1 + p * rng.randint(0, 10**6))
            if x.numerator % p and x.denominator % p:
                break
    else:
        x = _small_rational(rng, 10**6)
    expect["x"] = str(x)
    argv.append(f"--x={x}")
    if op == "pow":
        expect["exponent"] = rng.randint(-30, 30)
        argv.append(f"--exponent={expect['exponent']}")
    elif op in _PADIC_OPS:
        expect["y"] = str(_small_rational(rng, 10**6))
        argv.append(f"--y={expect['y']}")
    return _query("padic", argv, **expect)


def _gen_malformed(rng: random.Random) -> dict:
    p = _random_prime(rng, 3, 1000)
    q = _random_prime(rng, 3, 1000)
    n = rng.randint(1, 10**6)
    argv = rng.choice(
        (
            ["reciprocity", f"--a={n}/0", f"--b={q}"],
            ["reciprocity", f"--a=x{n}", f"--b={q}"],
            ["hilbert", f"--a={n}", f"--b={q}", f"--place={p * q}"],
            ["zolotarev", f"--a={p * n}", f"--p={p}"],
            ["tame", "--a=0", f"--b={n}", f"--p={p}"],
            ["padic", f"--p={p}", "--op=log", f"--x={p * n + 2}"],
            ["norm-product", f"--x={n}/{q}/{p}"],
            ["imj-order"],
            [f"frobnicate-{n}"],
        )
    )
    return _query("malformed", argv, expect_exit=2)


def _sweep_stream_calls(rng: random.Random) -> list[dict]:
    # The sweeps of `sweep all`, in about its proportions (reciprocity
    # well over half, the brute-force oracles and low-degree-j most of the
    # rest), cut into 103 calls of at most about 25 ms at small grids: small
    # integers recur across calls, as they do in the default grids.  Two
    # calls, zolotarev up to p = 190 and 200, are over twice as long as any
    # other, so that query_p99_ms, the second slowest of 103, is always one
    # of them.  The workload seed draws each seeded sweep's own seed.
    def seed() -> int:
        return rng.randrange(2**31)

    return [
        *(
            {"sweep": "reciprocity", "kwargs": {"bound": bound, "rational_samples": 200, "seed": seed()}}
            for bound in (6, 7, 8, 9, 10, 11, 12)
            for _ in range(7)
        ),
        *(
            {"sweep": "oracle-agreement", "kwargs": {"prime_max": p, "coeff_bound": c, "rational_samples": 100, "seed": seed()}}
            for p, c in ((13, 4), (29, 3), (47, 3), (97, 2))
            for _ in range(6)
        ),
        *({"sweep": "zolotarev", "kwargs": {"p_max": p}} for p in (100, 110, 120, 130, 190, 200)),
        *(
            {"sweep": "low-degree-j", "kwargs": {"inversion_samples": 15, "tame_samples": 150, "seed": seed()}}
            for _ in range(16)
        ),
        {"sweep": "imj-consistency", "kwargs": {}},
        {"sweep": "bernoulli", "kwargs": {}},
        {"sweep": "rezk-log", "kwargs": {}},
        {"sweep": "surjectivity", "kwargs": {"k_max": 20}},
        {"sweep": "norm-identity", "kwargs": {"d_max": 3}},
        {"sweep": "quillen", "kwargs": {}},
        {"sweep": "pi2-nontriviality", "kwargs": {}},
        {"sweep": "geometric-series", "kwargs": {}},
    ]


def _padic_imj_calls(rng: random.Random) -> list[dict]:
    # Statements 4-8 at grids and precisions beyond the defaults, cut into
    # 63 calls of at most about 100 ms: the shorter the call, the likelier
    # its fastest repetition falls in a quiet moment of the machine.  The
    # seed moves each precision within about 3%.  The order is fixed,
    # because later calls reuse the Bernoulli numbers that earlier ones
    # computed: imj-consistency runs the recurrence cold up to B_240, and
    # bernoulli extends it to B_700.
    def prec(base: int) -> int:
        return base + rng.randrange(base // 32)

    return [
        *(
            {"sweep": "rezk-log", "kwargs": {"ells": [ell], "precision": prec(base)}}
            for ell, base in ((5, 256), (5, 320), (7, 256), (7, 320), (11, 256), (11, 320), (13, 256))
        ),
        *(
            {"sweep": "norm-identity", "kwargs": {"ell_max": 31, "d_max": 3, "m_max": 8, "precision": prec(base)}}
            for base in range(256, 513, 32)
        ),
        *({"sweep": "imj-consistency", "kwargs": {"ell_max": 97, "k_max": k}} for k in range(20, 121, 20)),
        *({"sweep": "bernoulli", "kwargs": {"n_max": n}} for n in range(360, 701, 10)),
        *(
            {"sweep": "surjectivity", "kwargs": {"ell_max": ell, "p_max": p, "k_max": k}}
            for ell, p, k in ((61, 139, 5), (97, 199, 3), (139, 97, 4), (43, 251, 6), (199, 61, 5), (31, 331, 8))
        ),
    ]


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload pass, as JSON-serialisable data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-all":
        return {"argv": ["--json", "sweep", "all", f"--seed={seed}"]}
    if workload == "queries-mixed":
        # Exact shares in a seeded order, so seeds differ in their inputs, not their mix.
        kinds = [k for k, share in _QUERY_MIX for _ in range(share * QUERIES_PER_PASS // 100)]
        rng.shuffle(kinds)
        return {"queries": [_gen_query(rng, kind) for kind in kinds]}
    if workload == "sweep-stream":
        return {"calls": _sweep_stream_calls(rng)}
    if workload == "padic-imj":
        return {"calls": _padic_imj_calls(rng)}
    raise ValueError(f"unknown workload {workload!r}")


def inputs_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


# -- one pass -------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass did: per-operation latencies, and the outcome of the
    output checks, which run after the timed work."""

    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    checks: int = 0  # verified checks, as the reports count them
    attempted: int = 0
    failed: int = 0
    report_bytes: int = 0
    digest: str = ""  # sha256 of every output of the pass, in order
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)


def _cli_call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.run(list(argv))
        t1 = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), t1 - t0


def run_pass(workload: str, inputs: dict, seed: int) -> PassResult:
    """Run one timed pass of the workload, then check every output."""
    from jshadow import cli, sweeps

    result = PassResult()
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    if "calls" in inputs:
        outputs = []
        for call in inputs["calls"]:
            c0 = time.perf_counter()
            sweep = sweeps.SWEEPS[call["sweep"]](**call["kwargs"])
            result.latencies_s.append(time.perf_counter() - c0)
            outputs.append(sweep)
        result.wall_s = time.perf_counter() - t0
        for call, sweep in zip(inputs["calls"], outputs):
            _check_sweep(result, call, sweep, digest)
    else:
        argvs = [inputs["argv"]] if workload == "sweep-all" else [q["argv"] for q in inputs["queries"]]
        outputs = []
        for argv in argvs:
            code, out, err, dt = _cli_call(cli, argv)
            result.latencies_s.append(dt)
            outputs.append((code, out, err))
        result.wall_s = time.perf_counter() - t0
        for code, out, _ in outputs:
            result.report_bytes += len(out.encode())
            digest.update(out.encode())
        if workload == "sweep-all":
            _check_sweep_all(result, outputs[0], seed)
        else:
            for query, output in zip(inputs["queries"], outputs):
                result.attempted += 1
                result.checks += 1
                problem = check_query(query, *output)
                if problem:
                    result.fail(f"{' '.join(query['argv'])}: {problem}")
    result.digest = digest.hexdigest()
    return result


def _check_sweep_all(result: PassResult, output: tuple[int, str, str], seed: int) -> None:
    code, out, err = output
    try:
        report = json.loads(out)
        summary = report["rows"][-1]
        checked, failures = summary["checked"], summary["failures"]
    except (ValueError, KeyError, IndexError, TypeError):
        result.attempted += 1
        result.fail(f"unreadable report (exit {code}): {err.strip()[:200]}")
        return
    result.checks += checked
    result.attempted += checked + 1
    result.failed += failures
    if code != 0 or err or report["verdict"] != "pass":
        result.fail(f"exit {code}, verdict {report['verdict']}, stderr {err.strip()[:200]!r}")
    elif seed == GOLDEN["seed"] and hashlib.sha256(out.encode()).hexdigest() != GOLDEN["sha256"]:
        result.fail("report differs from the golden digest")


def _check_sweep(result: PassResult, call: dict, sweep, digest) -> None:
    record = {
        "name": sweep.name,
        "params": sweep.params,
        "rows": sweep.rows,
        "checked": sweep.checked,
        "failures": sweep.failures,
    }
    digest.update(json.dumps(record, sort_keys=True, default=str).encode())
    result.checks += sweep.checked
    result.attempted += sweep.checked + 1
    result.failed += sweep.failures
    if sweep.verdict != "pass" or sweep.checked < 1:
        result.fail(f"{call['sweep']}: verdict {sweep.verdict}, {sweep.checked} checks")


# -- independent checks of single queries ---------------------------------


def _vp(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    v, n, d = 0, abs(x.numerator), x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


_PADIC_VALUE = re.compile(r"^(?:(\d+)\^(-?\d+) \* )?(\d+) \+ O\((\d+)\^(-?\d+)\)$")
_PADIC_ZERO = re.compile(r"^O\((\d+)\^(-?\d+)\)$")
_PADIC_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def _check_padic(expect: dict, value: str) -> str | None:
    p, op = expect["p"], expect["op"]
    if op in ("teichmuller", "log"):
        exact = None
    elif op == "inv":
        exact = 1 / Fraction(expect["x"])
    elif op == "pow":
        exact = Fraction(expect["x"]) ** expect["exponent"]
    else:
        exact = _PADIC_OPS[op](Fraction(expect["x"]), Fraction(expect["y"]))
    zero = _PADIC_ZERO.match(value)
    if zero:
        bound = int(zero.group(2))
        if exact is not None and (exact == 0 or _vp(exact, p) >= bound):
            return None
        return f"unexpected flagged zero {value}"
    m = _PADIC_VALUE.match(value)
    if not m:
        return f"unreadable p-adic value {value!r}"
    v = int(m.group(2) or 0)
    unit, abs_prec = int(m.group(3)), int(m.group(5))
    if unit % p == 0:
        return f"unit part {unit} divisible by {p}"
    if op == "teichmuller":
        modulus = p**abs_prec
        ok = v == 0 and (unit - expect["residue"]) % p == 0 and pow(unit, p, modulus) == unit % modulus
        return None if ok else f"{value} is not the Teichmuller lift of {expect['residue']}"
    if op == "log":
        return None if v >= 1 else f"log value {value} not in pZ_p"
    got = Fraction(unit) * Fraction(p) ** v
    if exact == 0 or _vp(exact, p) != v or (exact != got and _vp(exact - got, p) < abs_prec):
        return f"{value} does not approximate {exact}"
    return None


def _imj_order(k: int) -> int:
    """den(B_2k / 4k) by Adams' closed form: 2**(2 + v_2(2k)) times
    p**(1 + v_p(2k)) for each odd prime p with (p - 1) | 2k."""
    n = 2 * k
    order = 2 ** (2 + _vp(Fraction(n), 2))
    for p in _SMALL_PRIMES[1:]:
        if p - 1 > n:
            break
        if n % (p - 1) == 0:
            order *= p ** (1 + _vp(Fraction(n), p))
    return order


def check_query(query: dict, code: int, out: str, err: str) -> str | None:
    """None if the query's exit code and report are what its generator
    expects, else a description of the first difference."""
    if code != query["expect_exit"]:
        return f"exit {code}, expected {query['expect_exit']}; stderr {err.strip()[:200]!r}"
    if query["expect_exit"] != 0:
        return None if err and not out else f"usage error with stdout {out[:80]!r} / stderr {err!r}"
    if err:
        return f"stray stderr {err.strip()[:200]!r}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not a JSON report"
    kind, expect, row = query["kind"], query["expect"], report["rows"][0]
    if report["verdict"] not in ("pass", "n/a"):
        return f"verdict {report['verdict']}"
    if kind in ("reciprocity", "norm-product", "hilbert", "zolotarev") and report["verdict"] != "pass":
        return f"verdict {report['verdict']}, expected pass"
    if kind == "reciprocity":
        places = [r["place"] for r in report["rows"] if "place" in r]
        if places != expect["places"]:
            return f"places {places}, expected {expect['places']}"
    elif kind == "norm-product":
        if row["product"] != "1":
            return f"norm product {row['product']}"
    elif kind == "zolotarev":
        if row["permutation_sign"] != expect["sign"]:
            return f"sign {row['permutation_sign']}, Euler's criterion gives {expect['sign']}"
    elif kind == "tame":
        if (report["verdict"] == "pass") != (report["inputs"]["p"] != 2):
            return f"verdict {report['verdict']} at p = {report['inputs']['p']}"
    elif kind == "imj-order":
        order = _imj_order(expect["k"])
        if row["order"] != order:
            return f"order {row['order']}, expected {order}"
    elif kind == "padic":
        return _check_padic(expect, row["value"])
    return None
