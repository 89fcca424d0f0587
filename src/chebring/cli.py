"""Command-line frontend.

One subcommand per capability; every subcommand honors
--format table|json|csv (json is line-delimited records, csv carries a
header row).  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import warnings

from . import aks, criteria, crypto, expsum, structure
from .modarith import cheb_eval
from .primes import euler_phi, primes_in


def _emit(args, records: list[dict], table_lines: list[str]) -> None:
    if args.format == "table":
        for line in table_lines:
            print(line)
    elif args.format == "json":
        for rec in records:
            print(json.dumps(rec))
    else:
        if not records:
            return
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(records[0].keys())
        for rec in records:
            writer.writerow(_csv_cell(v) for v in rec.values())
        sys.stdout.write(buf.getvalue())


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return " ".join(str(x) for x in v)
    if isinstance(v, bool):
        return str(v).lower()
    if v is None:
        return ""
    return v


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


# --- subcommand handlers ------------------------------------------------------


def _cmd_eval(args) -> None:
    pair = cheb_eval(args.a, args.n, args.m)
    t, u = pair.as_tuple()
    rec = {"a": args.a, "n": args.n, "m": args.m, "T": t, "U": u}
    _emit(args, [rec], [f"T={t} U={u}"])


def _cmd_characters(args) -> None:
    ch = structure.characters(args.a, args.p)
    rec = {"a": args.a, "p": args.p, "eps": ch.eps, "delta": ch.delta}
    _emit(args, [rec], [f"eps={ch.eps} delta={ch.delta}"])


def _cmd_euler(args) -> None:
    if args.mod_p2:
        passed = criteria.euler_test_modp2(args.a, args.p)
    else:
        passed = criteria.euler_test(args.a, args.p)
    which = "p^2" if args.mod_p2 else "p"
    rec = {"a": args.a, "p": args.p, "modulus": which, "passed": passed}
    _emit(args, [rec], ["pass" if passed else "fail"])


def _cmd_partition(args) -> None:
    table = structure.partition(args.p)
    if args.format == "json":
        print(table.to_json())
        return
    if args.format == "csv":
        recs = [
            {"a": a, "eps": e, "delta": d, "order": o} for a, e, d, o in table.csv_rows()
        ]
        _emit(args, recs, [])
        return
    lines = [f"p={args.p}"]
    for cell in structure.CELLS:
        members = " ".join(str(a) for a in sorted(table.sets[cell]))
        lines.append(f"A{cell}: {members}")
    _emit(args, [], lines)


def _cmd_orders(args) -> None:
    classes = structure.order_class_decomposition(args.p)
    recs = [
        {"p": args.p, "d": d, "size": len(members), "members": list(members)}
        for d, members in classes.items()
    ]
    lines = [f"p={args.p}"] + [
        f"I_{d}: " + " ".join(str(a) for a in members) for d, members in classes.items()
    ]
    _emit(args, recs, lines)


def _cmd_splitting(args) -> None:
    roots = structure.splitting_roots(args.d, args.p)
    splits = len(roots) == euler_phi(args.d) // 2
    rec = {"d": args.d, "p": args.p, "splits": splits, "roots": list(roots)}
    roots_str = " ".join(str(r) for r in roots) if roots else "-"
    _emit(args, [rec], [f"d={args.d} p={args.p} splits={str(splits).lower()} roots: {roots_str}"])


def _cmd_cyclo_check(args) -> None:
    passed = structure.cyclotomic_factorization_check(args.n)
    rec = {"n": args.n, "passed": passed}
    _emit(args, [rec], ["pass" if passed else "fail"])


def _cmd_pseudoprimes(args) -> None:
    found = criteria.pseudoprime_search(args.base, args.limit, args.kind, args.threads)
    recs = [
        {"n": v.n, "base": v.base, "kind": v.kind, "passed": v.passed, "profile": list(v.profile)}
        for v in found
    ]
    if args.kind == "strong":
        lines = [f"{v.n}: " + " ".join(str(x) for x in v.profile) for v in found]
    else:
        lines = [str(v.n) for v in found]
    _emit(args, recs, lines or ["-"])


def _cmd_wieferich(args) -> None:
    hits = criteria.wieferich_search(args.base, args.limit, args.threads)
    recs = [{"p": h.p, "base": h.base} for h in hits]
    _emit(args, recs, [str(h.p) for h in hits] or ["-"])


def _cmd_lucas_lehmer(args) -> None:
    result = criteria.lucas_lehmer(args.p)
    mersenne = (1 << args.p) - 1
    rec = {"p": args.p, "mersenne": mersenne, "prime": result}
    _emit(args, [rec], [f"M_{args.p} = {mersenne}: " + ("prime" if result else "composite")])


def _cmd_taxicab(args) -> None:
    n = criteria.taxicab_search(args.limit)
    rec = {"limit": args.limit, "n": n}
    _emit(args, [rec], [str(n) if n is not None else "none"])


def _cmd_expsum(args) -> None:
    report = expsum.partition_sums(args.p)
    rec = {
        "p": report.p,
        "g": {cell: [report.g[cell].real, report.g[cell].imag] for cell in structure.CELLS},
        "S": [report.S.real, report.S.imag],
        "bound": report.bound,
        "max_ratio": report.max_ratio,
    }
    lines = [f"p={report.p} bound={report.bound:.6f} max_ratio={report.max_ratio:.6f}"]
    for cell in structure.CELLS:
        z = report.g[cell]
        lines.append(f"g{cell} = {_fmt_complex(z)} |g|={abs(z):.6f}")
    lines.append(f"S = {_fmt_complex(report.S)} |S|={abs(report.S):.6f}")
    if args.format == "csv":
        _emit(args, [_sweep_record(report)], [])
    else:
        _emit(args, [rec], lines)


def _sweep_record(report) -> dict:
    rec = {"p": report.p}
    for cell in structure.CELLS:
        rec[f"|g{cell}|"] = f"{abs(report.g[cell]):.6f}"
    rec["|S|"] = f"{abs(report.S):.6f}"
    rec["bound"] = f"{report.bound:.6f}"
    rec["max_ratio"] = f"{report.max_ratio:.6f}"
    return rec


def _cmd_expsum_sweep(args) -> None:
    structure._check_table_cap(args.max_p, "prime limit")
    recs, lines = [], []
    for p in primes_in(5, args.max_p + 1):
        report = expsum.partition_sums(p)
        rec = _sweep_record(report)
        recs.append(rec)
        lines.append(" ".join(f"{k}={v}" for k, v in rec.items()))
    _emit(args, recs, lines)


def _cmd_primroot(args) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = crypto.primitive_root_search(args.a, args.limit)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    rec = {
        "a": report.a,
        "least_p_minus": report.least_p_minus,
        "least_p_plus": report.least_p_plus,
    }
    minus = report.least_p_minus if report.least_p_minus is not None else "-"
    plus = report.least_p_plus if report.least_p_plus is not None else "-"
    _emit(args, [rec], [f"a={report.a} real={minus} unreal={plus}"])


def _cmd_dh_demo(args) -> None:
    rng = random.Random(args.seed)
    secret_a = args.secret_a if args.secret_a is not None else rng.randrange(2, args.p * args.p)
    secret_b = args.secret_b if args.secret_b is not None else rng.randrange(2, args.p * args.p)
    alice = crypto.dh_keygen(args.p, args.g, secret_a)
    bob = crypto.dh_keygen(args.p, args.g, secret_b)
    alice = crypto.dh_finish(alice, bob.sent)
    bob = crypto.dh_finish(bob, alice.sent)
    ok = alice.shared == bob.shared
    wire_a = crypto.encode_fields(args.p, args.g, alice.sent).decode()
    wire_b = crypto.encode_fields(args.p, args.g, bob.sent).decode()
    rec = {
        "p": args.p,
        "g": args.g,
        "secret_a": secret_a,
        "secret_b": secret_b,
        "sent_a": alice.sent,
        "sent_b": bob.sent,
        "shared": alice.shared,
        "ok": ok,
    }
    lines = [
        f"p={args.p} g={args.g}",
        f"A: secret={secret_a} sent={alice.sent} wire={wire_a}",
        f"B: secret={secret_b} sent={bob.sent} wire={wire_b}",
        f"A shared={alice.shared}",
        f"B shared={bob.shared}",
        f"ok={str(ok).lower()}",
    ]
    _emit(args, [rec], lines)
    if not ok:
        raise ArithmeticError("shared keys disagree")


def _cmd_dlog(args) -> None:
    n = crypto.discrete_log_bruteforce(args.p, args.g, args.target)
    rec = {"p": args.p, "g": args.g, "target": args.target, "n": n}
    _emit(args, [rec], [f"n={n}" if n is not None else "none"])


def _cmd_aks_check(args) -> None:
    if args.shift is None:
        passed = aks.prime_iff_power_check(args.n)
        rec = {"n": args.n, "shift": None, "passed": passed}
    else:
        passed = aks.shifted_congruence_check(args.n, args.shift)
        rec = {"n": args.n, "shift": args.shift, "passed": passed}
    _emit(args, [rec], [f"n={args.n}: " + ("pass" if passed else "fail")])


def _cmd_coeff(args) -> None:
    value = aks.coefficient_formula(args.n, args.k)
    rec = {"n": args.n, "k": args.k, "coefficient": value}
    _emit(args, [rec], [str(value)])


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    # the searches split their range across processes; --threads caps the count
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--threads", type=int, default=None)

    parser = argparse.ArgumentParser(prog="chebring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="T_n and U_{n-1} at a point mod m")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("characters", parents=[common], help="the pair (eps, delta)")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("euler", parents=[common], help="Euler-criterion congruence test")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--mod-p2", action="store_true", dest="mod_p2")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("partition", parents=[common], help="the four cells of R_p")
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("orders", parents=[common], help="order classes I_d")
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("splitting", parents=[common], help="roots of the real cyclotomic mod p")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_splitting)

    p = sub.add_parser("cyclo-check", parents=[common], help="T_n - 1 factorization over Z")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_cyclo_check)

    p = sub.add_parser("pseudoprimes", parents=[common, pooled], help="composites passing a test")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--kind", choices=criteria.PSEUDOPRIME_KINDS, default="full")
    p.set_defaults(func=_cmd_pseudoprimes)

    p = sub.add_parser("wieferich", parents=[common, pooled], help="mod-p^2 exceptional primes")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_wieferich)

    p = sub.add_parser("lucas-lehmer", parents=[common], help="Mersenne primality")
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_lucas_lehmer)

    p = sub.add_parser("taxicab", parents=[common], help="least simultaneous pseudoprime")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_taxicab)

    p = sub.add_parser("expsum", parents=[common], help="cell exponential sums at one prime")
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=_cmd_expsum)

    p = sub.add_parser("expsum-sweep", parents=[common], help="cell sums for all primes to a bound")
    p.add_argument("--max", type=int, required=True, dest="max_p")
    p.set_defaults(func=_cmd_expsum_sweep)

    p = sub.add_parser("primroot", parents=[common], help="least primes with full order")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_primroot)

    p = sub.add_parser("dh-demo", parents=[common], help="in-process key exchange transcript")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-g", type=int, required=True)
    p.add_argument("--secret-a", type=int, default=None, dest="secret_a")
    p.add_argument("--secret-b", type=int, default=None, dest="secret_b")
    p.set_defaults(func=_cmd_dh_demo)

    p = sub.add_parser("dlog", parents=[common], help="brute-force discrete log")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-t", type=int, required=True, dest="target")
    p.set_defaults(func=_cmd_dlog)

    p = sub.add_parser("aks-check", parents=[common], help="polynomial congruence primality")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--shift", type=int, default=None)
    p.set_defaults(func=_cmd_aks_check)

    p = sub.add_parser("coeff", parents=[common], help="exact Chebyshev coefficient")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_coeff)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, crypto.ProtocolError, aks.ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
