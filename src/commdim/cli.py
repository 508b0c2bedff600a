"""Command-line interface: construction, certification, search and bounds.

Every subcommand prints a single JSON document on stdout (stderr is for
logs), exits 0 on success, 1 on domain errors with a one-line
{"error": ...}, and 2 on budget aborts.  All randomness flows from an
explicit --seed, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import KIND_ASSOC, KIND_LIE, StructureConstantAlgebra, verify_axioms
from .bounds import (
    CLASSICAL_MIN_RANK,
    FIELD_CLASSES,
    MAX_SIMPLE_RANK,
    bound_table,
    exceptional_entries,
    simple_lie_data,
)
from .construct import (
    CONSTRUCTIONS,
    build_assoc_from_forms,
    build_lie_from_forms,
    extremal_params,
    matrix_commutative_subalgebra,
    unitalize,
)
from .errors import CertificationFailed, EnumerationTooLarge
from .forms import DEFAULT_MAX_ATTEMPTS, FORM_KINDS, MODE_ISOTROPIC, MODES
from .forms import FormTuple, GenericityCertificate, certify_no_isotropic, reverify_certificate
from .gf import DEFAULT_SEARCH_BUDGET, PrimeField
from .search import (
    class2_exact_result,
    greedy_abelian_class2,
    max_abelian_exact,
)



def _emit(doc, out_path: str | None = None) -> None:
    # doc is an algebra's json_text, or a tree built by a to_json
    text = doc if isinstance(doc, str) else json.dumps(doc)
    # the file first, so that a reader closing stdout early cannot cut it short
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)


def _load_json(path: str, read=json.loads):
    """read(the file's text), json.loads by default; the --alg readers pass
    from_json, which reads the writer's layout without parsing it.  A parse
    nested too deeply, by either, becomes a ValueError naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return read(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


class _Parser(argparse.ArgumentParser):
    # usage errors should also be machine readable on stdout
    def error(self, message):
        print(json.dumps({"error": message}))
        raise SystemExit(1)


@functools.cache  # built on the first main() call, then reused; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="commdim")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="parameter picker for a target abelian bound")
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("certify", help="sample-and-certify a form tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    p.add_argument("--kind", choices=FORM_KINDS, default="alternating")
    p.add_argument("--mode", choices=MODES, default=MODE_ISOTROPIC)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET, help="search nodes per sampled tuple")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("construct", help="build an algebra from a certificate or form tuple")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--kind", choices=(KIND_LIE, KIND_ASSOC), required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("search", help="maximal abelian subalgebra dimension")
    p.add_argument("--alg", required=True)
    p.add_argument("--mode", choices=("exact", "class2", "greedy"), required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET, help="search nodes (exact, class2)")

    p = sub.add_parser("bounds", help="closed-form bound report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=FIELD_CLASSES, required=True)
    p.add_argument("--c", default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("simple-table", help="simple-algebra dimension table")
    p.add_argument("--type", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--max-rank", type=int, default=8)

    p = sub.add_parser("matrix-comm", help="matrix algebra with a commutative subalgebra")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--construction", choices=CONSTRUCTIONS, required=True)

    p = sub.add_parser("unitalize", help="adjoin a two-sided identity")
    p.add_argument("--alg", required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("verify", help="check the algebra axioms")
    p.add_argument("--alg", required=True)

    p = sub.add_parser("reverify", help="replay a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET, help="search nodes")

    return ap


def _run(args) -> int:
    cmd = args.command
    if cmd == "params":
        _emit(extremal_params(args.s).to_json())
        return 0

    if cmd == "certify":
        if args.seed is None:
            raise ValueError("certify requires an explicit --seed")
        cert = certify_no_isotropic(
            args.n, args.t, args.k, PrimeField(args.p), seed=args.seed, max_attempts=args.max_attempts,
            kind=args.kind, mode=args.mode, budget=args.budget,
        )
        _emit(cert.to_json(), args.output)
        return 0

    if cmd == "construct":
        forms = FormTuple.from_json(_load_json(args.source))
        alg = build_lie_from_forms(forms) if args.kind == KIND_LIE else build_assoc_from_forms(forms)
        _emit(alg.json_text(), args.output)
        return 0

    if cmd == "search":
        alg = _load_json(args.alg, StructureConstantAlgebra.from_json)
        if args.mode == "exact":
            res = max_abelian_exact(alg, budget=args.budget)
            _emit(res.to_json())
            return 0 if res.exact else 2
        if args.mode == "class2":
            res = class2_exact_result(alg, budget=args.budget)
        else:
            res = greedy_abelian_class2(alg)
        _emit(res.to_json())
        return 0

    if cmd == "bounds":
        report = bound_table(args.n, args.field, c=args.c)
        if args.format == "table":
            print(report.table(), flush=True)
        else:
            _emit(report.to_json())
        return 0

    if cmd == "simple-table":
        if args.type is not None:
            entries = [simple_lie_data(args.type, args.rank)]
        else:
            if args.max_rank > MAX_SIMPLE_RANK:
                raise ValueError(f"--max-rank capped at {MAX_SIMPLE_RANK}, got {args.max_rank}")
            entries = exceptional_entries()
            for typ, lo in CLASSICAL_MIN_RANK.items():
                for rank in range(lo, args.max_rank + 1):
                    entries.append(simple_lie_data(typ, rank))
        _emit([e.to_json() for e in entries])
        return 0

    if cmd == "matrix-comm":
        ambient, sub = matrix_commutative_subalgebra(args.r, PrimeField(args.p), args.construction)
        _emit(f'{{"ambient": {ambient.json_text()}, "sub": {json.dumps(sub.to_json())}, "sub_dim": {sub.dim}}}')
        return 0

    if cmd == "unitalize":
        alg = _load_json(args.alg, StructureConstantAlgebra.from_json)
        _emit(unitalize(alg).json_text(), args.output)
        return 0

    if cmd == "verify":
        alg = _load_json(args.alg, StructureConstantAlgebra.from_json)
        report = verify_axioms(alg)
        _emit(report.to_json())
        return 0 if report.passed else 1

    if cmd == "reverify":
        cert = GenericityCertificate.from_json(_load_json(args.cert))
        ok = reverify_certificate(cert, budget=args.budget)
        _emit({"reverified": ok})
        return 0 if ok else 1

    raise ValueError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # raised by argparse for usage errors and --help
        return int(exc.code or 0)
    try:
        return _run(args)
    except BrokenPipeError:
        # stdout was closed early (say by `| head`); the flush at exit would
        # fail on it again, so it goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except EnumerationTooLarge as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except (ValueError, KeyError, OSError, CertificationFailed, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
