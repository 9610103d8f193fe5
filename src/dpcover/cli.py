"""Command-line front end.

Exit codes: 0 success or colorable, 1 not colorable or obstructed, 2 invalid
input, 3 guard exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .cover import DPInstance, _pieces, build_cover, require_valid, validate
from .errors import DPCoverError, GuardExceeded
from .gen import BadBlockSpec, bad_instance_cnt, bad_instance_knt, glue_bad, random_matching
from .obstruction import Decision, ObstructionCertificate, decide
from .serialize import (
    _expect,
    _int,
    _require,
    certificate_to_json,
    cover_to_dot,
    dumps,
    instance_from_json,
    instance_to_json,
    lists_from_json,
    signed_from_json,
)
from .signed import signed_to_dp, solve_signed
from .solver import SolveResult, solve

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_instance(path: str) -> DPInstance:
    return instance_from_json(_load_json(path))


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_solve(res: SolveResult, as_json: bool) -> int:
    if res.colorable:
        if as_json:
            print(dumps({"outcome": "colorable", "transversal": res.transversal}), end="")
        else:
            print(f"COLORABLE {dumps(res.transversal)}", end="")
        return EXIT_OK
    if as_json:
        out: dict = {"outcome": "not_colorable"}
        if res.witness_vertex is not None:
            out["witness_vertex"] = res.witness_vertex
        print(dumps(out), end="")
    else:
        print("NOT_COLORABLE")
    return EXIT_NEGATIVE


def _cert_summary(cert: ObstructionCertificate) -> str:
    kinds = ", ".join(f"{bc.kind.shape}({bc.kind.n},{bc.kind.t})" for bc in cert.blocks)
    return f"{len(cert.blocks)} block(s): {kinds}"


def _cmd_validate(args) -> int:
    inst = _load_instance(args.file)
    violations = validate(inst)
    if args.json:
        print(dumps({"violations": [v.message for v in violations]}), end="")
    else:
        for v in violations:
            print(v.message)
        if not violations:
            print("VALID")
    return EXIT_OK if not violations else EXIT_INVALID


def _cmd_solve(args) -> int:
    return _print_solve(solve(_load_instance(args.file), max_nodes=args.max_nodes), args.json)


def _cmd_decide(args) -> int:
    inst = _load_instance(args.file)
    # The pieces drop pairs between components, so check the whole file first.
    require_valid(inst)
    pieces = _pieces(inst)
    merged: dict[str, int] = {}
    for piece in pieces:
        decision: Decision = decide(piece)
        if decision.obstructed:
            # Serialized only for a file or a JSON line; the text line needs the summary alone.
            cert_json = certificate_to_json(decision.certificate) if args.certificate or args.json else None
            if args.certificate:
                _emit(dumps(cert_json), args.certificate)
            if args.json:
                out = {"outcome": "obstructed", "certificate": cert_json}
                if len(pieces) > 1:
                    out["component"] = list(piece.graph.vertices)
                print(dumps(out), end="")
            else:
                where = f" in component {','.join(piece.graph.vertices)}" if len(pieces) > 1 else ""
                print(f"OBSTRUCTED{where}; {_cert_summary(decision.certificate)}")
            return EXIT_NEGATIVE
        merged.update(decision.transversal)
    return _print_solve(SolveResult(merged), args.json)


def _cmd_signed(args) -> int:
    if args.k is None and args.lists is None:
        print("usage error: signed needs --k or --lists", file=sys.stderr)
        return EXIT_USAGE
    s = signed_from_json(_load_json(args.file))
    if args.lists is None:
        return _print_solve(solve_signed(s, args.k, max_nodes=args.max_nodes), args.json)
    lists = lists_from_json(_load_json(args.lists))
    return _print_solve(solve(signed_to_dp(s, lists, k=args.k), max_nodes=args.max_nodes), args.json)


def _cmd_cover(args) -> int:
    cover = build_cover(_load_instance(args.file))
    _emit(cover_to_dot(cover, include_clique_edges=not args.no_cliques), args.dot)
    return EXIT_OK


def _parse_glue_plan(data) -> list[BadBlockSpec]:
    specs = []
    for b in _expect(_expect(data, dict, "glue plan").get("blocks", []), list, '"blocks"'):
        b = _expect(b, dict, "block spec")
        _require(b, "block spec", "kind", "n", "t")
        attach = None
        if "attach" in b:
            at = _expect(b["attach"], dict, '"attach"')
            _require(at, '"attach"', "block", "vertex")
            attach = (_int(at["block"], "attach block"), _int(at["vertex"], "attach vertex"))
        specs.append(BadBlockSpec(b["kind"], _int(b["n"], '"n"'), _int(b["t"], '"t"'), attach))
    return specs


def _cmd_gen(args) -> int:
    if args.what == "knt":
        inst, cert = bad_instance_knt(args.n, args.t)
    elif args.what == "cnt":
        inst, cert = bad_instance_cnt(args.n, args.t)
    elif args.what == "glue":
        inst, cert = glue_bad(_parse_glue_plan(_load_json(args.plan)))
    else:  # random
        base = _load_instance(args.file)
        require_valid(DPInstance(base.graph, base.lists, {}))  # one list per vertex, no other
        matching = random_matching(base.graph, base.lists, args.seed, args.density)
        inst, cert = DPInstance(base.graph, base.lists, matching), None
    _emit(dumps(instance_to_json(inst)), args.out)
    if getattr(args, "certificate", None) and cert is not None:
        _emit(dumps(certificate_to_json(cert)), args.certificate)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dpcover", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="exact coloring search")
    p.add_argument("file")
    p.add_argument("--max-nodes", type=int, metavar="N", help="exit 3 past N search nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="degree-list decision with certificates")
    p.add_argument("file")
    p.add_argument("--certificate", metavar="OUT", help="write the certificate JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("signed", help="signed coloring via the reduction")
    p.add_argument("file")
    p.add_argument("--k", type=int, help="use full N_k lists")
    p.add_argument("--lists", help="JSON file with per-vertex lists")
    p.add_argument("--max-nodes", type=int, metavar="N", help="exit 3 past N search nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_signed)

    p = sub.add_parser("cover", help="export the cover graph as DOT")
    p.add_argument("file")
    p.add_argument("--dot", metavar="OUT", help="write DOT here (default stdout)")
    p.add_argument("--no-cliques", action="store_true", help="suppress clique edges")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("gen", help="generate instances")
    p.set_defaults(func=_cmd_gen)
    gsub = p.add_subparsers(dest="what", required=True)
    out, cert, seeded = (_Parser(add_help=False) for _ in range(3))
    out.add_argument("-o", "--out")
    cert.add_argument("--certificate", metavar="OUT")
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("--density", type=float, default=1.0)
    for what, helptext in (
        ("knt", "non-colorable complete-power block"),
        ("cnt", "non-colorable cycle-power block"),
    ):
        q = gsub.add_parser(what, help=helptext, parents=[out, cert])
        q.add_argument("n", type=int)
        q.add_argument("t", type=int)
    q = gsub.add_parser("glue", help="non-colorable block tree from a plan", parents=[out, cert])
    q.add_argument("plan")
    # --seed and --density come before -o in the usage line.
    q = gsub.add_parser("random", help="seeded random matchings on given lists", parents=[seeded, out])
    q.add_argument("file")

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DPCoverError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))
