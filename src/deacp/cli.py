"""Command-line front end.

Exit codes: 0 = success / equivalent / holds, 1 = inequivalent / fails,
2 = usage errors, analysis limits, and input too deep or too large to analyze.

Each subcommand's handler imports the engines it runs, so a query loads only
what it needs: `lts` and `parse` never load the prover.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import terms as T
from .errors import DeacpError
from .parser import parse_spec, render_spec, render_term

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(payload, as_json: bool, text: str):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _load(args) -> tuple:
    spec = parse_spec(_read_text(args.file), args.data_lo, args.data_hi)
    return spec, spec.context(state_bound=args.state_bound)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(cmd):
    cmd.add_argument("file", help="spec file path, or - for standard input")
    cmd.add_argument("--json", action="store_true", help="machine-readable output")
    cmd.add_argument("--data-lo", type=int, default=None, help="override carrier lower bound")
    cmd.add_argument("--data-hi", type=int, default=None, help="override carrier upper bound")
    cmd.add_argument("--state-bound", type=_positive_int, default=T.DEFAULT_STATE_BOUND,
                     help="exploration bound, at least 1 state")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deacp",
        description="workbench for an imperative process algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("parse", help="parse a spec file and echo its canonical form")
    _add_common(cmd)
    cmd.set_defaults(run=_cmd_parse)

    cmd = sub.add_parser("lts", help="explore a process into a transition system")
    _add_common(cmd)
    cmd.add_argument("--process", required=True)
    cmd.add_argument("--cond", action="store_true",
                     help="condition-labelled semantics instead of map-indexed")
    cmd.set_defaults(run=_cmd_lts)

    cmd = sub.add_parser("bisim", help="decide rooted branching bisimilarity")
    _add_common(cmd)
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)
    cmd.set_defaults(run=partial(_cmd_bisim, conditional=False))

    cmd = sub.add_parser("ab-bisim", help="decide the condition-labelled equivalence")
    _add_common(cmd)
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)
    cmd.set_defaults(run=partial(_cmd_bisim, conditional=True))

    cmd = sub.add_parser("linearize", help="compute a guarded linear specification")
    _add_common(cmd)
    cmd.add_argument("--process", required=True)
    cmd.set_defaults(run=_cmd_linearize)

    cmd = sub.add_parser("cfar", help="fair-abstraction equation for hide(rec ...)")
    _add_common(cmd)
    cmd.add_argument("--process", required=True)
    cmd.set_defaults(run=_cmd_cfar)

    cmd = sub.add_parser("prove", help="equational proof with certificate")
    _add_common(cmd)
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)
    cmd.set_defaults(run=_cmd_prove)

    cmd = sub.add_parser("dnii", help="check data non-interference")
    _add_common(cmd)
    cmd.add_argument("--process", required=True)
    cmd.set_defaults(run=_cmd_dnii)

    cmd = sub.add_parser("conjecture", help="compare the two equivalences on random pairs")
    cmd.add_argument("--pairs", type=_positive_int, default=100)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(run=_cmd_conjecture)
    return ap


def _cmd_parse(args) -> int:
    spec, _ = _load(args)
    if args.json:
        payload = {
            "carrier": [spec.carrier.lo, spec.carrier.hi],
            "vars": list(spec.decl),
            "actions": {n: sorted(a) for n, a in spec.action_arities.items()},
            "maps": {n: m.as_dict() for n, m in spec.maps.items()},
            "procs": {n: render_term(t) for n, t in spec.procs.items()},
        }
        _emit(payload, True, "")
    else:
        print(render_spec(spec), end="")
    return EXIT_OK


def _cmd_lts(args) -> int:
    spec, ctx = _load(args)
    term = spec.process(args.process)
    if args.cond:
        from .sos_cond import build_cond_lts as build
    else:
        from .sos_sigma import build_lts as build
    lts = build(term, ctx)
    if args.json:
        _emit(lts.to_json_dict(), True, "")
    else:
        print(f"states: {len(lts.states)}\n"
              f"transitions: {lts.num_transitions}\n"
              f"root: {lts.root}")
    return EXIT_OK


def _cmd_bisim(args, conditional: bool) -> int:
    from . import bisim as B

    spec, ctx = _load(args)
    left = spec.process(args.left)
    right = spec.process(args.right)
    result = B.decide_rab(left, right, ctx) if conditional else B.decide_rb(left, right, ctx)
    verdict = "equivalent" if result.equivalent else "inequivalent"
    _emit(result.to_json_dict(), args.json, verdict)
    if not args.json and not result.equivalent:
        print(json.dumps(result.counterexample, indent=2, sort_keys=True))
    return EXIT_OK if result.equivalent else EXIT_NEGATIVE


def _cmd_linearize(args) -> int:
    from .linear import linearize

    spec, ctx = _load(args)
    term = spec.process(args.process)
    lin_spec, var = linearize(term, ctx)
    rendered = render_term(T.RecConst(var, lin_spec))
    _emit({"root": var, "spec": rendered}, args.json, rendered)
    return EXIT_OK


def _cmd_cfar(args) -> int:
    from .linear import apply_cfar

    spec, _ = _load(args)
    term = spec.process(args.process)
    if not isinstance(term, T.Abstr) or not isinstance(term.body, T.RecConst):
        raise DeacpError("cfar expects a process of the form hide{...}(rec ...)")
    rhs, step = apply_cfar(term.body.spec, term.body.var, term.patterns)
    payload = step.to_json_dict()
    text = f"{render_term(step.before)}\n= {render_term(rhs)}"
    _emit(payload, args.json, text)
    return EXIT_OK


def _cmd_prove(args) -> int:
    from .linear import prove_equal

    spec, ctx = _load(args)
    result = prove_equal(spec.process(args.left), spec.process(args.right), ctx)
    if result.equal:
        _emit(result.to_json_dict(), args.json, result.certificate.render_text())
        return EXIT_OK
    _emit(result.to_json_dict(), args.json,
          "inequivalent\n" + json.dumps(result.counterexample, indent=2, sort_keys=True))
    return EXIT_NEGATIVE


def _cmd_dnii(args) -> int:
    from . import security as SEC

    spec, ctx = _load(args)
    term = spec.process(args.process)
    low = spec.security_low if spec.security_low is not None else ()
    ext = spec.security_ext if spec.security_ext is not None else ()
    verdict = SEC.check_dnii(SEC.SecuritySpec(term, tuple(low), tuple(ext)), ctx)
    if verdict.holds:
        _emit(verdict.to_json_dict(), args.json,
              f"holds ({verdict.pairs_checked} map pairs checked)")
        return EXIT_OK
    text = (
        "fails\n"
        f"sigma:       {verdict.sigma.as_dict()}\n"
        f"sigma_prime: {verdict.sigma_prime.as_dict()}\n"
        + json.dumps(verdict.counterexample, indent=2, sort_keys=True)
    )
    _emit(verdict.to_json_dict(), args.json, text)
    return EXIT_NEGATIVE


def _cmd_conjecture(args) -> int:
    from . import bisim as B
    from . import gen

    ctx = gen.default_context()
    report = B.conjecture_experiment(ctx, args.pairs, seed=args.seed)
    _emit(report.to_json_dict(), args.json, report.summary())
    return EXIT_OK


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DeacpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large to analyze ({type(exc).__name__})",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
