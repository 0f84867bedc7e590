"""Command-line front door.

Every subcommand loads inputs, runs checks, and prints a report whose rows
follow one schema: {check, instance, pass, witness?}.  Exit codes: 0 all
requested checks pass, 1 a check failed, 2 usage or IO problem (one line on
stderr), 3 a search budget was exceeded, 130 interrupted (SIGINT, with one
``interrupted`` line on stderr and no report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import groupoid as gp
from . import modalg, oracle, serialize, site, topos, verify
from .core import (
    StarError,
    classify,
    natural_order,
    same_tables,
    FLAG_NAMES,
)
from .modalg import CarrierTooLarge
from .oracle import BudgetExceeded, UnknownFamily
from .serialize import InputError
from .topos import BudgetInvalid, SearchBudgetExceeded


class Report:
    def __init__(self):
        self.rows = []

    def add(self, check, instance, ok, witness=None):
        self.rows.append(verify.VerifyRow(check, instance, bool(ok), witness))

    @property
    def ok(self):
        return all(r.ok for r in self.rows)

    def emit(self, fmt):
        rows = [r.as_dict() for r in self.rows]
        try:
            if fmt == "json":
                print(_json_rows(rows))
            else:
                for r in rows:
                    status = "PASS" if r["pass"] else "FAIL"
                    extra = f"  witness={r['witness']}" if "witness" in r else ""
                    print(f"{status}  {r['check']}  [{r['instance']}]{extra}")
            # a failed write surfaces here, not in the interpreter's flush at exit
            sys.stdout.flush()
        except OSError:
            # what stays buffered must not fail again in that flush (Python's
            # signal docs, "Note on SIGPIPE")
            if sys.stdout is sys.__stdout__:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _json_value(value):
    # json.dumps of a string or a bool, without the encoder's set-up
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _json_rows(rows):
    """``json.dumps(rows, indent=1, sort_keys=True)`` for report rows, byte
    for byte.  An indent makes json use its pure-Python encoder throughout;
    here the fixed keys are written directly, and only a witness goes
    through that encoder, its lines indented by the two levels it sits at."""
    if not rows:
        return "[]"
    out = []
    for row in rows:
        text = (f' {{\n  "check": {_json_value(row["check"])},'
                f'\n  "instance": {_json_value(row["instance"])},'
                f'\n  "pass": {_json_value(row["pass"])}')
        if "witness" in row:
            witness = json.dumps(row["witness"], indent=1, sort_keys=True)
            text += ',\n  "witness": ' + witness.replace("\n", "\n  ")
        out.append(text + "\n }")
    return "[\n" + ",\n".join(out) + "\n]"


def _input_name(args):
    """The basename of the command's input: ``input``, else ``--presheaf``,
    else ``--morphism``, else the command's name."""
    paths = (getattr(args, key, None) for key in ("input", "presheaf", "morphism"))
    return os.path.basename(next(filter(None, paths), args.command))


def _instance_name(obj, path):
    name = getattr(obj, "name", None)
    return name or os.path.basename(str(path))


def cmd_validate(args, report):
    obj = serialize.load_any(args.input)
    report.add("validate", _instance_name(obj, args.input), True,
               witness=[type(obj).__name__])


def cmd_classify(args, report):
    X = serialize.load_semigroup(args.input)
    rep = classify(X)
    name = _instance_name(X, args.input)
    for flag in FLAG_NAMES:
        wit = rep.witness(flag)
        report.add(f"classify:{flag}", name, True,
                   witness=[rep.flag(flag)] + (list(wit) if wit else []))


def cmd_order(args, report):
    X = serialize.load_semigroup(args.input)
    rel = natural_order(X)
    report.add("natural-order", _instance_name(X, args.input), True,
               witness=[list(p) for p in rel.pairs()])


def cmd_groupoid(args, report):
    X = serialize.load_semigroup(args.input)
    name = _instance_name(X, args.input)
    G = gp.esn_groupoid(X)
    report.add("esn-groupoid", name, True,
               witness=[G.n_objects, G.n_morphisms])
    report.add("mediator-kind", name, True, witness=[gp.mediator_kind(G)])
    if args.output:
        serialize.save_groupoid(G, args.output)


def cmd_esn_check(args, report):
    X = serialize.load_semigroup(args.input)
    name = _instance_name(X, args.input)
    G = gp.esn_groupoid(X)
    report.add("esn-roundtrip-semigroup", name,
               same_tables(gp.esn_semigroup(G), X))
    report.add("esn-roundtrip-groupoid", name,
               gp.groupoid_equal(gp.esn_groupoid(gp.esn_semigroup(G)), G))


def cmd_site(args, report):
    X = serialize.load_semigroup(args.input)
    S = site.as_inverse(X)
    name = _instance_name(X, args.input)
    idems = S.idempotents
    report.add("site:idempotents", name, True, witness=list(idems))
    for e in idems:
        R = site.representable_semigroup(S, e)
        report.add(f"site:S({e})", name, True,
                   witness=[R.semigroup.order])
        # every cospan m, m2 into e, whatever the domains of its legs
        legs = [m for m in site.all_ls_morphisms(S) if m.e == e]
        for m in legs:
            for m2 in legs:
                site.ls_pullback(S, m, m2)
    report.add("site:pullbacks-universal", name, True)


def cmd_lambda(args, report):
    P = serialize.load_presheaf(args.presheaf)
    LP = topos.lam(P)
    report.add("lambda:build", os.path.basename(args.presheaf), True,
               witness=[len(LP.pairs)])
    rep = topos.prop_inv_check(P)
    report.add("lambda:five-way-agreement", os.path.basename(args.presheaf),
               rep.all_agree(), witness=[rep.inverse])


def cmd_gamma(args, report):
    f = serialize.load_morphism(args.morphism)
    G = topos.gamma(f, budget=args.budget)
    sizes = {str(e): G.fiber_size(e) for e in G.base.idempotents}
    report.add("gamma:fibers", os.path.basename(args.morphism), True,
               witness=[sizes])


def cmd_adjunction(args, report):
    name = os.path.basename(args.presheaf)
    P = serialize.load_presheaf(args.presheaf)
    u = topos.unit(P)
    report.add("unit-iso", name, u.bijective)
    f = u.lam_obj.structure_map
    # built before the triangles, which then reuse the Lambda it holds
    eps = None if f is None else topos.counit(f, u.gamma_obj)
    report.add("triangle-1", name, bool(topos.triangle_check(P)))
    if eps is not None:
        report.add("triangle-2", name, bool(topos.triangle_check2(f)))
        report.add("counit-bijective-on-etale", name, eps.bijective)
    if args.morphism:
        f = serialize.load_morphism(args.morphism)
        data = topos.bsleft_eval(f)
        expected = data["etale"] and data["left_involutive"]
        report.add("counit-vs-etale", os.path.basename(args.morphism),
                   data["bijective"] == expected, witness=[data])


def cmd_compat(args, report):
    X = serialize.load_semigroup(args.input)
    S = site.as_inverse(X)
    name = _instance_name(X, args.input)
    for e in S.idempotents:
        rep = topos.prop_sym_check(S, e)
        report.add(f"star-reversal-vs-compatibility@e{e}", name, rep.ok)
        report.add(f"Se-inverse-vs-eS-compatible@e{e}", name, rep.seinv_agrees)


def cmd_fhat(args, report):
    f = serialize.load_morphism(args.morphism)
    name = os.path.basename(args.morphism)
    fh = modalg.fhat(f, cap=args.cap)
    report.add("fhat:build", name, True, witness=[len(fh.elements)])
    rep = modalg.validate_algebra(fh.algebra)
    report.add("fhat:algebra-axioms", name, rep.ok,
               witness=[list(v) for v in rep.violations[:3]] or None)
    r = modalg.rho(fh)
    report.add("fhat:rho-left-star-hom", name, r.is_left_star_hom)
    sample = modalg.FreeModule(f).check_axioms(seed=args.seed, fh=fh)
    report.add("fhat:free-module-sample", name, sample.ok,
               witness=[list(v) for v in sample.violations[:3]] or None)
    if args.output:
        serialize._write(args.output,
                         serialize.fhat_to_dict(fh, args.dump_product))


def cmd_verify(args, report):
    if args.list:
        for sid in oracle.statement_ids():
            spec = oracle.REGISTRY[sid]
            report.add(f"statement:{sid}", spec.kind, True,
                       witness=[spec.summary])
        return
    if args.max_order > oracle.MAX_ENUM_ORDER:
        raise BudgetExceeded(
            f"enumeration capped at order {oracle.MAX_ENUM_ORDER}")
    ids = args.statement or None
    report.rows.extend(verify.run_statements(statement_ids=ids,
                                             max_order=args.max_order))
    counts = oracle.enumeration_counts(args.max_order)
    expected = {n: oracle.KNOWN_CLASS_COUNTS[n] for n in counts}
    report.add("enumeration-self-test", f"n<={args.max_order}",
               counts == expected, witness=[counts])


def cmd_enumerate(args, report):
    for table in oracle.enumerate_semigroups(args.order, args.dedup,
                                             budget=args.budget):
        if args.stars:
            for X in oracle.enumerate_star_structures(table):
                print(json.dumps({"order": args.order,
                                  "mul": [list(r) for r in X.mul],
                                  "star": list(X.star)}))
        else:
            print(json.dumps({"order": args.order,
                              "mul": [list(r) for r in table]}))


def cmd_family(args, report):
    X = oracle.standard_family(args.name, args.n)
    report.add("family", X.name or args.name, True, witness=[X.order])
    if args.output:
        serialize.save_semigroup(X, args.output)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is one line on stderr, like every other exit 2
        self.exit(2, f"{self.prog}: error: {message}\n")


def _at_least(least):
    """The type of an integer argument of at least ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {least}, got {text!r}")
        return value
    return parse


def build_parser():
    parser = _Parser(
        prog="stargroup",
        description="finite *-semigroups, mediator groupoids, and the "
                    "presheaf topos of an inverse semigroup",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # accept --format after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(
                                    parents=[common], **kw))

    p = sub.add_parser("validate", help="load and validate any known file")
    p.add_argument("input")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="classification report")
    p.add_argument("input")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("order", help="natural partial order")
    p.add_argument("input")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("groupoid", help="the ordered groupoid with mediator")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_groupoid)

    p = sub.add_parser("esn-check", help="roundtrip both ESN functors")
    p.add_argument("input")
    p.set_defaults(fn=cmd_esn_check)

    p = sub.add_parser("site", help="L(S) homs, pullbacks, representables")
    p.add_argument("input")
    p.set_defaults(fn=cmd_site)

    p = sub.add_parser("lambda", help="build Lambda(P) and its invariants")
    p.add_argument("--presheaf", required=True)
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("gamma", help="Gamma fibers of a morphism into S")
    p.add_argument("--morphism", required=True)
    p.add_argument("--budget")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("adjunction", help="unit/counit/triangle checks")
    p.add_argument("--presheaf", required=True)
    p.add_argument("--morphism")
    p.set_defaults(fn=cmd_adjunction)

    p = sub.add_parser("compat", help="left compatibility vs star reversal")
    p.add_argument("input")
    p.set_defaults(fn=cmd_compat)

    p = sub.add_parser("fhat", help="build and validate F-hat(f)")
    p.add_argument("--morphism", required=True)
    p.add_argument("--cap", type=_at_least(0), default=2 ** 16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.add_argument("--dump-product", action="store_true")
    p.set_defaults(fn=cmd_fhat)

    p = sub.add_parser("verify", help="statement registry vs the oracle")
    p.add_argument("--list", action="store_true")
    p.add_argument("--statement", action="append",
                   choices=oracle.statement_ids(), metavar="ID")
    p.add_argument("--max-order", type=_at_least(1), default=3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="stream semigroup tables as JSONL")
    p.add_argument("--order", type=_at_least(1), required=True)
    p.add_argument("--dedup", choices=("none", "iso", "iso+anti"),
                   default="iso+anti")
    p.add_argument("--stars", action="store_true")
    p.add_argument("--budget")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("family", help="emit a standard family member")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_family)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report()
    try:
        # a given --budget is read here; gamma alone falls back to
        # STARGROUP_BUDGET, whose steps are Gamma search steps
        if getattr(args, "budget", None) is not None:
            args.budget = topos.resolve_budget(args.budget)
        try:
            args.fn(args, report)
        except (SearchBudgetExceeded, CarrierTooLarge, BudgetInvalid):
            raise
        except StarError as exc:
            report.add("error", _input_name(args), False,
                       witness=[type(exc).__name__, str(exc)])
        report.emit(args.format)
    except (SearchBudgetExceeded, BudgetExceeded, CarrierTooLarge) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (BudgetInvalid, UnknownFamily) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
