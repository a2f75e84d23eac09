"""Batch front end: parse description files, run pipelines, emit reports.

Exit status: 0 when every identity passed, 1 on verification failure, 2 on
input errors.  The machine format emits one JSON record per identity
(name, law, pass/fail, witness) followed by a summary record; reports are
byte-identical for equal inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from weakhopf import algebra as ag
from weakhopf import composite as cp
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw
from weakhopf import wha
from weakhopf.checks import Check, VerificationError


class Report:
    def __init__(self, pipeline, items):
        self.pipeline = pipeline
        self.items = list(items)

    @property
    def passed(self):
        return sum(1 for c in self.items if c.passed)

    @property
    def failed(self):
        return len(self.items) - self.passed

    @property
    def exit_status(self):
        return 0 if self.failed == 0 else 1

    def render(self, fmt):
        if fmt == "machine":
            lines = [json.dumps({"name": c.name, "law": c.law,
                                 "passed": c.passed, "witness": c.witness},
                                sort_keys=True) for c in self.items]
            lines.append(json.dumps({"pipeline": self.pipeline,
                                     "passed": self.passed,
                                     "failed": self.failed}, sort_keys=True))
            return "\n".join(lines) + "\n"
        out = ["pipeline: %s" % self.pipeline]
        for c in self.items:
            mark = "PASS" if c.passed else "FAIL"
            line = "%s %s  [%s]" % (mark, c.name, c.law)
            if c.witness:
                line += "  witness: %s" % c.witness
            out.append(line)
        out.append("%d passed, %d failed" % (self.passed, self.failed))
        return "\n".join(out) + "\n"


def _wha_report(H, name):
    axioms = wha.verify_axioms(H)
    items = list(axioms.items)
    if not axioms.ok:
        # counital data, integrals and duals presuppose the axioms
        items.append(Check("downstream", "counital/integral/dual stages "
                           "skipped: axioms failed", False))
        return Report(name, items)
    items.extend(H.counital.checks.items)
    ints = wha.integrals(H)
    items.append(Check("maschke", "normalized left integral exists iff the "
                       "algebra is separable",
                       wha.maschke_consistent(H, ints)))
    # wha.dual runs the axiom engine on the dual it builds: a dual failing
    # it is a failed entry.  The dual of that dual is decided on the
    # matrices: when the transpose of Hd is H's own structure it is H,
    # whose axioms passed above
    law = "the transpose dual passes every axiom"
    try:
        Hd = wha.dual(H)
    except VerificationError as exc:
        items.append(Check("dual_axioms", law, False, _failed(exc)))
        return Report(name, items)
    items.append(Check("dual_axioms", law, True))
    witness = wha.involution_witness(H, Hd)
    items.append(Check("dual_involution", "dual(dual(H)) = H as matrices",
                       witness is None, witness))
    return Report(name, items)


def _failed(exc):
    """The witness of a VerificationError: the names of its failed laws."""
    return ", ".join(c.name for c in exc.checks if not c.passed)


def _attempt(build, *args):
    """(build(*args), None), or (None, witness) when it fails a law.  A
    VerificationError is an AssertionError whose witness is the names of
    its failed laws, one line like every other witness."""
    try:
        return build(*args), None
    except VerificationError as exc:
        return None, _failed(exc)
    except AssertionError as exc:
        return None, str(exc)


def cmd_verify_wha(args):
    spec = sf.load(args.file)
    if spec.kind == "groupoid":
        H = gp.groupoid_algebra(sf.build(spec), spec.p)
    elif spec.kind == "weak-hopf":
        H = sf.build(spec)
    elif spec.kind == "algebra":
        alg = sf.build(spec)
        if alg.dim != 1:
            raise sf.SpecFileError(
                "kind 'algebra' only verifies as a weak Hopf algebra in "
                "dimension 1; got dim %d" % alg.dim)
        H = wha.make_weakhopf(alg, [{0: alg.unit[0]}], (alg.unit[0],),
                              [{0: alg.unit[0]}])
    else:
        raise sf.SpecFileError("verify-wha expects weak-hopf or groupoid "
                               "input, got %r" % spec.kind)
    return _wha_report(H, "verify-wha %s" % spec.name)


def cmd_groupoid(args):
    spec = sf.load(args.file)
    if spec.kind != "groupoid":
        raise sf.SpecFileError("groupoid command expects a groupoid file")
    G = sf.build(spec)
    H = gp.groupoid_algebra(G, spec.p)
    items = list(wha.verify_axioms(H).items)
    # the explicit dual is built once; --integrals reads the same outcome
    if args.dual or args.integrals:
        Hd, witness = _attempt(gp.groupoid_dual, G, H)
    if args.dual:
        items.append(Check("dual_formulas", "the function-algebra dual "
                           "matches the transpose dual", witness is None,
                           witness))
    if args.integrals:
        if witness is None:
            _, witness = _attempt(gp.groupoid_integrals, G, H, Hd)
        items.append(Check("integral_spans", "unit-indexed sums span the "
                           "integral spaces", witness is None, witness))
    return Report("groupoid %s" % spec.name, items)


def cmd_tower(args):
    spec = sf.load(args.file)
    if spec.kind != "markov-extension":
        raise sf.SpecFileError("tower command expects a markov-extension "
                               "file")
    incl, E, trace = sf.build(spec)
    items = []
    try:
        cert = ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)
    except ag.NoDualBases as exc:
        items.append(Check("dual_bases", "E admits dual bases", False,
                           str(exc)))
        return Report("tower %s" % spec.name, items)
    items.extend(cert.checks.items)
    if not cert.checks.ok:
        return Report("tower %s" % spec.name, items)

    depth = max(args.depth, 2 if args.derive else args.depth)
    # f_n needs the tower up to level 2n+1
    extra = 0
    if args.appendix_fn is not None:
        extra = max(0, 2 * args.appendix_fn + 1 - depth)
    t = tw.build_tower(cert, depth, extra)
    items.extend(t.checks.items)

    if args.derive:
        if not t.checks.ok:
            items.append(Check("derivation", "stage skipped: tower checks "
                               "failed", False))
            return Report("tower %s" % spec.name, items)
        try:
            items.extend(tw.derive(t)[3].items)
        except (tw.Depth2Failure, tw.SingularGram) as exc:
            items.append(Check("depth2", "depth-2 condition holds", False,
                               str(exc)))
        except VerificationError as exc:
            items.append(Check("derivation", "every derivation stage runs "
                               "to its end", False, _failed(exc)))
        except (ag.NotClosed, ag.NotKanzaki, la.NoSolution,
                ag.NotAssociative, ag.BadUnit) as exc:
            items.append(Check("derivation", "every derivation stage runs "
                               "to its end", False,
                               "%s: %s" % (type(exc).__name__, exc)))
    if args.appendix_fn is not None:
        data = None
        for n in range(args.appendix_fn + 1):
            try:
                data = cp.composite_idempotent(t, n, prev=data)
                items.extend(
                    Check("f%d_%s" % (n, c.name), c.law, c.passed, c.witness)
                    for c in data.checks.items if not c.name.startswith(
                        "previous_level"))
            except cp.DimensionBudget as exc:
                data = None
                items.append(Check("f%d" % n, "composite idempotent within "
                                   "the dimension budget", False, str(exc)))
    return Report("tower %s" % spec.name, items)


def cmd_report(args):
    items = []
    pipeline = "report"
    try:
        with open(args.file, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if isinstance(rec, dict) and "pipeline" in rec:
                    pipeline = rec["pipeline"]
                    continue
                items.append(_record(rec, n))
    except (OSError, ValueError, KeyError) as exc:
        raise sf.SpecFileError("unreadable report: %s" % exc)
    return Report(pipeline, items)


def _record(rec, n):
    """The Check of the identity record on line n of a machine report: a
    JSON object with a string name, a string law if any, a boolean passed
    and a string or null witness."""
    if not isinstance(rec, dict):
        raise ValueError("line %d: a record is a JSON object" % n)
    law, witness = rec.get("law", ""), rec.get("witness")
    if not (isinstance(rec["name"], str) and isinstance(law, str) and
            isinstance(rec["passed"], bool) and
            (witness is None or isinstance(witness, str))):
        raise ValueError("line %d: malformed record %s"
                         % (n, json.dumps(rec, sort_keys=True)))
    return Check(rec["name"], law, rec["passed"], witness)


def _count(text):
    """A non-negative integer argument; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return n


@functools.cache
def _parser():
    """The command-line parser, built on the first call and then reused:
    parse_args fills a new namespace each time, so no option carries over
    from one call of main to the next."""
    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="exact verification of weak Hopf algebra structures")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report rendering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-wha", help="full axiom report for a "
                       "weak Hopf algebra or groupoid file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify_wha)

    p = sub.add_parser("groupoid", help="groupoid algebra checks")
    p.add_argument("file")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--integrals", action="store_true")
    p.set_defaults(fn=cmd_groupoid)

    p = sub.add_parser("tower", help="certify a Markov extension and build "
                       "its Jones tower")
    p.add_argument("file")
    p.add_argument("--depth", type=_count, default=2)
    p.add_argument("--derive", action="store_true",
                   help="run the full depth-2 derivation pipeline")
    p.add_argument("--appendix-fn", type=_count, default=None, metavar="N",
                   help="verify the composite idempotents f_0..f_N")
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("report", help="re-render a machine report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # usage error (2, text on stderr) or --help
        return exc.code
    try:
        report = args.fn(args)
    except sf.SpecFileError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
