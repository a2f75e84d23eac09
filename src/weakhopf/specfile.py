"""The on-disk description format for algebras, weak Hopf data, groupoids
and Markov extensions.

Files are JSON with every scalar written exactly, as an integer or "p/q"
string; matrices are rectangular arrays, structure constants explicit
(c[i][j][k] is the e_k coefficient of e_i e_j), and linear maps are stored
row per basis vector.  Nothing is inferred or normalized on input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from weakhopf import algebra as ag
from weakhopf import groupoid as gp
from weakhopf import wha
from weakhopf.linalg import as_scalar, dense, parse_scalar, sparse

KINDS = ("algebra", "weak-hopf", "groupoid", "markov-extension")


class SpecFileError(ValueError):
    """Malformed input file; carries field context."""


@dataclass(frozen=True)
class SpecFile:
    kind: str
    name: str
    p: int | None
    payload: dict

    @property
    def field_label(self):
        return "rational" if self.p is None else "prime %d" % self.p


def _field(label):
    label = str(label).strip()
    if label == "rational":
        return None
    if label.startswith("prime"):
        # the whole label is "prime <decimal digits>", nothing else
        digits = label[len("prime "):]
        if not (label.startswith("prime ") and digits.isascii()
                and digits.isdigit()):
            raise SpecFileError("bad field label %r" % label)
        p = int(digits)
        if p >= _MR_LIMIT:
            raise SpecFileError("field label %r: modulus too large (at most "
                                "%d)" % (label, _MR_LIMIT - 1))
        if not _is_prime(p):
            raise SpecFileError("field label %r: %d is not a prime" % (label, p))
        return p
    raise SpecFileError("unknown field %r" % label)


# Miller-Rabin with the first 12 primes as bases is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < _MR_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecFileError("%s: %s" % (path, exc))
    except OSError as exc:
        raise SpecFileError(str(exc))
    return loads(raw)


def loads(raw):
    if not isinstance(raw, dict):
        raise SpecFileError("a spec file is a JSON object")
    for key in ("kind", "name", "field", "payload"):
        if key not in raw:
            raise SpecFileError("missing top-level field %r" % key)
    kind = raw["kind"]
    if kind not in KINDS:
        raise SpecFileError("unknown kind %r (expected one of %s)"
                            % (kind, ", ".join(KINDS)))
    if not isinstance(raw["payload"], dict):
        raise SpecFileError("payload must be an object, got %r"
                            % (raw["payload"],))
    return SpecFile(kind, str(raw["name"]), _field(raw["field"]),
                    raw["payload"])


def dump(spec, path):
    with open(path, "w") as fh:
        json.dump({"kind": spec.kind, "name": spec.name,
                   "field": spec.field_label, "payload": spec.payload},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# parsing payloads into verified objects

def _scal(x, p, where):
    try:
        return parse_scalar(x, p)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecFileError("%s: bad scalar %r (%s)" % (where, x, exc))


def _vector(xs, p, where):
    if not isinstance(xs, list):
        raise SpecFileError("%s: expected a list, got %r" % (where, xs))
    return tuple(_scal(x, p, where) for x in xs)


def _matrix(rows, p, where, width):
    """Rectangular rows of scalars, read as sparse rows."""
    if not isinstance(rows, list):
        raise SpecFileError("%s: expected a list of rows, got %r"
                            % (where, rows))
    out = []
    for i, row in enumerate(rows):
        row = _vector(row, p, "%s[%d]" % (where, i))
        if len(row) != width:
            raise SpecFileError("%s: row %d has %d entries, expected %d"
                                % (where, i, len(row), width))
        out.append(sparse(row))
    return out


def parse_algebra(payload, p, where="algebra"):
    try:
        dim = int(payload["dim"])
        structure = payload["structure"]
        unit = payload["unit"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError("%s: %s" % (where, exc))
    if not (isinstance(unit, list) and isinstance(structure, list) and
            all(isinstance(r, list) and all(isinstance(c, list) for c in r)
                for r in structure)):
        raise SpecFileError("%s: structure and unit must be nested lists"
                            % where)
    if len(structure) != dim or any(len(r) != dim for r in structure):
        raise SpecFileError("%s: structure tensor is not %d x %d x %d"
                            % (where, dim, dim, dim))
    table = [[tuple(_scal(x, p, "%s.structure[%d][%d]" % (where, i, j))
                    for x in structure[i][j]) for j in range(dim)]
             for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if len(table[i][j]) != dim:
                raise SpecFileError("%s.structure[%d][%d]: wrong length"
                                    % (where, i, j))
    table = [[sparse(cell) for cell in row] for row in table]
    unit = tuple(_scal(x, p, where + ".unit") for x in unit)
    if len(unit) != dim:
        raise SpecFileError("%s.unit: wrong length" % where)
    labels = payload.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise SpecFileError("%s.labels: expected a list, got %r"
                            % (where, labels))
    if labels is not None and len(labels) != dim:
        raise SpecFileError("%s.labels: wrong length" % where)
    try:
        return ag.make_algebra(table, unit, labels=labels, p=p)
    except (ag.NotAssociative, ag.BadUnit) as exc:
        raise SpecFileError("%s: %s" % (where, exc))


def parse_weakhopf(payload, p):
    alg = parse_algebra(payload.get("algebra", {}), p, "weak-hopf.algebra")
    n = alg.dim
    delta = _matrix(payload.get("delta", []), p, "delta", width=n * n)
    eps = _vector(payload.get("eps", []), p, "eps")
    s = _matrix(payload.get("s", []), p, "s", width=n)
    if len(delta) != n or len(eps) != n or len(s) != n:
        raise SpecFileError("delta/eps/s must each have %d rows" % n)
    try:
        return wha.make_weakhopf(alg, delta, eps, s)
    except Exception as exc:
        raise SpecFileError("weak-hopf data rejected: %s" % exc)


def parse_groupoid(payload):
    try:
        objects = payload["objects"]
        morphisms = payload["morphisms"]
        compose = payload["compose"]
    except (KeyError, TypeError) as exc:
        raise SpecFileError("groupoid: %s" % exc)
    if not (isinstance(objects, list) and
            all(isinstance(x, str) for x in objects)):
        raise SpecFileError("groupoid.objects must be a list of names")
    if not (isinstance(morphisms, list) and isinstance(compose, list)):
        raise SpecFileError("groupoid: morphisms and compose must be lists")
    names = []
    src, tgt = {}, {}
    for m in morphisms:
        try:
            name, source, target = m["name"], m["source"], m["target"]
        except (KeyError, TypeError):
            name = source = target = None
        if not (isinstance(name, str) and
                all(isinstance(x, str) and x in objects
                    for x in (source, target))):
            raise SpecFileError("groupoid.morphisms entries need a string "
                                "name and a source and a target among the "
                                "objects")
        names.append(name)
        src[name] = source
        tgt[name] = target
    comp = {}
    for entry in compose:
        if not (isinstance(entry, list) and len(entry) == 3 and
                all(isinstance(x, str) and x in src for x in entry)):
            raise SpecFileError("groupoid.compose entries are [g, h, gh] "
                                "of named morphisms")
        comp[(entry[0], entry[1])] = entry[2]
    try:
        return gp.Groupoid(objects, names, src, tgt, comp)
    except ValueError as exc:
        raise SpecFileError("groupoid rejected: %s" % exc)


def parse_markov(payload, p):
    small = parse_algebra(payload.get("small", {}), p, "markov.small")
    big = parse_algebra(payload.get("big", {}), p, "markov.big")
    embed = _matrix(payload.get("embed", []), p, "embed", width=big.dim)
    erows = _matrix(payload.get("expectation", []), p, "expectation",
                    width=small.dim)
    trace = _vector(payload.get("trace", []), p, "trace")
    if len(embed) != small.dim or len(erows) != big.dim or \
            len(trace) != small.dim:
        raise SpecFileError("embed/expectation/trace row counts are off")
    try:
        incl = ag.make_inclusion(small, big, embed)
        E = ag.make_cond_expectation(incl, erows)
    except ValueError as exc:
        raise SpecFileError("markov extension rejected: %s" % exc)
    return incl, E, trace


def build(spec):
    """Parse a SpecFile into its verified object."""
    if spec.kind == "algebra":
        return parse_algebra(spec.payload, spec.p)
    if spec.kind == "weak-hopf":
        return parse_weakhopf(spec.payload, spec.p)
    if spec.kind == "groupoid":
        return parse_groupoid(spec.payload)
    return parse_markov(spec.payload, spec.p)


# ---------------------------------------------------------------------------
# serializers (round-trip partners of the parsers)

def algebra_payload(alg):
    dim = alg.dim
    structure = [[[str(x) for x in dense(dict(alg.table[i][j]), dim)]
                  for j in range(dim)] for i in range(dim)]
    out = {"dim": dim, "structure": structure,
           "unit": [str(x) for x in alg.unit]}
    if alg.labels:
        out["labels"] = list(alg.labels)
    return out


def weakhopf_payload(H):
    n = H.dim
    return {
        "algebra": algebra_payload(H.alg),
        "delta": [[str(x) for x in dense(H.delta[h], n * n)]
                  for h in range(n)],
        "eps": [str(x) for x in H.eps],
        "s": [[str(x) for x in dense(H.s[h], n)] for h in range(n)],
    }


def groupoid_payload(G):
    return {
        "objects": list(G.objects),
        "morphisms": [{"name": m, "source": G.source[m],
                       "target": G.target[m]} for m in G.morphisms],
        "compose": [[g, h, gh] for (g, h), gh in sorted(G.compose.items())],
    }


def markov_payload(incl, E, trace):
    """The extension's payload; the trace, as the caller gives it, is
    written in the stored form of the extension's field."""
    return {
        "small": algebra_payload(incl.small),
        "big": algebra_payload(incl.big),
        "embed": [[str(x) for x in dense(r, incl.big.dim)]
                  for r in incl.embed],
        "expectation": [[str(x) for x in dense(r, incl.small.dim)]
                        for r in E.rows],
        "trace": [str(as_scalar(x, incl.big.p)) for x in trace],
    }


def specfile_for(obj, name, p=None):
    """Wrap a built object back into a SpecFile."""
    if isinstance(obj, wha.WeakHopf):
        return SpecFile("weak-hopf", name, obj.p, weakhopf_payload(obj))
    if isinstance(obj, ag.Algebra):
        return SpecFile("algebra", name, obj.p, algebra_payload(obj))
    if isinstance(obj, gp.Groupoid):
        return SpecFile("groupoid", name, p, groupoid_payload(obj))
    if isinstance(obj, tuple) and len(obj) == 3:
        incl, E, trace = obj
        return SpecFile("markov-extension", name, incl.big.p,
                        markov_payload(incl, E, trace))
    raise TypeError("cannot serialize %r" % type(obj))
