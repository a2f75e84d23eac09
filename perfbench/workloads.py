"""Seeded job lists: spec files written with weakhopf.specfile plus the CLI
arguments that verify them.

The seed changes the inputs, never their cost class or their verdict:
groupoids get fresh object and morphism names and a shuffled morphism
order (so a new basis order), Markov extensions get their small and big
bases permuted, F_p inputs get a prime drawn from a list, and the job order
within a pass is shuffled.  Which inputs exist, their sizes and which of
them are over F_p is fixed per workload, so passes of different seeds do
comparable work.

weakhopf is imported inside the functions, so that a set-up that purges and
re-imports the package is served by the fresh modules.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# primes above every groupoid order and tower index used here
PRIMES = (13, 17, 19, 23, 29, 31, 101, 257, 10007, 65521, 1000003)


@dataclass(frozen=True)
class Job:
    id: str
    verdict: str   # key into verdicts.VERDICTS
    argv: tuple    # weakhopf CLI arguments, after --format machine
    path: str      # the spec file the job reads


# ---------------------------------------------------------------------------
# workloads: (verdict key, command arguments, input) per job in a pass

def _groupoid_wha():
    # (label, construction, over F_p?); dimension = number of morphisms.
    # Each shape runs under both commands.  The costs fall in three tiers
    # of 8, 8 and 6 jobs, the top one led by two relabellings of the
    # rational pair3, so that the median and the tail rank each fall inside
    # a tier of similar jobs rather than on the boundary between two
    # inputs.  6 of 22 inputs are over F_p.
    shapes = [
        ("z3", ("cyclic", 3), False),
        ("pair2", ("pair", 2), True),
        ("z2+pair2", ("union", ("cyclic", 2), ("pair", 2)), False),
        ("z5", ("cyclic", 5), False),
        ("z3+pair2", ("union", ("cyclic", 3), ("pair", 2)), False),
        ("pair2+pair2", ("union", ("pair", 2), ("pair", 2)), False),
        ("z6", ("cyclic", 6), True),
        ("pair3", ("pair", 3), True),
        ("pair3", ("pair", 3), False),
        ("pair3", ("pair", 3), False),
    ]
    out = []
    for label, shape, prime in shapes:
        src = ("groupoid", shape, prime)
        out.append(("verify-wha:groupoid", ("verify-wha",), label, src))
        out.append(("groupoid-dual-integrals:groupoid",
                    ("groupoid", "--dual", "--integrals"), label, src))
    out.append(("verify-wha:mutated-antipode", ("verify-wha",),
                "mutated-antipode", ("mutated-antipode",)))
    out.append(("verify-wha:malformed", ("verify-wha",), "malformed",
                ("malformed",)))
    return out


def _tower_deep():
    out = []
    for ext, args in [
            ("q_in_q2", ("--depth", "2")),
            ("q_in_q2", ("--depth", "3")),
            ("q_in_q2", ("--depth", "4")),
            ("q2_in_m2", ("--depth", "2")),
            ("q2_in_m2", ("--depth", "3")),
            ("q2_in_m2", ("--depth", "4")),
            ("trivial_m2", ("--depth", "2")),
            ("trivial_m2", ("--depth", "3")),
            # the ~1 s tier twice over, so the tail rank falls inside it
            ("q_in_m2", ("--depth", "2")),
            ("q_in_m2", ("--depth", "2")),
            ("s3_z2", ("--depth", "2")),
            ("s3_z2", ("--depth", "2"))]:
        out.append(("tower:" + ext, ("tower",) + args, ext,
                    ("markov", ext, False)))
    out.append(("tower-appendix:q_in_q2", ("tower", "--depth", "3",
                                           "--appendix-fn", "1"),
                "q_in_q2", ("markov", "q_in_q2", False)))
    out.append(("tower-appendix:q_in_q2", ("tower", "--depth", "5",
                                           "--appendix-fn", "2"),
                "q_in_q2", ("markov", "q_in_q2", False)))
    return out


def _depth2_derive():
    # Per pass: 2 + 3 + 3 small jobs below the median, 3 F_p q2_in_m2
    # around it, 4 rational q2_in_m2 and a top tier of four ~1 s
    # derivations, so the median and the tail rank each fall inside a group
    # of like inputs.  The index-4 q_in_m2 derivations (10 s and more) are
    # left out: with two of them per run the makespan could not be measured
    # steadily in a 30 s run.
    out = []
    for ext, prime, copies in [
            ("trivial_m2", False, 1), ("trivial_m2", True, 1),
            ("q_in_q2", True, 3), ("q_in_q2", False, 3),
            ("q2_in_m2", True, 3), ("q2_in_m2", False, 4),
            ("s3_z2", False, 1),
            ("q_in_q3", False, 1), ("q_in_q3", True, 2)]:
        out.extend([("derive:" + ext, ("tower", "--derive"), ext,
                     ("markov", ext, prime))] * copies)
    return out


# name -> (job templates, nominal pass length in seconds on the reference
# machine, used to turn --seconds into a fixed number of passes)
WORKLOADS = {
    "groupoid-wha": (_groupoid_wha, 6.0),
    "tower-deep": (_tower_deep, 11.0),
    "depth2-derive": (_depth2_derive, 7.5),
}


def passes_for(workload, seconds):
    """Whole passes per run: about `seconds` of work, never fewer than two
    (report determinism is checked between passes)."""
    return max(2, round(seconds / WORKLOADS[workload][1]))


# ---------------------------------------------------------------------------
# input construction

def _groupoid(shape):
    from weakhopf import groupoid as gp
    if shape[0] == "trivial":
        return gp.trivial()
    if shape[0] == "cyclic":
        return gp.cyclic(shape[1])
    if shape[0] == "pair":
        return gp.pair(shape[1])
    return gp.disjoint_union(_groupoid(shape[1]), _groupoid(shape[2]))


def relabel(G, rng):
    """An isomorphic groupoid with fresh names and a shuffled basis."""
    from weakhopf import groupoid as gp
    objs = list(G.objects)
    ms = list(G.morphisms)
    onames = ["o%d" % i for i in rng.sample(range(10 * len(objs)), len(objs))]
    mnames = ["m%d" % i for i in rng.sample(range(10 * len(ms)), len(ms))]
    on = dict(zip(objs, onames))
    mn = dict(zip(ms, mnames))
    order = ms[:]
    rng.shuffle(order)
    rng.shuffle(objs)
    return gp.Groupoid([on[x] for x in objs], [mn[m] for m in order],
                       {mn[m]: on[G.source[m]] for m in ms},
                       {mn[m]: on[G.target[m]] for m in ms},
                       {(mn[g], mn[h]): mn[gh]
                        for (g, h), gh in G.compose.items()})


def _permute_algebra(alg, perm):
    """The same algebra on the basis reordered by old index i -> perm[i]."""
    from weakhopf import algebra as ag
    from weakhopf.linalg import scalar_zero
    n = alg.dim
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = {perm[k]: c for k, c in alg.table[i][j]}
    unit = [scalar_zero(alg.p)] * n
    for i, c in enumerate(alg.unit):
        unit[perm[i]] = c
    labels = None
    if alg.labels:
        labels = [None] * n
        for i, lab in enumerate(alg.labels):
            labels[perm[i]] = lab
    return ag.make_algebra(table, unit, labels=labels, p=alg.p)


def _extension_parts(name, p):
    """(small, big, embed rows, expectation rows, trace) of a standing
    extension, built directly (certification is part of the timed job)."""
    from itertools import permutations
    from weakhopf import corpus
    from weakhopf.linalg import scalar_one, scalar_zero
    one, zero = scalar_one(p), scalar_zero(p)
    half = one / (one + one)
    if name == "q_in_q2":
        return (corpus.field_algebra(p), corpus.diagonal_algebra(2, p),
                [{0: one, 1: one}], [{0: half}, {0: half}], (one,))
    if name == "q_in_q3":
        third = one / (one + one + one)
        return (corpus.field_algebra(p), corpus.diagonal_algebra(3, p),
                [{0: one, 1: one, 2: one}], [{0: third}] * 3, (one,))
    if name == "q_in_m2":
        return (corpus.field_algebra(p), corpus.matrix_algebra(2, p),
                [{0: one, 3: one}], [{0: half}, {}, {}, {0: half}], (one,))
    if name == "q2_in_m2":
        return (corpus.diagonal_algebra(2, p), corpus.matrix_algebra(2, p),
                [{0: one}, {3: one}], [{0: one}, {}, {}, {1: one}],
                (half, half))
    if name == "trivial_m2":
        big = corpus.matrix_algebra(2, p)
        ident = [{i: one} for i in range(4)]
        return big, big, ident, ident, (half, zero, zero, half)
    if name == "s3_z2":
        elems = sorted(permutations((0, 1, 2)))
        big = corpus.group_algebra(
            elems, lambda g, h: tuple(g[h[i]] for i in range(3)), (0, 1, 2),
            p)
        small = corpus.group_algebra(
            ("e", "s"), lambda a, b: "e" if a == b else "s", "e", p)
        swap = (1, 0, 2)
        idx = {g: i for i, g in enumerate(elems)}
        erows = [{0: one} if g == (0, 1, 2) else {1: one} if g == swap
                 else {} for g in elems]
        return (small, big, [{idx[(0, 1, 2)]: one}, {idx[swap]: one}],
                erows, (one, zero))
    raise ValueError("unknown extension %r" % name)


def markov_extension(name, p, rng):
    """The named extension with both bases permuted by the seed."""
    from weakhopf import algebra as ag
    small, big, embed, erows, trace = _extension_parts(name, p)
    ps = list(range(small.dim))
    pb = list(range(big.dim))
    rng.shuffle(ps)
    rng.shuffle(pb)
    small2 = _permute_algebra(small, ps)
    big2 = _permute_algebra(big, pb)
    embed2 = [None] * small.dim
    trace2 = [None] * small.dim
    for s in range(small.dim):
        embed2[ps[s]] = {pb[k]: c for k, c in embed[s].items()}
        trace2[ps[s]] = trace[s]
    erows2 = [None] * big.dim
    for b in range(big.dim):
        erows2[pb[b]] = {ps[k]: c for k, c in erows[b].items()}
    incl = ag.make_inclusion(small2, big2, embed2)
    E = ag.make_cond_expectation(incl, erows2)
    return incl, E, tuple(trace2)


def _write_input(src, name, path, rng, prime):
    from weakhopf import groupoid as gp
    from weakhopf import specfile as sf
    kind = src[0]
    if kind == "groupoid":
        G = relabel(_groupoid(src[1]), rng)
        sf.dump(sf.specfile_for(G, name, prime), path)
    elif kind == "markov":
        sf.dump(sf.specfile_for(markov_extension(src[1], prime, rng),
                                name), path)
    elif kind == "mutated-antipode":
        G = relabel(gp.pair(2), rng)
        spec = sf.specfile_for(gp.groupoid_algebra(G), name)
        units = set(G.units)
        x = rng.choice([i for i, g in enumerate(G.morphisms)
                        if g not in units])
        srows = [list(r) for r in spec.payload["s"]]
        srows[x][x] = "1"  # S'(x) = S(x) + x
        sf.dump(sf.SpecFile("weak-hopf", name, None,
                            dict(spec.payload, s=srows)), path)
    elif kind == "malformed":
        G = relabel(gp.pair(2), rng)
        good = json.dumps({"kind": "groupoid", "name": name,
                           "field": "rational",
                           "payload": sf.groupoid_payload(G)})
        variant = rng.randrange(4)
        if variant == 0:
            text = good[:len(good) // 2]          # truncated JSON
        elif variant == 1:
            text = good.replace('"groupoid"', '"hopf-ish"', 1)  # bad kind
        elif variant == 2:
            text = good.replace('"rational"', '"prime seven"')  # bad field
        else:
            raw = json.loads(good)
            raw["payload"]["compose"] = raw["payload"]["compose"][1:]
            text = json.dumps(raw)                # incomplete table
        with open(path, "w") as fh:
            fh.write(text)
    else:
        raise ValueError("unknown input kind %r" % kind)


def generate(workload, seed, spec_dir):
    """Write the workload's spec files for `seed`; return the job list."""
    make, _ = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    templates = make()
    order = list(range(len(templates)))
    rng.shuffle(order)
    os.makedirs(spec_dir, exist_ok=True)
    jobs = []
    for n, t in enumerate(order):
        verdict, args, label, src = templates[t]
        prime = rng.choice(PRIMES) if src[-1] is True else None
        jid = "%02d-%s-%s%s" % (n, verdict.split(":")[0], label,
                                "-p%d" % prime if prime else "")
        path = os.path.join(spec_dir, jid + ".json")
        _write_input(src, jid, path, rng, prime)
        jobs.append(Job(jid, verdict, tuple(args[:1]) + (path,) + args[1:],
                        path))
    return jobs


def job_list_digest(jobs):
    """sha256 over each job's id, arguments and input bytes."""
    h = hashlib.sha256()
    for job in jobs:
        with open(job.path, "rb") as fh:
            body = fh.read()
        args = [a if a != job.path else os.path.basename(a) for a in job.argv]
        h.update(json.dumps([job.id, job.verdict, args]).encode())
        h.update(hashlib.sha256(body).digest())
    return h.hexdigest()
