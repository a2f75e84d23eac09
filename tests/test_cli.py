import argparse
import copy
import dataclasses
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import action as ac
from weakhopf import algebra as ag
from weakhopf import checks
from weakhopf import cli
from weakhopf import composite as cp
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw
from weakhopf import wha
from weakhopf.checks import Check, CheckList, VerificationError


@pytest.fixture()
def pair2_file(tmp_path):
    path = tmp_path / "pair2.json"
    sf.dump(sf.specfile_for(gp.pair(2), "pair2"), path)
    return str(path)


def with_field(path, tmp_path, label):
    """Copy of a spec file with its field label replaced."""
    with open(path) as fh:
        raw = json.load(fh)
    raw["field"] = label
    out = tmp_path / ("field-%s.json" % label.replace(" ", "-"))
    out.write_text(json.dumps(raw))
    return str(out)


def machine_verdicts(out):
    """(name, passed) per identity of a machine report, in report order."""
    records = [json.loads(line) for line in out.strip().splitlines()]
    return [(r["name"], r["passed"]) for r in records if "name" in r]


@pytest.fixture()
def markov_file(tmp_path):
    cert = corpus.ext_q_q2()
    path = tmp_path / "q_q2.json"
    sf.dump(sf.specfile_for((cert.incl, cert.E, cert.trace), "q_in_q2"), path)
    return str(path)


def test_roundtrip_groupoid(tmp_path):
    for name, G in gp.corpus().items():
        path = tmp_path / (name + ".json")
        sf.dump(sf.specfile_for(G, name), path)
        G2 = sf.build(sf.load(path))
        assert G2.objects == G.objects
        assert G2.morphisms == G.morphisms
        assert G2.compose == G.compose


def test_roundtrip_weakhopf(tmp_path):
    H = gp.groupoid_algebra(gp.pair(2))
    path = tmp_path / "wha.json"
    sf.dump(sf.specfile_for(H, "pair2-algebra"), path)
    H2 = sf.build(sf.load(path))
    assert (H2.alg.table, H2.delta, H2.eps, H2.s) == \
        (H.alg.table, H.delta, H.eps, H.s)


def test_roundtrip_markov(tmp_path):
    for name, cert in corpus.standing_extensions().items():
        path = tmp_path / (name + ".json")
        sf.dump(sf.specfile_for((cert.incl, cert.E, cert.trace), name), path)
        incl, E, trace = sf.build(sf.load(path))
        assert incl.embed == cert.incl.embed
        assert E.rows == cert.E.rows
        assert trace == cert.trace


def test_markov_payload_writes_the_trace_in_its_field():
    # q_in_q2 over F_13, its trace given as the rational 1/2 = 7 mod 13
    incl = ag.make_inclusion(corpus.field_algebra(13),
                             corpus.diagonal_algebra(2, 13),
                             [{0: 1, 1: 1}])
    E = ag.make_cond_expectation(incl, [{0: 7}, {0: 7}])
    spec = sf.specfile_for((incl, E, (F(1, 2),)), "half")
    assert spec.p == 13 and spec.payload["trace"] == ["7"]
    assert sf.build(spec)[2] == (7,)


def test_verify_wha_all_pass(pair2_file, capsys):
    assert cli.main(["verify-wha", pair2_file]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


@pytest.fixture()
def bad_antipode_file(tmp_path):
    spec = sf.specfile_for(gp.groupoid_algebra(gp.pair(2)), "bad")
    payload = dict(spec.payload)
    # S'(g01) += g01: passes the counital antipode axioms, breaks the
    # sandwich axiom and nothing upstream of it
    srows = [list(r) for r in payload["s"]]
    srows[1][1] = "1"
    payload = dict(payload, s=srows)
    path = tmp_path / "bad.json"
    sf.dump(sf.SpecFile("weak-hopf", "bad", None, payload), path)
    return str(path)


@pytest.fixture()
def bad_coproduct_file(tmp_path):
    spec = sf.specfile_for(gp.groupoid_algebra(gp.pair(2)), "bad")
    # Delta(g01) += g00 (x) g01: coassociativity and both counit laws fail
    # at basis 1, so the spec is refused with their witnesses
    rows = [list(r) for r in spec.payload["delta"]]
    rows[1][1] = "1"
    path = tmp_path / "bad-delta.json"
    sf.dump(sf.SpecFile("weak-hopf", "bad", None,
                        dict(spec.payload, delta=rows)), path)
    return str(path)


def test_corrupted_antipode_fails_sandwich(bad_antipode_file, capsys):
    rc = cli.main(["verify-wha", bad_antipode_file])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL antipode_sandwich" in out
    sandwich = [l for l in out.splitlines() if "FAIL antipode_sandwich" in l]
    assert "witness: basis" in sandwich[0]
    for upstream in ("coassociativity", "counit_left", "delta_multiplicative",
                     "eps_weak_multiplicative", "delta_one",
                     "antipode_target", "antipode_source"):
        assert "FAIL %s " % upstream not in out


def test_verify_wha_of_an_inseparable_group_algebra(tmp_path, capsys):
    # kZ2 over F_2 has no normalized left integral and is not separable:
    # Maschke holds, decided by the separability solve
    path = tmp_path / "z2.json"
    sf.dump(sf.specfile_for(gp.cyclic(2), "z2"), path)
    f2 = with_field(str(path), tmp_path, "prime 2")
    assert cli.main(["--format", "machine", "verify-wha", f2]) == 0
    verdicts = machine_verdicts(capsys.readouterr().out)
    assert ("maschke", True) in verdicts
    assert all(passed for _, passed in verdicts)


def test_trivial_algebra_passes(tmp_path):
    spec = sf.specfile_for(corpus.field_algebra(), "k")
    path = tmp_path / "k.json"
    sf.dump(spec, path)
    assert cli.main(["verify-wha", str(path)]) == 0


def test_tower_command(markov_file, capsys):
    assert cli.main(["tower", markov_file, "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS braid_1_2_1" in out


def test_tower_derive(markov_file, capsys):
    assert cli.main(["tower", markov_file, "--derive"]) == 0
    out = capsys.readouterr().out
    assert "PASS invariants_are_N" in out
    assert "PASS haar_normalized" in out


def test_tower_appendix(markov_file, capsys):
    assert cli.main(["tower", markov_file, "--appendix-fn", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS f1_idempotent" in out


def test_tower_appendix_over_prime_field(markov_file, tmp_path, capsys):
    # the composite idempotents' word basis is echelonized over F_13 too
    assert cli.main(["--format", "machine", "tower", markov_file,
                     "--appendix-fn", "1"]) == 0
    rational = machine_verdicts(capsys.readouterr().out)
    f13 = with_field(markov_file, tmp_path, "prime 13")
    assert cli.main(["--format", "machine", "tower", f13,
                     "--appendix-fn", "1"]) == 0
    assert machine_verdicts(capsys.readouterr().out) == rational
    assert ("f1_idempotent", True) in rational


def test_tower_rejects_skewed_expectation(tmp_path, capsys):
    incl, E = corpus.skewed_expectation()
    path = tmp_path / "skew.json"
    sf.dump(sf.specfile_for((incl, E, (F(1),)), "skewed"), path)
    rc = cli.main(["tower", str(path)])
    assert rc == 1
    out = capsys.readouterr().out
    # u = e01 in C_M(N) = M2 and x = e10: E(e01 e10) = 1/3, E(e10 e01) = 2/3
    assert "FAIL symmetric  [E(ux) = E(xu) for u in C_M(N)]  witness: (1, 2)" \
        in out


def test_groupoid_command(pair2_file):
    assert cli.main(["groupoid", pair2_file, "--dual", "--integrals"]) == 0


def counting(monkeypatch, module, name):
    """Record the positional arguments of every call to module.name."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_groupoid_builds_kG_and_its_dual_once(pair2_file, monkeypatch):
    built = counting(monkeypatch, gp, "groupoid_algebra")
    duals = counting(monkeypatch, gp, "groupoid_dual")
    assert cli.main(["groupoid", pair2_file, "--dual", "--integrals"]) == 0
    assert (len(built), len(duals)) == (1, 1)


def derivations(monkeypatch):
    """Record the (ctx, results dict) of every tw.derive."""
    results = []
    derive = tw.derive

    def recording(t):
        out = derive(t)
        results.append(out[:2])
        return out

    monkeypatch.setattr(tw, "derive", recording)
    return results


def test_derivation_builds_shared_objects_once(markov_file, monkeypatch):
    subalgebras = counting(monkeypatch, ag, "subalgebra")
    inverses = counting(monkeypatch, la, "inverse")
    results = derivations(monkeypatch)
    assert cli.main(["tower", markov_file, "--derive"]) == 0
    # V and its Kanzaki element are those of the level-1 certificate
    assert "V" not in [args[2] for args in subalgebras]
    ctx, res = results[0]
    pd = res["pairing"]
    assert pd.f is ctx.lv1.cert.kanzaki
    # no stored matrix is inverted twice: B's antipode, for one, once for
    # the derivation and the smash product M1 # B together.  Equal rows of
    # different objects can meet by coincidence: on q_in_q2 the antipodes
    # of A and B have the same matrix
    rows = [id(args[0]) for args in inverses]
    assert rows and len(set(rows)) == len(rows)


def test_derivation_runs_the_axiom_engine_on_B_and_A_only(markov_file,
                                                          monkeypatch):
    # the structure of B* is read off B's transposed matrices and carried to
    # A: no B* is built or verified
    runs = counting(monkeypatch, wha, "verify_axioms")
    duals = counting(monkeypatch, wha, "dual")
    results = derivations(monkeypatch)
    assert cli.main(["tower", markov_file, "--derive"]) == 0
    dw = results[0][1]["derived"]
    assert [id(args[0]) for args in runs] == [id(dw.B), id(dw.A)]
    assert duals == []


def test_derivation_builds_each_inclusion_image_once(markov_file,
                                                     monkeypatch):
    images = computed(monkeypatch, "image", ag.Inclusion)
    assert cli.main(["tower", markov_file, "--derive"]) == 0
    assert images and len({id(incl) for incl in images}) == len(images)


def test_appendix_builds_each_f_n_once(markov_file, monkeypatch):
    calls = counting(monkeypatch, cp, "composite_idempotent")
    assert cli.main(["tower", markov_file, "--appendix-fn", "2"]) == 0
    assert [args[1] for args in calls] == [0, 1, 2]


def test_machine_format_and_report_roundtrip(pair2_file, tmp_path, capsys):
    assert cli.main(["--format", "machine", "verify-wha", pair2_file]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["failed"] == 0
    rpath = tmp_path / "report.jsonl"
    rpath.write_text(out)
    assert cli.main(["report", str(rpath)]) == 0


def test_reports_deterministic(pair2_file, capsys):
    cli.main(["--format", "machine", "verify-wha", pair2_file])
    out1 = capsys.readouterr().out
    cli.main(["--format", "machine", "verify-wha", pair2_file])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["verify-wha", str(path)]) == 2
    path2 = tmp_path / "badkind.json"
    path2.write_text(json.dumps({"kind": "nonsense", "name": "x",
                                 "field": "rational", "payload": {}}))
    assert cli.main(["verify-wha", str(path2)]) == 2


@pytest.mark.parametrize("argv", [["verify-wha"], ["groupoid"], ["tower"],
                                  ["report"]])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "bom16.json"
    path.write_bytes(b"\xff\xfe")
    assert cli.main(argv + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("line", [
    "[1, 2]", "5", '"name"',
    '{"name": "x", "law": "l", "passed": "false", "witness": null}',
    '{"name": "x", "law": "l", "passed": 0, "witness": null}',
    '{"name": 5, "law": "l", "passed": true, "witness": null}',
    '{"name": "x", "law": ["l"], "passed": true, "witness": null}',
    '{"name": "x", "law": "l", "passed": false, "witness": 3}',
    '{"law": "l", "passed": true}'])
def test_malformed_report_record_is_an_input_error(tmp_path, capsys, line):
    path = tmp_path / "report.jsonl"
    path.write_text('{"name": "ok", "law": "l", "passed": true, '
                    '"witness": null}\n%s\n' % line)
    assert cli.main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: unreadable report")


@pytest.mark.parametrize("p, rc", [(0, 2), (1, 2), (6, 2), (9, 2), (15, 2),
                                   (13, 0), (561, 2), (41041, 2),
                                   (3215031751, 2), (2 ** 61 - 1, 0)])
def test_field_modulus_must_be_prime(pair2_file, tmp_path, p, rc):
    path = with_field(pair2_file, tmp_path, "prime %d" % p)
    assert cli.main(["groupoid", path, "--dual", "--integrals"]) == rc


@pytest.mark.parametrize("label", [
    "primes 13", "prime 13 junk", "prime 1_3", "prime +13", "prime -13",
    "prime", "prime  13", "prime 0x0d", "prime \u0661\u0663", "rationals"])
def test_field_label_must_match_exactly(pair2_file, tmp_path, capsys, label):
    path = with_field(pair2_file, tmp_path, label)
    assert cli.main(["groupoid", path]) == 2
    assert "field" in capsys.readouterr().err


def test_primality_is_fast_and_bounded(pair2_file, tmp_path, capsys):
    t0 = time.perf_counter()
    assert sf._field("prime %d" % (2 ** 61 - 1)) == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 1.0
    # a strong pseudoprime to all twelve bases: beyond the exact range
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    path = with_field(pair2_file, tmp_path, "prime %d" % psi12)
    assert cli.main(["groupoid", path]) == 2
    assert "too large" in capsys.readouterr().err


def test_malformed_scalar_rejected(tmp_path):
    spec = sf.specfile_for(corpus.field_algebra(), "k")
    payload = dict(spec.payload)
    payload["unit"] = ["1/0x"]
    path = tmp_path / "badscalar.json"
    sf.dump(sf.SpecFile("algebra", "k", None, payload), path)
    assert cli.main(["verify-wha", str(path)]) == 2


@pytest.mark.parametrize("key, value", [("unit", ["1/0"]), ("unit", 5),
                                        ("structure", 5), ("labels", 5)])
def test_bad_algebra_payload_is_an_input_error(tmp_path, key, value):
    spec = sf.specfile_for(corpus.field_algebra(), "k")
    payload = dict(spec.payload, **{key: value})
    path = tmp_path / "bad.json"
    sf.dump(sf.SpecFile("algebra", "k", None, payload), path)
    assert cli.main(["verify-wha", str(path)]) == 2


@pytest.mark.parametrize("key, value", [("delta", 5), ("eps", 5),
                                        ("s", [5, 5, 5, 5])])
def test_bad_weakhopf_payload_is_an_input_error(tmp_path, key, value):
    spec = sf.specfile_for(gp.groupoid_algebra(gp.pair(2)), "pair2")
    payload = dict(spec.payload, **{key: value})
    path = tmp_path / "bad.json"
    sf.dump(sf.SpecFile("weak-hopf", "pair2", None, payload), path)
    assert cli.main(["verify-wha", str(path)]) == 2


@pytest.mark.parametrize("key, value", [("expectation", 5),
                                        ("expectation", [5, 5]),
                                        ("embed", 5), ("trace", 5)])
def test_bad_markov_payload_is_an_input_error(markov_file, tmp_path, key,
                                              value):
    with open(markov_file) as fh:
        raw = json.load(fh)
    raw["payload"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["tower", str(path)]) == 2


@pytest.mark.parametrize("labels, rc", [(["a"], 2), (["a", "b", "c"], 2),
                                        (["a", "b"], 0)])
def test_labels_name_every_basis_vector(markov_file, tmp_path, capsys,
                                        labels, rc):
    with open(markov_file) as fh:
        raw = json.load(fh)
    assert raw["payload"]["big"]["dim"] == 2
    raw["payload"]["big"]["labels"] = labels
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["tower", str(path)]) == rc
    err = capsys.readouterr().err
    assert ("markov.big.labels: wrong length" in err) == (rc == 2)


@pytest.mark.parametrize("raw", [5, [1], "kind name field payload"])
def test_spec_must_be_an_object(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify-wha", str(path)]) == 2


@pytest.mark.parametrize("kind", ["weak-hopf", "markov-extension"])
@pytest.mark.parametrize("payload", [5, [], "x"])
def test_payload_must_be_an_object(markov_file, tmp_path, kind, payload):
    with open(markov_file) as fh:
        raw = json.load(fh)
    raw.update(kind=kind, payload=payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    command = "tower" if kind == "markov-extension" else "verify-wha"
    assert cli.main([command, str(path)]) == 2


@pytest.mark.parametrize("key, value", [("compose", 5), ("compose", [5]),
                                        ("compose", None), ("morphisms", 5),
                                        ("morphisms", None),
                                        ("compose", [["zz", "g00", "g00"]]),
                                        ("morphisms", [{"name": 1,
                                                        "source": "X0",
                                                        "target": "X0"}]),
                                        ("objects", [["X0"], ["X1"]]),
                                        ("objects", "XY"),
                                        ("objects", None),
                                        ("morphisms", [{"name": "g",
                                                        "source": ["X0"],
                                                        "target": "X0"}]),
                                        ("morphisms", [{"name": "g",
                                                        "source": "X0",
                                                        "target": "nowhere"}])])
def test_bad_groupoid_payload_is_an_input_error(pair2_file, tmp_path, key,
                                                value):
    with open(pair2_file) as fh:
        raw = json.load(fh)
    raw["payload"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["groupoid", str(path), "--dual", "--integrals"]) == 2


@pytest.mark.parametrize("objects, endpoint", [
    ([["X0"], ["X1"]], lambda x: [x]),           # list names, matched
    ("XY", {"X0": "X", "X1": "Y"}.get),          # a string, not a list
], ids=["list-names", "string"])
def test_groupoid_objects_must_be_a_list_of_names(pair2_file, tmp_path,
                                                  objects, endpoint):
    # the endpoints match the objects, so only the shape check can refuse
    with open(pair2_file) as fh:
        raw = json.load(fh)
    pay = raw["payload"]
    pay["objects"] = objects
    for m in pay["morphisms"]:
        m["source"], m["target"] = endpoint(m["source"]), endpoint(m["target"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["groupoid", str(path)]) == 2


@pytest.mark.parametrize("flag", ["--depth", "--appendix-fn"])
def test_negative_tower_argument_is_a_usage_error(markov_file, flag, capsys):
    assert cli.main(["tower", markov_file, flag, "-3"]) == 2
    err = capsys.readouterr().err
    assert "non-negative" in err and err.startswith("usage:")


def test_unknown_flag_is_a_usage_error(markov_file, capsys):
    assert cli.main(["tower", markov_file, "--deep"]) == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


def test_tower_non_depth2_fails_at_depth2_stage(tmp_path, capsys):
    cert = corpus.ext_s3_z2()
    path = tmp_path / "s3.json"
    sf.dump(sf.specfile_for((cert.incl, cert.E, cert.trace), "s3_z2"), path)
    rc = cli.main(["tower", str(path), "--derive"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL depth2" in out
    # every stage before depth-2 passes
    for law in ("symmetric", "strongly_separable", "braid_1_2_1",
                "pimsner_popa_right_e2", "level_1", "level_2"):
        assert "PASS %s " % law in out


@pytest.mark.parametrize("stage, exc", [
    ("conditional_expectations", ag.NotClosed("E_B applied outside C")),
    ("pairing", ag.NotKanzaki("no symmetric separability element")),
    ("DerivedWeakHopf", la.NoSolution("singular matrix")),
    ("psi_iso", ag.NotAssociative(0, 1, 2, {}, {0: 1})),
], ids=["NotClosed", "NotKanzaki", "NoSolution", "NotAssociative"])
def test_derivation_stage_exception_is_a_failed_entry(markov_file, monkeypatch,
                                                      capsys, stage, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(tw, stage, fail)
    rc = cli.main(["--format", "machine", "tower", markov_file, "--derive"])
    assert rc == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    failed = [r for r in records if r.get("passed") is False]
    assert [(r["name"], r["witness"]) for r in failed] == [
        ("derivation", "%s: %s" % (type(exc).__name__, exc))]
    assert records[-1]["failed"] == 1


def extension_file(tmp_path, name):
    """Spec file of the corpus Markov extension `name`."""
    cert = EXTENSIONS[name]()
    path = tmp_path / (name + ".json")
    sf.dump(sf.specfile_for((cert.incl, cert.E, cert.trace), name), path)
    return str(path)


# exit status and sha256 of the `tower --derive --format machine` report of
# each extension, recorded before the depth-2 pipeline was refactored to
# build each shared object once (the first three) and before the smash
# product read its basis tables (q_in_m2, index 4, and the non-depth-2
# control s3_z2), and before the derivation read its traces against
# covectors (q_in_q3, index 3): the refactors keep every byte.  The same
# bytes come out over F_13 and over the large prime 65521, where residues
# near p show a missed reduction mod p
DERIVE_DIGESTS = {
    "q_in_q2": (0,
        "7e95dfcff4404f0ce077814268f80a8dae29dd93742a3deeb4d61a189f466180"),
    "q2_in_m2": (0,
        "686139c7b89c1082c3830bf74e571e4e8527ea72a394bdf94d49e7947ba91e41"),
    "trivial_m2": (0,
        "ccdfbb39e0d45822c449acdab46f831d8e2a868b9d686b5805959986ff9e8f17"),
    "q_in_m2": (0,
        "872333cde23356db52161788b8ec55bdc5b6c0abe9604d637161fe3618a02a8e"),
    "s3_z2": (1,
        "980b57225e7b08bc20a4a2a3d3f99487fa47e4a5be76137e3a547ac1f103d509"),
    "q_in_q3": (0,
        "5a24ba4ffe93b2655f233f5647fa918ebce01c06c79fcdfffb9d4ff0563390b5"),
}
EXTENSIONS = {"q_in_q2": corpus.ext_q_q2, "q_in_q3": corpus.ext_q_q3,
              "q2_in_m2": corpus.ext_q2_m2,
              "trivial_m2": corpus.ext_trivial_m2, "q_in_m2": corpus.ext_q_m2,
              "s3_z2": corpus.ext_s3_z2}


@pytest.mark.parametrize("name, field", [
    ("q_in_q2", None), ("q2_in_m2", None), ("trivial_m2", None),
    ("q_in_q2", "prime 13"), ("q_in_m2", None), ("q_in_m2", "prime 13"),
    ("s3_z2", None), ("s3_z2", "prime 13"), ("q_in_q2", "prime 65521"),
    ("q2_in_m2", "prime 65521"), ("q_in_m2", "prime 65521"),
    ("s3_z2", "prime 65521"), ("q_in_q3", None), ("q_in_q3", "prime 13"),
    ("q_in_q3", "prime 65521")])
def test_derive_reports_are_pinned(tmp_path, capsys, name, field):
    path = extension_file(tmp_path, name)
    if field is not None:
        path = with_field(path, tmp_path, field)
    status, digest = DERIVE_DIGESTS[name]
    assert cli.main(["--format", "machine", "tower", path, "--derive"]) \
        == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_read_laws_keep_their_witnesses_under_delta_cop(
        tmp_path, capsys, monkeypatch):
    # B's Delta replaced by Delta^cop on q_in_m2 over F_13: the laws read
    # from covectors and E_M1 tables fail where they failed when each side
    # was formed in M2, with the same witnesses (recorded before)
    make = wha.make_weakhopf
    made = []

    def cop(alg, delta, eps, s):
        if not made:  # the first weak Hopf algebra of a derivation is B
            n = alg.dim
            delta = [{ij % n * n + ij // n: c for ij, c in r.items()}
                     for r in delta]
        made.append(alg)
        return make(alg, delta, eps, s)

    monkeypatch.setattr(wha, "make_weakhopf", cop)
    path = with_field(extension_file(tmp_path, "q_in_m2"), tmp_path,
                      "prime 13")
    assert cli.main(["--format", "machine", "tower", path, "--derive"]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert [(r["name"], r["witness"]) for r in records
            if "name" in r and not r["passed"]] == [
        ("delta_one_formula", None), ("delta_one_symmetric", None),
        ("delta_right_V", "(0, 0)"), ("delta_one_legs", "(left, 0)"),
        ("lemma_c", "basis 0"), ("lemma_d", "(0, 1)"),
        ("pairing_slice", "(0, 1)"), ("sweedler_recovery", "basis 0"),
        ("heart", "basis 0"), ("m1_slice", "(0, 0)"),
        ("expectation_measuring", "(0, 0, 0)"), ("eps_t_formula", "basis 0"),
        ("Ht_is_V", None), ("Hs_is_W", None),
        ("gram_algebra_iso", "(0, 1)"), ("measuring", "(0, 0, 0)"),
        ("conjugation_form", "(0, 0)"),
        ("expectation_measuring_form", "(0, 0, 0)"),
        ("right_Ht_action", "(0, 2)"), ("well_defined", "(ii, 0, 2)"),
        ("dimension", "0 vs 64"),
        ("bijective", None), ("unital", None),
        ("inverse_formula", "basis 0"), ("tower_compatible", "basis 0")]


def test_appendix_depth_stays_within_the_budget(tmp_path, capsys,
                                                monkeypatch):
    # s3_z2 levels measure 18, 54, 162, 486, ...: with --depth 3, M3 is
    # already past the budget of f_n, so no level above it is built.
    # q_in_m2 levels measure 16, 64, 256: M3 is refused from the dimension
    # of its relative tensor square, before it is built, so f1 finds the
    # tower too short
    for name, depth, dims, f1_witness in (
            ("s3_z2", ["--depth", "3"], [6, 18, 54],
             "ambient dimension 162 exceeds the budget 64"),
            ("q_in_m2", [], [4, 16], "tower not built to level 3")):
        built = counting(monkeypatch, tw, "basic_construction")
        path = extension_file(tmp_path, name)
        assert cli.main(["tower", path] + depth + ["--appendix-fn", "2"]) \
            == 1
        out = capsys.readouterr().out
        assert "FAIL f1  " in out and "FAIL f2  " in out
        assert "witness: %s\n" % f1_witness in out
        assert [args[0].incl.big.dim for args in built] == dims
        monkeypatch.undo()


# sha256 of the `tower --format machine` report of plain tower runs, each
# exiting 0, recorded before the conditional expectations kept their
# E(e_i e_j) table: the same bytes over Q and over F_65521.  A refused spec
# writes no report; its digest covers the input error on stderr, which
# names the first basis pair where E is not N-linear (recorded before
# those laws were read off E's table in one sum per basis row)
TOWER_DIGESTS = {
    ("q_in_q2", "--depth", "5", "--appendix-fn", "2"):
        "236c14773581fbc7caf9619b999cab99ce8722f83d1263706a3263845d4656d1",
    ("q2_in_m2", "--depth", "4"):
        "7bbc32775c9acde129d298e21930d302178556c570fe567a675449c649b8b5b2",
    ("q_in_m2", "--depth", "2"):
        "e5968c17d7c7e2b07490fab5a692be10454367003c08a35168bb874fe65ef808",
    ("s3_z2", "--depth", "2"):
        "18811e69cb8ea5780cb30dfc85f22d0b314bafc688b9fb55323e7488457b3548",
    ("trivial_m2", "--depth", "3"):
        "22064d9a4d6b78ff9911da4f3c5938dc980fd25d78b628298afe16534eb29edc",
    ("q2_in_m2", "--depth", "2", "not left N-linear"):
        "7dc7a00822f2fa611a099ac24a528d8533859cf8de259b6c59a1bef958fb5d2f",
}


def not_left_linear_file(tmp_path):
    """q2_in_m2 with E(e10) = d0: E(e00 e10) = 0 != d0 E(e10), so E is not
    left N-linear at (0, 2) and the spec is refused."""
    with open(extension_file(tmp_path, "q2_in_m2")) as fh:
        raw = json.load(fh)
    raw["payload"]["expectation"][2] = ["1", "0"]
    path = tmp_path / "not-left-linear.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("field", [None, "prime 65521"])
@pytest.mark.parametrize("run", sorted(TOWER_DIGESTS), ids=" ".join)
def test_tower_reports_are_pinned(tmp_path, capsys, run, field):
    flags = [f for f in run[1:] if not f.startswith("not ")]
    if run[-1] == "not left N-linear":
        path, want = not_left_linear_file(tmp_path), 2
    else:
        path, want = extension_file(tmp_path, run[0]), 0
    if field is not None:
        path = with_field(path, tmp_path, field)
    assert cli.main(["--format", "machine", "tower", path] + flags) == want
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == \
        TOWER_DIGESTS[run]


# sha256 of the machine report of verify-wha and groupoid runs on pair2,
# recorded before the weak Hopf layer kept Delta(1), eps_t, eps_s and the
# counital data on the object: the same bytes over Q, over F_13 and over
# F_65521.  A refused spec writes no report; its digest covers the input
# error on stderr, which names the witness of every failing coalgebra law
# (recorded before those laws were read off the legs in one sum).  The bad
# antipode report was pinned again when antipode_unique gained its witness
# ("basis 1"); every other line of it kept its bytes
WHA_DIGESTS = {
    ("verify-wha",):
        "f8b8582e7801a0fbc262a51659ccfb648cd06b51b3e3d023ff75cc4cbdc96057",
    ("verify-wha", "bad antipode"):
        "ac305f82dc78753a29e955c1f42f5f3b16bc9933e0ee8f56a2cd9b70ebf018ff",
    ("verify-wha", "bad coproduct"):
        "322a4e6d8eb7808956e463eb8e10df94acb2374280f6a448cff92b78d675d136",
    ("groupoid",):
        "3cc47f3964369c91327f30459d8ee29e7ae4d9b3bd08da232c507383126c3f16",
    ("groupoid", "--dual"):
        "02682e7cef6668e3dc752a84f258e58b8039246c764198654294d63a2e554e6e",
    ("groupoid", "--integrals"):
        "31cf792919972f171574de1db655c7f9e6371612eb18f50ced92ca579f98a3bd",
    ("groupoid", "--dual", "--integrals"):
        "3d2e4a6677f5402a8e9f2679ebfae2bba6bb3df9c928099af5e9c033935d502c",
}


@pytest.mark.parametrize("field", [None, "prime 13", "prime 65521"])
@pytest.mark.parametrize("run", sorted(WHA_DIGESTS), ids=" ".join)
def test_wha_reports_are_pinned(pair2_file, bad_antipode_file,
                                bad_coproduct_file, tmp_path, capsys, run,
                                field):
    command, flags = run[0], [f for f in run[1:] if f.startswith("--")]
    path, want = {"bad antipode": (bad_antipode_file, 1),
                  "bad coproduct": (bad_coproduct_file, 2)}.get(
                      run[-1], (pair2_file, 0))
    if field is not None:
        path = with_field(path, tmp_path, field)
    rc = cli.main(["--format", "machine", command, path] + flags)
    assert rc == want
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == WHA_DIGESTS[run]


def computed(monkeypatch, name, owner=wha.WeakHopf):
    """Record the object of every computation of owner.<name>."""
    objects = []
    prop = owner.__dict__[name]
    fn = prop.func

    def wrapper(H):
        objects.append(H)
        return fn(H)

    monkeypatch.setattr(prop, "func", wrapper)
    return objects


def test_verify_wha_runs_the_axiom_engine_once_per_object(pair2_file,
                                                          monkeypatch):
    runs = counting(monkeypatch, wha, "verify_axioms")
    assert cli.main(["verify-wha", pair2_file]) == 0
    # H and its dual, each verified once; the dual of the dual is decided
    # on the matrices, and when they match it is H, verified already
    assert len(runs) == 2
    assert len({id(args[0]) for args in runs}) == 2


def test_verify_wha_decides_the_coalgebra_laws_once_per_object(pair2_file,
                                                               monkeypatch):
    # make_weakhopf requires the laws and verify_axioms reports them: one
    # decision serves both
    runs = counting(monkeypatch, wha, "coalgebra_checks")
    assert cli.main(["verify-wha", pair2_file]) == 0
    assert runs and len({id(args[0]) for args in runs}) == len(runs)


def test_groupoid_runs_the_axiom_engine_once_per_object(pair2_file,
                                                        monkeypatch):
    runs = counting(monkeypatch, wha, "verify_axioms")
    laws = counting(monkeypatch, wha, "coalgebra_checks")
    duals = counting(monkeypatch, wha, "dual")
    made = []
    for name in ("groupoid_algebra", "groupoid_dual"):
        monkeypatch.setattr(gp, name, lambda *args, fn=getattr(gp, name):
                            made.append(fn(*args)) or made[-1])
    assert cli.main(["groupoid", pair2_file, "--dual", "--integrals"]) == 0
    # kG and the dual built from its own formulas, which is compared with
    # the transpose of kG on the matrices: no transpose dual is built
    kG, Hd = made
    assert [id(args[0]) for args in runs] == [id(kG), id(Hd)]
    assert duals == []
    assert laws and len({id(args[0]) for args in laws}) == len(laws)


def test_main_builds_its_parser_once(pair2_file, markov_file, monkeypatch,
                                     capsys):
    assert cli.main(["verify-wha", pair2_file]) == 0
    inits = counting(monkeypatch, argparse.ArgumentParser, "__init__")
    assert cli.main(["groupoid", pair2_file, "--dual"]) == 0
    assert cli.main(["tower", markov_file, "--depth", "1"]) == 0
    assert cli.main(["tower", markov_file, "--depth", "x"]) == 2
    assert inits == []


def test_main_carries_no_option_into_the_next_call(pair2_file, markov_file,
                                                   capsys):
    def run(*argv):
        rc = cli.main(list(argv))
        return rc, capsys.readouterr().out

    def fresh(*argv):
        cli._parser.cache_clear()
        return run(*argv)

    run("--format", "machine", "tower", markov_file, "--derive")
    plain = run("tower", markov_file)
    assert plain == fresh("tower", markov_file)
    assert "derivation" not in plain[1] and "B_axiom" not in plain[1]
    assert "pipeline: tower q_in_q2" in plain[1]
    assert run("tower", markov_file, "--depth", "-1")[0] == 2
    after_error = run("--format", "machine", "verify-wha", pair2_file)
    assert after_error[0] == 0
    assert after_error == fresh("--format", "machine", "verify-wha",
                                pair2_file)


def test_derivation_computes_weak_hopf_structure_once(markov_file,
                                                      monkeypatch):
    built = {name: computed(monkeypatch, name)
             for name in ("delta_one", "eps_rows")}
    counitals = counting(monkeypatch, wha, "counital")
    results = derivations(monkeypatch)
    assert cli.main(["tower", markov_file, "--derive"]) == 0
    for name, objects in built.items():
        assert objects, name
        assert len({id(H) for H in objects}) == len(objects), name
    (_, res), = results
    dw = res["derived"]
    assert [id(args[0]) for args in counitals] == [id(dw.B), id(dw.A)]


def test_tower_builds_each_expectation_table_once(markov_file, monkeypatch):
    tables = computed(monkeypatch, "products", ag.CondExpectation)
    made = []
    make = ag.make_cond_expectation
    monkeypatch.setattr(ag, "make_cond_expectation",
                        lambda *args: made.append(make(*args)) or made[-1])
    assert cli.main(["tower", markov_file, "--depth", "3"]) == 0
    # the base E and E_down of each of the three levels, one table each
    assert len(made) == 4
    assert [id(E) for E in tables] == [id(E) for E in made]


@pytest.mark.parametrize("field", [None, "prime 65521"])
@pytest.mark.parametrize("a", [F(1, 3), F(3, 4), F(2)])
def test_skewed_markov_failures_keep_their_first_witness(tmp_path, capsys,
                                                         a, field):
    # Q in M2 with E(e00) = a, E(e11) = 1 - a, a != 1/2: T0 = T o E is not a
    # trace, first at (e01, e10), and C_M(N) = M2 is not E-symmetric there
    incl = corpus.ext_q_m2().incl
    E = ag.make_cond_expectation(incl, [{0: a}, {}, {}, {0: 1 - a}])
    path = tmp_path / "skew.json"
    sf.dump(sf.specfile_for((incl, E, (1,)), "skew"), path)
    if field is not None:
        path = with_field(path, tmp_path, field)
    assert cli.main(["--format", "machine", "tower", str(path)]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    witnesses = {r["name"]: r["witness"] for r in records
                 if r.get("passed") is False}
    assert witnesses["T0_trace"] == witnesses["symmetric"] == "(1, 2)"


def failing_dual(H):
    """A wha.dual whose dual fails two of its axioms; also a stand-in for a
    make_weakhopf whose result fails them."""
    raise VerificationError([
        Check("antipode_target", "h1 S(h2) = eps_t(h)", True),
        Check("antipode_sandwich", "S(h1) h2 S(h3) = S(h)", False,
              "basis 1"),
        Check("s_bijective", "S is bijective", False)])


def machine_failures(out):
    """The records of a machine report and its (name, witness) failures."""
    records = [json.loads(line) for line in out.splitlines()]
    return records, [(r["name"], r["witness"]) for r in records
                     if r.get("passed") is False]


def test_dual_failing_its_axioms_is_a_failed_entry(pair2_file, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(wha, "dual", failing_dual)
    rc = cli.main(["--format", "machine", "verify-wha", pair2_file])
    assert rc == 1
    records, failed = machine_failures(capsys.readouterr().out)
    assert failed == [("dual_axioms", "antipode_sandwich, s_bijective")]
    assert records[-1]["failed"] == 1
    assert [r["name"] for r in records[-3:-1]] == ["maschke", "dual_axioms"]


def test_dual_not_transposing_back_fails_the_involution(pair2_file,
                                                        monkeypatch, capsys):
    # one more entry in row 0 of the dual's S, at column 2: the transpose of
    # the dual differs from H in row 2 of S and nowhere else
    dual = wha.dual

    def skewed_dual(H):
        Hd = dual(H)
        s = list(Hd.s)
        s[0] = {**s[0], 2: s[0].get(2, 0) + 1}
        return dataclasses.replace(Hd, s=tuple(s))

    monkeypatch.setattr(wha, "dual", skewed_dual)
    rc = cli.main(["--format", "machine", "verify-wha", pair2_file])
    assert rc == 1
    records, failed = machine_failures(capsys.readouterr().out)
    assert failed == [("dual_involution", "s basis 2")]
    assert records[-1]["failed"] == 1
    assert [r["name"] for r in records[-3:-1]] == ["dual_axioms",
                                                    "dual_involution"]


def test_groupoid_dual_failing_its_axioms_is_one_line(pair2_file,
                                                      monkeypatch, capsys):
    # the explicit dual, the second object the command verifies, made to
    # fail coassociativity: each failed entry names the law on its own line
    verify = wha.verify_axioms
    runs = []

    def failing_on_the_dual(H):
        runs.append(H)
        if len(runs) == 1:
            return verify(H)
        return CheckList([Check("coassociativity", "(Delta (x) id)Delta = "
                                "(id (x) Delta)Delta", False, "(0,)")])

    monkeypatch.setattr(wha, "verify_axioms", failing_on_the_dual)
    assert cli.main(["groupoid", pair2_file, "--dual", "--integrals"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("PASS")] == [
        "pipeline: groupoid pair2",
        "FAIL dual_formulas  [the function-algebra dual matches the "
        "transpose dual]  witness: coassociativity",
        "FAIL integral_spans  [unit-indexed sums span the integral spaces]"
        "  witness: coassociativity",
        "%d passed, 2 failed" % (len(lines) - 4)]
    # kG and its explicit dual, each verified once
    assert len(runs) == 2


def test_derivation_failing_a_required_law_is_a_failed_entry(
        markov_file, monkeypatch, capsys):
    # tower._build requires make_weakhopf to accept A: the second weak Hopf
    # algebra it makes, A after B, raises the failure of two laws
    make = wha.make_weakhopf
    made = []

    def failing_for_A(alg, delta, eps, s):
        made.append(alg)
        if len(made) == 2:
            failing_dual(None)
        return make(alg, delta, eps, s)

    monkeypatch.setattr(wha, "make_weakhopf", failing_for_A)
    results = derivations(monkeypatch)
    rc = cli.main(["--format", "machine", "tower", markov_file, "--derive"])
    assert rc == 1
    assert len(made) == 2 and results == []
    records, failed = machine_failures(capsys.readouterr().out)
    assert failed == [("derivation", "antipode_sandwich, s_bijective")]
    assert records[-2]["name"] == "derivation"


# ---------------------------------------------------------------------------
# every mutated spec ends with a defined outcome

def fuzz_specs():
    """(raw spec, commands) of small stored specs: the pair2 groupoid, its
    weak Hopf algebra, and q_in_q2 over Q and F_13.  No ambient space of
    their pipelines exceeds dimension 16 (q_in_q2 reaches M2 of dimension
    8), which bounds the time of every example."""
    G = gp.pair(2)
    cert = corpus.ext_q_q2()
    markov = sf.specfile_for((cert.incl, cert.E, cert.trace), "q_in_q2")
    specs = [(sf.specfile_for(G, "pair2"),
              (["verify-wha"], ["groupoid", "--dual", "--integrals"])),
             (sf.specfile_for(gp.groupoid_algebra(G), "pair2-wha"),
              (["verify-wha"],)),
             (markov, (["tower", "--depth", "2"], ["tower", "--derive"])),
             (sf.SpecFile(markov.kind, markov.name, 13, markov.payload),
              (["tower", "--depth", "2"], ["tower", "--derive"]))]
    return [({"kind": s.kind, "name": s.name, "field": s.field_label,
              "payload": s.payload}, cmds) for s, cmds in specs]


FUZZ_SPECS = fuzz_specs()


def leaf_paths(node, path=()):
    """The key path of every leaf of a JSON value (not a list or object)."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaf_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaf_paths(v, path + (i,))
    else:
        yield path


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(FUZZ_SPECS), st.data(),
       st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", 0, 3,
                        None, [], "x", 5, {}]))
def test_mutated_specs_end_with_a_defined_outcome(tmp_path_factory, spec,
                                                  data, value):
    raw, commands = spec
    raw = copy.deepcopy(raw)
    paths = list(leaf_paths(raw["payload"]))
    path = data.draw(st.sampled_from(paths))
    node = raw["payload"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    spec_path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec_path.write_text(json.dumps(raw))
    for cmd in commands:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(["--format", "machine", cmd[0], str(spec_path)]
                          + cmd[1:])
        assert rc in (0, 1, 2), (path, value, cmd)
        for line in out.getvalue().splitlines():
            json.loads(line)


def test_derive_forms_no_product_for_the_balancing_or_measuring(
        tmp_path, capsys, monkeypatch):
    # a passing q_in_q2 derivation: the smash kernel mul_amb runs once per
    # cell of each smash table (the relation loop multiplied every relation
    # by every section column on both sides as well), and the three
    # measuring laws call no Algebra.mul
    smashed, open_laws, in_laws = [], [], []
    smash, mul = ac.smash, ag.Algebra.mul
    enter, leave = checks._Law.__enter__, checks._Law.__exit__

    def law_enter(self):
        open_laws.append(self.name)
        return enter(self)

    def law_exit(self, *exc):
        open_laws.pop()
        return leave(self, *exc)

    def counted_mul(self, x, y):
        if set(open_laws) & {"measuring", "expectation_measuring",
                             "expectation_measuring_form"}:
            in_laws.append(open_laws[-1])
        return mul(self, x, y)

    monkeypatch.setattr(ac, "smash", lambda M: smashed.append(smash(M))
                        or smashed[-1])
    monkeypatch.setattr(checks._Law, "__enter__", law_enter)
    monkeypatch.setattr(checks._Law, "__exit__", law_exit)
    monkeypatch.setattr(ag.Algebra, "mul", counted_mul)
    kernel = []
    sys.setprofile(lambda frame, event, arg: kernel.append(1) if (
        event == "call" and frame.f_code.co_name == "mul_amb") else None)
    try:
        rc = cli.main(["tower", extension_file(tmp_path, "q_in_q2"),
                       "--derive"])
    finally:
        sys.setprofile(None)
    assert rc == 0 and "FAIL" not in capsys.readouterr().out
    assert [sm.alg.dim for sm in smashed] == [8, 4]
    assert len(kernel) == 8 * 8 + 4 * 4
    assert in_laws == []
