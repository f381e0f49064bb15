"""Golden tests for the command-line interface: exit-code contract and
deterministic JSON output.  Commands run in-process through
``cli_runner.run_cli``, which keeps standard output and standard error
apart: reports are read from the first, usage-error messages from the
second."""

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest
from cli_runner import run_cli
from values import replace

from dualkit import DomainError, MalformedInput
from dualkit.cli import main
from dualkit.diagram import load_trace
from dualkit.models import UnsupportedShape

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import cli_timings  # noqa: E402

def run(*args, env=None):
    return run_cli(args, env)


class TestDiagrams:
    def test_verify_all(self):
        res = run("diagrams", "verify", "--all", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert data["ok"] and len(data["traces"]) >= 12

    def test_verify_single_bundled(self):
        res = run("diagrams", "verify", "--trace", "dual-euler-twist")
        assert res.exit_code == 0

    def test_verify_corrupted_file(self, tmp_path):
        trace = load_trace("crossings-collapse")
        bad = replace(trace, steps=trace.steps[:-1])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_json()))
        res = run("diagrams", "verify", "--trace", str(path),
                  "--format", "json")
        assert res.exit_code == 1
        assert not json.loads(res.stdout)["ok"]

    def test_missing_trace_is_domain_error(self):
        res = run("diagrams", "verify", "--trace", "no-such-trace")
        assert res.exit_code == 1

    def test_all_with_trace_is_usage_error(self):
        res = run("diagrams", "verify", "--all", "--trace",
                  "dual-euler-twist")
        assert res.exit_code == 2


class TestSpan:
    A = json.dumps({"dom": 2, "cod": 2, "matrix": [[1, 2], [0, 1]]})
    B = json.dumps({"dom": 2, "cod": 2, "matrix": [[1, 1], [1, 0]]})

    def test_compose_is_matrix_product(self):
        res = run("span", "compose", "--left", self.A, "--right", self.B,
                  "--format", "json")
        assert res.exit_code == 0
        out = json.loads(res.stdout)["result"]
        assert out["matrix"] == [[3, 1], [1, 0]]

    def test_tensor(self):
        res = run("span", "tensor", "--left", self.A, "--right", self.B,
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["result"]["dom"] == 4

    def test_dual_check(self):
        for n in (1, 2, 3, 4):
            res = run("span", "dual-check", "--size", str(n))
            assert res.exit_code == 0

    @pytest.mark.parametrize("size", ["-1", "33"])
    def test_dual_check_size_out_of_range_is_usage_error(self, size):
        # the check's memory grows as size ** 4, so sizes stop at 32
        start = time.perf_counter()
        res = run("span", "dual-check", "--size", size)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2

    def test_dual_check_largest_size(self):
        res = run("span", "dual-check", "--size", "32", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["ok"]

    def test_cofiber_shapes(self):
        cases = {
            ("zero-to-one", "0,1"): 1,
            ("fold", "2,1"): 0,
            ("backward", "2,1"): 0,
        }
        for (shape, sizes), expected in cases.items():
            res = run("span", "cofiber", "--shape", shape, "--sizes", sizes,
                      "--format", "json")
            assert res.exit_code == 0
            assert json.loads(res.stdout)["cofiber"]["obj"] == expected

    def test_cofiber_requires_exactly_one_source(self):
        res = run("span", "cofiber")
        assert res.exit_code == 2

    @pytest.mark.parametrize("sizes", [
        "2", "a,b", "-1,2", "1,2,3", "", "257,1", "1,257",
        pytest.param("9" * 5000 + ",1", id="5000-digits")])
    def test_cofiber_sizes_not_two_naturals_is_usage_error(self, sizes):
        # each side stops at 256: the output grows as dom * cod
        res = run("span", "cofiber", "--shape", "fold", "--sizes", sizes)
        assert res.exit_code == 2

    def test_cofiber_largest_sizes(self):
        res = run("span", "cofiber", "--shape", "zero", "--sizes", "256,256",
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["cofiber"]["obj"] == 256

    def test_mismatched_compose_is_domain_error(self):
        small = json.dumps({"dom": 1, "cod": 1, "matrix": [[1]]})
        res = run("span", "compose", "--left", self.A, "--right", small)
        assert res.exit_code == 1


class TestEvConst:
    def test_cofiber_of_a_large_prime(self):
        start = time.perf_counter()
        res = run("evconst", "cofiber", "--morphism",
                  '{"free": [[1000000000000000003]]}', "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 0
        assert json.loads(res.stdout)["cofiber"]["json"]["exc"] == \
            {"1000000000000000003": 1}

    def test_cofiber_of_six(self):
        res = run("evconst", "cofiber", "--morphism",
                  '{"free": [[6]], "explicit": {}}', "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert data["cofiber"]["obj"] == "S/2 + S/3"

    def test_biproduct(self):
        res = run("evconst", "biproduct", "--x", "S/2", "--y", "S",
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["ok"]

    def test_split(self):
        res = run("evconst", "split", "--m", "6", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert data["torsion_part"] == "S/2 + S/3"

    @pytest.mark.parametrize("obj", [
        "S^257", "S^256+S/2", '{"f": 257}', "Q",
        pytest.param("S^" + "9" * 5000, id="5000-digits"),
        "S/" + "9" * 26, '{"f": 0, "exc": {"%s": 1}}' % ("9" * 26),
        pytest.param("S/" + "9" * 5000, id="prime-5000-digits"),
        pytest.param('{"f": 0, "exc": {"%s": 1}}' % ("9" * 5000),
                     id="prime-key-5000-digits")])
    def test_object_unparsed_or_above_256_is_usage_error(self, obj):
        # each dimension stops at 256; S^256 splits in under a second;
        # a prime has at most 25 digits (is_prime proves primality only
        # below 3.3e24)
        res = run("evconst", "split", "--m", "6", "--object", obj)
        assert res.exit_code == 2

    @pytest.mark.parametrize("obj", [
        pytest.param("S^" + "9" * 5000, id="5000-digits"),
        pytest.param("S/" + "9" * 5000, id="prime-5000-digits")])
    def test_unparsed_object_echo_is_cut(self, obj):
        res = run("evconst", "biproduct", "--x", obj, "--y", "S")
        assert res.exit_code == 2
        message = res.stderr.splitlines()[-1]
        assert message.startswith("dualkit evconst biproduct: error: ")
        assert len(message.encode()) < 200

    @pytest.mark.parametrize("obj", [
        "S/3000000000000000000000007",
        '{"f": 0, "exc": {"3000000000000000000000007": 1}}'])
    def test_prime_of_25_digits_parses(self, obj):
        res = run("evconst", "biproduct", "--x", obj, "--y", "S",
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["object"] == \
            "S + S/3000000000000000000000007"

    def test_split_largest_object(self):
        res = run("evconst", "split", "--m", "6", "--object", "S^256",
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["object"] == "S^256"

    def test_compose(self):
        f = json.dumps({"free": [[2]], "explicit": {}})
        res = run("evconst", "compose", "--left", f, "--right", f,
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["result"]["free"] == [[4]]


class TestIdem:
    def test_clopen_verdict_true(self):
        res = run("idem", "clopen", "--model", "evconst",
                  "--object", "S/2", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["ok"]

    def test_closed_all_models(self):
        for model in ("spanfin", "evconst", "product"):
            res = run("idem", "closed", "--model", model)
            assert res.exit_code == 0

    def test_untwist_and_euler(self):
        assert run("idem", "untwist", "--model", "spanfin").exit_code == 0
        res = run("idem", "euler", "--model", "spanfin", "--size", "3",
                  "--format", "json")
        assert res.exit_code == 0
        # the twist is multiplication by the Euler characteristic |T| = 3
        twist = json.loads(res.stdout)["twist"]
        assert twist["matrix"] == [[3 if i == j else 0 for j in range(3)]
                                   for i in range(3)]

    @pytest.mark.parametrize("size", ["-1", "33"])
    def test_euler_size_out_of_range_is_usage_error(self, size):
        # the twist's memory grows as size ** 4, so sizes stop at 32
        res = run("idem", "euler", "--model", "spanfin", "--size", size)
        assert res.exit_code == 2

    def test_euler_largest_size(self):
        res = run("idem", "euler", "--model", "spanfin", "--size", "32",
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["twist"]["matrix"][31][31] == 32

    def test_complement(self):
        res = run("idem", "complement", "--model", "evconst",
                  "--object", "S/3", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["smash_with_complement"] == "0"

    @pytest.mark.parametrize("cmd", ["clopen", "complement", "split-homs"])
    @pytest.mark.parametrize("obj", ["S", "S^3", "0", '{"f": 2}'])
    def test_torsion_free_object_is_usage_error(self, cmd, obj):
        # such an object selects no clopen idempotent; S/2 was used
        res = run("idem", cmd, "--model", "evconst", "--object", obj)
        assert res.exit_code == 2
        assert "no torsion" in res.stderr

    @pytest.mark.parametrize("cmd", ["clopen", "complement"])
    def test_omitted_object_selects_s_mod_2(self, cmd):
        res = run("idem", cmd, "--model", "evconst", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["E"] == "S/2"

    def test_complement_needs_additive_model(self):
        res = run("idem", "complement", "--model", "spanfin")
        assert res.exit_code == 1

    def test_split_homs_seeded(self):
        a = run("idem", "split-homs", "--pairs", "6", "--format", "json")
        b = run("idem", "split-homs", "--pairs", "6", "--format", "json")
        assert a.exit_code == 0 and a.stdout == b.stdout
        c = run("idem", "split-homs", "--pairs", "6", "--format", "json",
                env={"DUALKIT_SEED": "7"})
        assert c.exit_code == 0
        assert json.loads(c.stdout)["seed"] == 7

    @pytest.mark.parametrize("pairs", ["0", "-3", "1001"])
    def test_split_homs_needs_a_pair(self, pairs):
        # pairs run from 1 to 1000; 1000 take about a second
        res = run("idem", "split-homs", "--pairs", pairs)
        assert res.exit_code == 2

    def test_gp(self):
        res = run("idem", "gp", "--model", "spanfin", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["E"] == "0"


class TestEqui:
    def test_lattice(self):
        res = run("equi", "lattice", "--group", "s3", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert [c["subgroup_order"] for c in data["classes"]] == [1, 2, 3, 6]

    def test_weyl(self):
        res = run("equi", "weyl", "--group", "s3", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert [r["weyl_order"] for r in data["weyl"]] == [6, 1, 2, 1]

    def test_fixdim(self):
        res = run("equi", "fixdim", "--group", "s3", "--rep", "standard",
                  "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert [c["fixed_dim"] for c in data["classes"]] == [2, 1, 0, 0]

    def test_collapse_and_validate_roundtrip(self, tmp_path):
        res = run("equi", "collapse", "--group", "c4", "--format", "json")
        assert res.exit_code == 0
        cert = json.loads(res.stdout)
        cert.pop("ok")
        cert.pop("validation")
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        ok = run("equi", "validate", "--group", "c4", "--cert", str(path))
        assert ok.exit_code == 0
        # validating against the wrong group fails with a report
        bad = run("equi", "validate", "--group", "s3", "--cert", str(path))
        assert bad.exit_code == 1

    def test_certificate_bound_to_its_group(self, tmp_path):
        res = run("equi", "collapse", "--group", "c4", "--format", "json")
        cert = tmp_path / "c4-cert.json"
        cert.write_text(res.stdout)
        # C9 has as many classes as C4, so only the group binding can
        # tell the certificate is not about it
        c9 = tmp_path / "c9.json"
        c9.write_text(json.dumps({"degree": 9, "generators": [
            [2, 3, 4, 5, 6, 7, 8, 9, 1]]}))
        bad = run("equi", "validate", "--group", str(c9), "--cert",
                  str(cert), "--format", "json")
        assert bad.exit_code == 1
        report = json.loads(bad.stdout)
        assert report["ok"] is False and "degree" in report["message"]
        # the same group presented by another generator still validates
        c4 = tmp_path / "c4.json"
        c4.write_text(json.dumps({"degree": 4,
                                  "generators": [[4, 1, 2, 3]]}))
        ok = run("equi", "validate", "--group", str(c4), "--cert",
                 str(cert))
        assert ok.exit_code == 0

    def test_smash_removals_alone_are_no_certificate(self, tmp_path):
        # the SmashRemove steps alone, with their own conclusions added
        # as axioms so that every premise they cite is "derived"
        res = run("equi", "collapse", "--group", "s3", "--format", "json")
        cert = json.loads(res.stdout)
        removals = [s for s in cert["steps"] if s["rule"] == "SmashRemove"]
        cert["axioms"] += [s["conclusion"] for s in removals]
        cert["steps"] = removals
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(cert))
        bad = run("equi", "validate", "--group", "s3", "--cert", str(path),
                  "--format", "json")
        assert bad.exit_code == 1
        assert json.loads(bad.stdout)["ok"] is False

    def test_a_forged_vanishing_axiom_is_no_certificate(self, tmp_path):
        # the vanishing axiom replaced by the final fact F(S^0) = 0,
        # which then proves itself
        res = run("equi", "collapse", "--group", "s3", "--format", "json")
        axiom = json.loads(res.stdout)["axioms"][0]
        path = tmp_path / "forged.json"
        path.write_text(res.stdout.replace(axiom, "F(S^0) = 0"))
        bad = run("equi", "validate", "--group", "s3", "--cert", str(path),
                  "--format", "json")
        assert bad.exit_code == 1
        report = json.loads(bad.stdout)
        assert report["ok"] is False and report["step_index"] == -1

    @pytest.mark.parametrize("idx", ["4", "99", "-1"])
    def test_weyl_class_out_of_range_is_usage_error(self, idx):
        res = run("equi", "weyl", "--group", "s3", "--class", idx)
        assert res.exit_code == 2
        assert "class index 0..3" in res.stderr

    def test_weyl_single_class(self):
        res = run("equi", "weyl", "--group", "s3", "--class", "3",
                  "--format", "json")
        assert res.exit_code == 0
        assert [r["class"] for r in json.loads(res.stdout)["weyl"]] == [3]

    def test_collapse_unknown_rep_is_usage_error(self):
        res = run("equi", "collapse", "--rep", "totally-bogus")
        assert res.exit_code == 2

    def test_group_file_input(self, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"degree": 3,
                                    "generators": [[2, 3, 1]]}))
        res = run("equi", "lattice", "--group", str(path), "--format",
                  "json")
        assert res.exit_code == 0
        assert len(json.loads(res.stdout)["classes"]) == 2

    def test_unknown_group_is_domain_error(self):
        res = run("equi", "lattice", "--group", "nope")
        assert res.exit_code == 1

    @pytest.mark.parametrize("rep, dim", [
        ("trivial", 1), ("permutation", 0), ("regular", 1),
        ("reduced-regular", 0), ("standard", 0)])
    def test_fixdim_of_a_degree_zero_group(self, rep, dim, tmp_path):
        # the sum-zero subspace of Q^0 is {0}: no dimension is negative
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"degree": 0, "generators": []}))
        res = run("equi", "fixdim", "--group", str(path), "--rep", rep,
                  "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.stdout)
        assert data["ok"] and data["dim"] == dim
        assert [c["fixed_dim"] for c in data["classes"]] == [dim]


@pytest.fixture(scope="module")
def readme_inputs(tmp_path_factory):
    """A directory holding the files the README commands read."""
    path = tmp_path_factory.mktemp("readme")
    cli_timings.write_inputs(path)
    return path


class TestContract:
    def test_usage_error_is_exit_2(self):
        assert run("span", "frobble").exit_code == 2
        assert run("equi", "validate", "--group", "s3").exit_code == 2

    @pytest.mark.parametrize("args, code", [
        (("span", "dual-check", "--siz", "3"), 2),     # no option prefixes
        (("span", "dual-check", "--size=3"), 0),
        ((), 2), (("span",), 2), (("span", "frobble"), 2),
        (("equi", "validate", "--group", "s3", "--cert", "{dir}"), 2),
        (("equi", "validate", "--group", "s3", "--cert", "{dir}/none"), 2),
        (("equi", "weyl", "--group", "s3", "--class", "-1"), 2),
        (("evconst", "split", "--m", "-1"), 0),         # -1 is a value
        (("span", "dual-check", "extra"), 2),
        (("diagrams", "verify", "--all=1"), 2),
        (("-h",), 2),                                   # only --help
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_contract_probe(self, args, code, tmp_path):
        res = run(*(a.replace("{dir}", str(tmp_path)) for a in args))
        assert res.exit_code == code
        assert (res.stdout == "") == (code == 2)
        assert "Traceback" not in res.stderr

    def test_a_repeated_option_takes_its_last_value(self):
        res = run("span", "dual-check", "--size", "2", "--size", "3",
                  "--format", "text", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["object"] == 3

    def test_help_exits_0_on_standard_output(self):
        for args in ((), ("span",), ("span", "cofiber")):
            res = run(*args, "--help")
            assert res.exit_code == 0 and res.stderr == ""
            prog = " ".join(("dualkit", *args))
            assert res.stdout.startswith(f"usage: {prog} [--help]")

    @pytest.mark.parametrize("args", [
        ("diagrams", "verify", "--all"),
        ("equi", "collapse", "--group", "d4"),
        ("evconst", "split", "--m", "12"),
        ("idem", "split-homs",),
    ])
    def test_byte_identical_json_output(self, args):
        a = run(*args, "--format", "json")
        b = run(*args, "--format", "json")
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("args", [
        *cli_timings.readme_commands(),
        ["idem", "complement", "--model", "spanfin"],
        ["equi", "lattice", "--group", "nope"],
        ["diagrams", "verify", "--trace", "no-such-trace"],
        ["equi", "validate", "--group", "s3", "--cert", "cert.json"],
        ["span", "compose", "--left", '{"dom": 1, "cod": 1, "matrix": [[1]]}',
         "--right", '{"dom": 2, "cod": 2, "matrix": [[1, 0], [0, 1]]}'],
    ], ids=" ".join)
    def test_exit_code_is_the_reports_verdict(self, args, readme_inputs,
                                              monkeypatch):
        monkeypatch.chdir(readme_inputs)
        res = run(*args, "--format", "json")
        assert res.exit_code == (0 if json.loads(res.stdout)["ok"] else 1)


# JSON values with one dimension above 256: 257 x 1 and 1 x 257 matrices,
# and a span side or an EvConst object dimension of 257
TALL, WIDE = [[1]] * 257, [[1] * 257]
ABOVE = {"span": [{"dom": 1, "cod": 257, "matrix": TALL},
                  {"dom": 257, "cod": 1, "matrix": WIDE},
                  {"dom": 257, "cod": 1, "matrix": [[1]]},
                  {"dom": 1, "cod": 257, "matrix": [[1]]}],
         "evconst": [{"free": TALL}, {"free": WIDE},
                     {"free": [[1]], "explicit": {"2": TALL}},
                     {"free": [[1]], "explicit": {"2": WIDE}},
                     {"free": [[1]], "dom": {"f": 257}, "cod": {"f": 1}},
                     {"free": [[1]], "dom": {"f": 1},
                      "cod": {"f": 1, "exc": {"2": 257}}}]}
SMALL = {"span": '{"dom": 1, "cod": 1, "matrix": [[1]]}',
         "evconst": '{"free": [[1]]}'}


def _above_256():
    """(args, flag) for each JSON option of each command and each value
    of ABOVE, the other operand of a binary command being small."""
    for group, values in ABOVE.items():
        binary = ("compose", "tensor") if group == "span" else ("compose",)
        for blob in map(json.dumps, values):
            for cmd in binary:
                yield ((group, cmd, "--left", blob, "--right", SMALL[group]),
                       "--left")
                yield ((group, cmd, "--left", SMALL[group], "--right", blob),
                       "--right")
            yield (group, "cofiber", "--morphism", blob), "--morphism"


ABOVE_256 = list(_above_256())


class TestInputShapes:
    SPAN = json.dumps({"dom": 2, "cod": 2, "matrix": [[0, 1], [1, 0]]})

    @pytest.mark.parametrize("args", [
        ("evconst", "cofiber", "--morphism", "[1]"),
        ("evconst", "cofiber", "--morphism", "not json"),
        ("evconst", "cofiber", "--morphism", '{"free": [[1, "x"]]}'),
        ("evconst", "compose", "--left", '{"free": [[1]]}',
         "--right", '{"free": [[1]], "explicit": {"two": [[1]]}}'),
        ("span", "compose", "--left", '{"dom": 2, "cod": 2}',
         "--right", SPAN),
        ("span", "tensor", "--left", SPAN, "--right", "[[1]]"),
        ("span", "cofiber", "--morphism", '{"dom": 1, "cod": "1"}'),
        ("evconst", "biproduct", "--x", '{"f": 1, "exc": [1]}', "--y", "S"),
        ("evconst", "biproduct", "--x", "S", "--y", '{"g": 1}'),
        # one prime under two spellings
        ("evconst", "compose", "--left", '{"free": [[1]]}', "--right",
         '{"free": [[1]], "explicit": {"2": [[1]], "02": [[0]]}}'),
        ("evconst", "biproduct", "--x", '{"f": 0, "exc": {"2": 1, "02": 3}}',
         "--y", "S"),
        # a prime key of more than 25 digits
        ("evconst", "cofiber", "--morphism",
         '{"free": [[1]], "explicit": {"%s": [[1]]}}' % ("9" * 5000)),
    ])
    def test_malformed_json_is_usage_error(self, args):
        res = run(*args)
        assert res.exit_code == 2
        assert "Traceback" not in res.stdout + res.stderr

    @pytest.mark.parametrize("args, flag", ABOVE_256, ids=[
        f"{a[0]}-{a[1]}-{flag}-{n}" for n, (a, flag) in enumerate(ABOVE_256)])
    def test_a_json_dimension_above_256_is_usage_error(self, args, flag):
        res = run(*args)
        assert res.exit_code == 2 and res.stdout == ""
        what = "span" if args[0] == "span" else "morphism"
        assert res.stderr.endswith(
            f"argument {flag}: the {what} has a dimension above 256\n")

    @pytest.mark.parametrize("args", [
        ("span", "cofiber", "--morphism", json.dumps(
            {"dom": 1, "cod": 256, "matrix": [[0]] * 256})),
        ("evconst", "cofiber", "--morphism", json.dumps(
            {"free": [[0] * 256], "explicit": {"2": [[0] * 256]}})),
    ], ids=["span-256x1", "evconst-1x256"])
    def test_a_json_dimension_of_256_runs(self, args):
        assert run(*args).exit_code == 0

    @pytest.mark.parametrize("args", [
        ("evconst", "cofiber", "--morphism", '{"free": [[true, false]]}'),
        ("evconst", "biproduct", "--x", '{"f": true}', "--y", "S"),
        ("span", "compose", "--left", '{"dom": 1, "cod": 1, "matrix": [[1]]}',
         "--right", '{"dom": true, "cod": true, "matrix": [[1]]}'),
        ("span", "tensor", "--left", SPAN, "--right",
         '{"dom": 1, "cod": 1, "matrix": [[false]]}'),
    ])
    def test_json_booleans_are_not_integers(self, args):
        res = run(*args, "--format", "json")
        assert res.exit_code == 2
        assert "Traceback" not in res.stdout + res.stderr

    def test_group_file_booleans_are_not_integers(self, tmp_path):
        path = tmp_path / "group.json"
        path.write_text('{"degree": 2, "generators": [[1, true]]}')
        res = run("equi", "lattice", "--group", str(path), "--format", "json")
        assert res.exit_code == 1
        assert "expected a group" in json.loads(res.stdout)["error"]

    def test_unproven_prime_is_domain_error(self):
        start = time.perf_counter()
        res = run("evconst", "cofiber", "--morphism",
                  '{"free": [[618970019642690137449562111]]}',
                  "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 1
        assert json.loads(res.stdout)["error"].startswith(
            "PrimalityUnproven: ")

    def test_cofiber_of_two_large_primes(self):
        # trial division needed about 10**12 steps here; rho about 10**6
        start = time.perf_counter()
        res = run("evconst", "cofiber", "--morphism",
                  '{"free": [[999999999948000000000451]]}', "--format", "json")
        assert time.perf_counter() - start < 5.0
        assert res.exit_code == 0
        assert json.loads(res.stdout)["cofiber"]["json"] == {
            "f": 0, "exc": {"999999999959": 1, "999999999989": 1}}


class TestFileShapes:
    @pytest.mark.parametrize("blob", ["[]", "null", "3", '{"name": "x"}'])
    def test_malformed_trace_and_certificate_files_exit_1(self, tmp_path,
                                                          blob):
        path = tmp_path / "input.json"
        path.write_text(blob)
        for args in (("diagrams", "verify", "--trace", str(path)),
                     ("equi", "validate", "--group", "s3", "--cert",
                      str(path))):
            res = run(*args, "--format", "json")
            assert res.exit_code == 1
            assert json.loads(res.stdout)["error"].startswith(
                "MalformedInput: ")

    def test_directory_as_certificate_is_usage_error(self, tmp_path):
        res = run("equi", "validate", "--group", "s3", "--cert",
                  str(tmp_path))
        assert res.exit_code == 2

    def test_directory_named_like_a_trace_is_domain_error(self, tmp_path):
        path = tmp_path / "trace.json"
        path.mkdir()
        res = run("diagrams", "verify", "--trace", str(path),
                  "--format", "json")
        assert res.exit_code == 1
        assert json.loads(res.stdout)["error"].startswith(
            "MalformedInput: ")

    def test_cofiber_of_a_large_prime_square_exits_0(self):
        # (10**13 + 37) ** 2: its root is factored instead of running rho
        res = run("evconst", "cofiber", "--morphism",
                  '{"free": [[100000000000740000000001369]]}',
                  "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["cofiber"]["json"] == {
            "f": 0, "exc": {"10000000000037": 1}}

    def test_factor_budget_is_a_domain_error(self):
        # two 20-digit primes: rho would need about 10**10 steps
        start = time.perf_counter()
        res = run("evconst", "cofiber", "--morphism",
                  '{"free": [[100000000000000001380000000000000004437]]}',
                  "--format", "json")
        assert time.perf_counter() - start < 20.0   # a hang guard
        assert res.exit_code == 1
        assert json.loads(res.stdout)["error"].startswith(
            "FactorBudgetExceeded: no factor of the composite "
            "100000000000000001380000000000000004437 ")

    def test_factor_budget_charges_a_large_cofactor_by_its_size(self):
        # a 16 x 16 matrix of 50-digit entries, 13 KB of JSON: its last
        # invariant factor leaves a 794-digit composite cofactor, whose
        # rho steps are charged 42 ** 2 units each (4755 steps)
        rng = random.Random(0)
        free = [[rng.randrange(10 ** 49, 10 ** 50) for _ in range(16)]
                for _ in range(16)]
        res = run("evconst", "cofiber", "--morphism",
                  json.dumps({"free": free}), "--format", "json")
        assert res.exit_code == 1
        error = json.loads(res.stdout)["error"]
        assert error.startswith("FactorBudgetExceeded: no factor of the "
                                "composite ")
        assert error.endswith("... found in 4755 Pollard-Brent rho steps")
        assert len(error) < 200


# a trace whose braid slice has no "sign"
BRAID_WITHOUT_SIGN = {
    "name": "t", "signature": {"objects": ["T"]}, "rules": [],
    "start": {"dom": ["T", "T"], "slices": [{"kind": "braid", "offset": 0}]},
    "end": {"dom": ["T", "T"], "slices": []}, "steps": []}
ONE = '{"dom": 1, "cod": 1, "matrix": [[1]]}'


class TestDomainErrors:
    """Inputs that a bare KeyError, ValueError or FileNotFoundError once
    rejected: each is now a DomainError subclass, with the same exit
    code 1, and any other exception propagates."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "text.json").write_text("not json")
        (tmp_path / "latin1.json").write_bytes(b"\xff{")
        (tmp_path / "braid.json").write_text(json.dumps(BRAID_WITHOUT_SIGN))
        return tmp_path

    @pytest.mark.parametrize("args, error", [
        pytest.param(("equi", "lattice", "--group", "nope"), MalformedInput,
                     id="unknown-group"),
        pytest.param(("diagrams", "verify", "--trace", "nosuch"),
                     MalformedInput, id="unknown-trace"),
        pytest.param(("equi", "lattice", "--group", "{dir}/text.json"),
                     MalformedInput, id="group-file-not-json"),
        pytest.param(("equi", "lattice", "--group", "{dir}/latin1.json"),
                     MalformedInput, id="group-file-not-utf8"),
        pytest.param(("diagrams", "verify", "--trace", "{dir}/text.json"),
                     MalformedInput, id="trace-file-not-json"),
        pytest.param(("equi", "validate", "--group", "s3", "--cert",
                      "{dir}/text.json"),
                     MalformedInput, id="cert-file-not-json"),
        pytest.param(("span", "compose", "--left",
                      '{"dom": 1, "cod": 1, "matrix": [[-1]]}',
                      "--right", ONE),
                     MalformedInput, id="negative-span-entry"),
        pytest.param(("evconst", "cofiber", "--morphism",
                      '{"free": [[1]], "explicit": {"4": [[1]]}}'),
                     MalformedInput, id="explicit-key-4"),
        pytest.param(("evconst", "biproduct", "--x", '{"f": -1}',
                      "--y", "S"),
                     MalformedInput, id="negative-dimension"),
        pytest.param(("evconst", "cofiber", "--morphism",
                      '{"free": [[1]], "dom": {"f": 1, "exc": {"2": 2}}, '
                      '"cod": {"f": 1}}'),
                     MalformedInput, id="missing-explicit-component"),
        # a torsion index that is not a prime, which once selected the
        # idempotent of its cofiber (S/2 for S/4) in the idem commands
        pytest.param(("idem", "clopen", "--object", "S/4"), MalformedInput,
                     id="clopen-torsion-4"),
        pytest.param(("idem", "complement", "--object", "S/4"),
                     MalformedInput, id="complement-torsion-4"),
        pytest.param(("idem", "split-homs", "--object", "S/4"),
                     MalformedInput, id="split-homs-torsion-4"),
        pytest.param(("evconst", "split", "--m", "6", "--object", "S/6"),
                     MalformedInput, id="split-torsion-6"),
        pytest.param(("evconst", "biproduct", "--x", "S/4", "--y", "S"),
                     MalformedInput, id="biproduct-torsion-4"),
        pytest.param(("idem", "clopen", "--object",
                      '{"f": 0, "exc": {"4": 1}}'),
                     MalformedInput, id="clopen-json-torsion-4"),
        pytest.param(("idem", "complement", "--model", "spanfin"),
                     UnsupportedShape, id="complement-spanfin"),
        pytest.param(("idem", "split-homs", "--model", "spanfin"),
                     UnsupportedShape, id="split-homs-spanfin"),
        pytest.param(("diagrams", "verify", "--trace", "{dir}/braid.json"),
                     MalformedInput, id="braid-without-sign"),
    ])
    def test_rejected_input_is_a_domain_error(self, files, args, error):
        res = run(*(a.replace("{dir}", str(files)) for a in args),
                  "--format", "json")
        assert res.exit_code == 1
        report = json.loads(res.stdout)
        assert report["ok"] is False
        assert report["error"].startswith(f"{error.__name__}: ")
        assert issubclass(error, DomainError)

    @pytest.mark.parametrize("command", ["clopen", "complement",
                                         "split-homs"])
    @pytest.mark.parametrize("obj", ["S/4", "S + S/3 + S/4^2",
                                     '{"f": 0, "exc": {"4": 1}}'])
    def test_non_prime_torsion_index_is_named(self, command, obj):
        res = run("idem", command, "--object", obj, "--format", "json")
        assert res.exit_code == 1
        error = json.loads(res.stdout)["error"]
        assert error.startswith("MalformedInput: the torsion index 4 of ")

    @pytest.mark.parametrize("args", [
        ("equi", "lattice", "--group", "a" * 300),
        ("diagrams", "verify", "--trace", "a" * 300),
        ("diagrams", "verify", "--trace", "a" * 300 + ".json")],
        ids=["group", "trace", "trace-file"])
    def test_name_too_long_for_a_file_is_a_domain_error(self, args):
        # Path.is_file raises OSError on a name above 255 bytes
        res = run(*args, "--format", "json")
        assert res.exit_code == 1
        assert json.loads(res.stdout)["error"].startswith("MalformedInput: ")

    @pytest.mark.parametrize("args", [
        ("equi", "lattice", "--group", "a" * 5000),
        ("diagrams", "verify", "--trace", "a" * 5000)],
        ids=["group", "trace"])
    def test_long_name_is_clipped_in_the_report(self, args):
        res = run(*args, "--format", "json")
        assert res.exit_code == 1
        assert len(res.stdout) < 300

    @pytest.mark.parametrize("args", [
        ("equi", "lattice", "--group", "{deep}"),
        ("diagrams", "verify", "--trace", "{deep}"),
        ("equi", "validate", "--group", "s3", "--cert", "{deep}")],
        ids=["group", "trace", "cert"])
    def test_deeply_nested_file_is_a_domain_error(self, tmp_path, args):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        res = run(*(a.replace("{deep}", str(deep)) for a in args),
                  "--format", "json")
        assert res.exit_code == 1
        assert json.loads(res.stdout)["error"] == (
            f"MalformedInput: {deep} nests too deeply")

    def test_deeply_nested_option_is_a_usage_error(self):
        res = run("span", "compose", "--left", "[" * 3000 + "]" * 3000,
                  "--right", ONE)
        assert res.exit_code == 2
        assert "nests too deeply" in res.stderr

    @pytest.mark.parametrize("step", [
        {"offset": -1},
        {"rule": "inv-cancel:nosuch", "dir": "bwd"}],
        ids=["negative-offset", "unknown-generator"])
    def test_failing_first_step_is_a_trace_report(self, tmp_path, step):
        trace = load_trace("crossings-collapse").to_json()
        trace["steps"][0].update(step)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        res = run("diagrams", "verify", "--trace", str(path),
                  "--format", "json")
        assert res.exit_code == 1
        [report] = json.loads(res.stdout)["traces"]
        assert report["ok"] is False and report["steps_applied"] == 0
        assert report["message"].startswith("step 0 ")

    @pytest.mark.parametrize("end", ["start", "end"])
    def test_negative_offset_in_a_diagram_is_malformed(self, tmp_path, end):
        trace = load_trace("crossings-collapse").to_json()
        trace[end]["slices"] = [{"kind": "braid", "offset": -1, "sign": 1}]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        res = run("diagrams", "verify", "--trace", str(path),
                  "--format", "json")
        assert res.exit_code == 1
        assert json.loads(res.stdout)["error"].startswith("MalformedInput: ")

    def test_unknown_trace_report_holds_no_path(self):
        res = run("diagrams", "verify", "--trace", "nosuch", "--format",
                  "json")
        assert json.loads(res.stdout)["error"] == (
            "MalformedInput: no bundled trace or trace file 'nosuch'")

    def test_other_exceptions_propagate(self, monkeypatch):
        import dualkit.equivariant as eq

        def broken(name):
            raise KeyError(name)
        monkeypatch.setattr(eq, "get_group", broken)
        out = io.StringIO()
        with pytest.raises(KeyError), contextlib.redirect_stdout(out):
            main(["equi", "lattice", "--format", "json"])
        assert '"ok"' not in out.getvalue()
