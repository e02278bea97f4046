import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from excedance_lab import cli, families, fsaction, grammar, identities, permstats, shape
from excedance_lab.cli import main
from excedance_lab.multipoly import (
    BadCoefficient, BadInput, BadLength, Context, ContextMismatch, ExponentOverflow, ParseError,
    poly_from_json,
)

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so an escaped exception shows as a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "excedance_lab.cli", *argv], env=env,
        capture_output=True, text=True, timeout=60,
    )


def test_family_text(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "A_pq", "--n", "2")
    assert code == 0
    assert out.strip() == "p^2*q^2 + q*x"


def test_family_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--name", "one_over_k", "--n", "5", "--k", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    ctx = Context()
    poly = poly_from_json(ctx, payload["poly"])
    assert poly == ctx.poly(payload["text"])
    # coefficient total is the 3^(5-cyc)-weighted count of S_5
    from oracles import plain_exc_fix_cyc

    total = sum(cnt * 3 ** (5 - c) for (e, f, c), cnt in plain_exc_fix_cyc(5).items())
    assert poly.substitute({"x": 1}).constant_term() == total


def test_family_symbolic_default(capsys):
    for extra in ((), ("--r", "sym")):
        code, out, _ = run_cli(capsys, "family", "--name", "alpha_minus", "--n", "1", *extra)
        assert code == 0
        assert out.strip() == "-2 + r"


def test_family_springer(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "springer", "--n", "5")
    assert code == 0
    assert out.strip() == "361"


def test_family_csv(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--name", "A_q", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "monomial,coeff"
    assert "q*x,1" in lines and "q^2,1" in lines


def test_family_bad_name(capsys):
    code, _, err = run_cli(capsys, "family", "--name", "nope", "--n", "2")
    assert code == 2
    assert "unknown family" in err


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "signed", "--n", "2",
        "--stats", "exc,fix", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,cycles,exc,fix"
    assert len(lines) == 9
    assert lines[1].startswith("-2 -1,")


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "colored", "--n", "1", "--r", "3",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["word"] for row in rows] == ["1^0", "1^1", "1^2"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_writes_rows_as_they_arrive(monkeypatch, fmt):
    # the CLI writes each row before it asks for the next object, and the
    # JSON it writes row by row is the bytes of one json.dumps of the list
    real = permstats.enumerate_class
    out = io.StringIO()
    written = []

    def rows(kind, n, *, r, k):
        for item in real(kind, n, r=r, k=k):
            yield item
            written.append(out.getvalue())

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(permstats, "enumerate_class", rows)
    assert main(["enumerate", "--kind", "plain", "--n", "3", "--stats", "exc,cyc",
                 "--format", fmt]) == 0
    assert len(written) == 6
    assert all(a and len(a) < len(b) for a, b in zip(written, written[1:]))
    if fmt == "csv":
        assert written[0] == "word,cycles,exc,cyc\n1 2 3,(1)(2)(3),0,3\n"
    else:
        assert out.getvalue() == json.dumps([
            {"word": obj.word_string(), "cycles": obj.cycle_string(),
             "stats": {"exc": stats["exc"], "cyc": stats["cyc"]}}
            for obj, stats in real("plain", 3)
        ]) + "\n"


def test_enumerate_unknown_stat(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--kind", "plain", "--n", "2", "--stats", "bogus"
    )
    assert code == 2


@pytest.mark.parametrize("stats", [",", " , ", ""])
def test_enumerate_stats_naming_no_statistic_exit_2(capsys, stats):
    code, out, err = run_cli(
        capsys, "enumerate", "--kind", "plain", "--n", "2", "--stats", stats
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "names no statistic" in err


def test_enumerate_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("EXCEDANCE_LAB_MAX_CLASS", "5")
    code, out, err = run_cli(capsys, "enumerate", "--kind", "plain", "--n", "4")
    assert code == 2
    assert out == ""
    assert "exceeds guard" in err


def test_a_class_too_large_to_print_exits_2():
    # 2000! has 5,736 digits, past the int-to-str limit of a message
    proc = run_cli_process("enumerate", "--kind", "plain", "--n", "2000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "exceeds guard" in proc.stderr


def test_fs_action_entry_past_the_guard_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("EXCEDANCE_LAB_MAX_CLASS", "10")
    code, out, err = run_cli(capsys, "fs-action", "--perm", "(1,11)")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "size guard 10" in err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_malformed_guard_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("EXCEDANCE_LAB_MAX_CLASS", value)
    code, out, err = run_cli(capsys, "enumerate", "--kind", "plain", "--n", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "EXCEDANCE_LAB_MAX_CLASS" in err and repr(value) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--name", "A_pq", "--n", "-1"),
        ("enumerate", "--kind", "plain", "--n", "2", "--stats", "bogus"),
        ("grammar", "derive", "--rules", "RULES", "--seed", "x", "--n", "-1"),
        ("shape", "--family", "A_q", "--n", "3", "--q", "1/2", "--m", "0"),
        ("fs-action", "--perm", "(1,a)"),
        ("verify", "--id", "rec-anxq", "--r", "3"),
        ("suite", "--ids", ",,"),
        # nesting past the parser's depth limit, in a rule file and in a seed
        pytest.param(("grammar", "derive", "--rules", "DEEP_RULES", "--seed", "x", "--n", "1"),
                     id="grammar-deep-rules"),
        pytest.param(("grammar", "derive", "--rules", "RULES", "--seed=2*" + "-" * 1000 + "x",
                      "--n", "1"), id="grammar-deep-seed"),
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_arguments_exit_2_without_traceback(tmp_path, argv):
    files = {"RULES": "x -> x*y\n", "DEEP_RULES": "x -> " + "(" * 300 + "x" + ")" * 300 + "\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = run_cli_process(*[str(tmp_path / arg) if arg in files else arg for arg in argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error: " in line]


def _refused_by(parse):
    def refused(text):
        try:
            parse(text)
        except ValueError:
            return True
        return False

    return refused


def _spoiled(valid):
    """``valid`` with one character that no parser of the CLI accepts."""
    return st.tuples(st.integers(0, len(valid)), st.sampled_from("@#;=!?")).map(
        lambda cut: valid[:cut[0]] + cut[1] + valid[cut[0]:]
    )


def _not_in(choices):
    return TEXT.filter(lambda text: text not in choices)


def _names_an_unknown(known):
    def unknown(text):
        wanted = [name.strip() for name in text.split(",") if name.strip()]
        return not wanted or any(name not in known for name in wanted)

    return unknown


# short text with newlines and non-ASCII in it, so a message that echoes a
# value unquoted would spill onto a second line
TEXT = st.text(max_size=8)
NOT_INT = TEXT.filter(_refused_by(int))
NEGATIVE = st.integers(max_value=-1).map(str)
BELOW_ONE = st.integers(max_value=0).map(str)


def _argv(*head, **options):
    """``head`` then one ``--option=value`` per keyword; each value is a
    strategy or a fixed string."""
    parts = [st.just(list(head))]
    for option, value in options.items():
        value = value if isinstance(value, st.SearchStrategy) else st.just(value)
        parts.append(value.map(lambda v, o=option: [f"--{o.replace('_', '-')}={v}"]))
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


# per subcommand, argument lists with exactly one malformed option value
MALFORMED = {
    "family": st.one_of(
        _argv("family", name=_not_in(families.REGISTRY), n="2"),
        _argv("family", name="A_pq", n=st.one_of(NEGATIVE, NOT_INT)),
        _argv("family", name="one_over_k", n="2",
              k=st.one_of(BELOW_ONE, TEXT.filter(_refused_by(cli._parse_int_or_sym)))),
        _argv("family", name="A_pq", n="2", format=_not_in(("text", "json", "csv"))),
    ),
    "enumerate": st.one_of(
        _argv("enumerate", kind=_not_in(permstats.KINDS), n="2"),
        _argv("enumerate", kind="plain", n=st.one_of(NEGATIVE, NOT_INT)),
        _argv("enumerate", kind="colored", n="2", r=st.one_of(BELOW_ONE, NOT_INT)),
        _argv("enumerate", kind="stirling", n="2", k=st.one_of(BELOW_ONE, NOT_INT)),
        _argv("enumerate", kind="plain", n="2", r=st.integers(min_value=2).map(str)),
        _argv("enumerate", kind="signed", n="2",
              stats=TEXT.filter(_names_an_unknown(permstats.stat_names("signed")))),
        _argv("enumerate", kind="plain", n="2", format=_not_in(("csv", "json"))),
    ),
    "grammar": st.one_of(
        _argv("grammar", "derive", rules="rules.txt", seed=_spoiled("x*y + 2"), n="1"),
        _argv("grammar", "derive", rules="rules.txt", seed="x", n=st.one_of(NEGATIVE, NOT_INT)),
        _argv("grammar", "derive", seed="x", n="1",
              rules=st.text("abc_", min_size=1, max_size=8).map("missing/{}".format)),
        _argv("grammar", "derive", rules="rules.txt", seed="x", n="1",
              format=_not_in(("text", "json"))),
    ),
    "shape": st.one_of(
        _argv("shape", family=_not_in(families.REGISTRY), n="3"),
        _argv("shape", family="A_pq", n=st.one_of(NEGATIVE, NOT_INT), p="1/2", q="1/2"),
        _argv("shape", family="A_pq", n="3", p=_spoiled("1/2"), q="1/2"),
        _argv("shape", family="A_pq", n="3", p="1/2", q=_spoiled("3/4")),
        _argv("shape", family="A_q", n="3", q="1/2", m=st.one_of(NEGATIVE, NOT_INT)),
        _argv("shape", family="A_q", n="3", q="1/2", report=_not_in(("text", "json"))),
    ),
    "fs-action": st.one_of(
        _argv("fs-action", perm=_spoiled("(1,4,2)(3)")),
        _argv("fs-action", perm="(1,4,2)(3)",
              x=st.one_of(NOT_INT, st.integers().filter(lambda v: not 1 <= v <= 4).map(str))),
    ),
    "verify": st.one_of(
        _argv("verify", id=_not_in(identities.REGISTRY)),
        _argv("verify", id="rec-anxq", max_n=st.one_of(NEGATIVE, NOT_INT)),
        _argv("verify", id="stirling-ap-onek", k=st.one_of(BELOW_ONE, NOT_INT)),
        _argv("verify", id="rec-anxq", r=st.integers().map(str)),
        _argv("verify", id="rec-anxq", profile=_not_in(("quick", "full"))),
        _argv("verify", id="rec-anxq", seed=NOT_INT),
    ),
    "suite": st.one_of(
        _argv("suite", ids=TEXT.filter(_names_an_unknown(identities.REGISTRY))),
        _argv("suite", jobs=st.one_of(BELOW_ONE, NOT_INT)),
        _argv("suite", profile=_not_in(("quick", "full"))),
        _argv("suite", seed=NOT_INT),
        _argv("suite", format=_not_in(("text", "json"))),
    ),
}


@pytest.mark.parametrize("command", list(MALFORMED))
# capsys, tmp_path and monkeypatch serve every example alike: each example
# reads its own output off capsys, and the files and directory never change
@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_option_values_exit_2(capsys, tmp_path, monkeypatch, command, data):
    (tmp_path / "rules.txt").write_text("x -> x*y\n")
    monkeypatch.chdir(tmp_path)
    argv = data.draw(MALFORMED[command], label="argv")
    try:
        code = main(argv)
        usage = []
    except SystemExit as exc:  # argparse refuses the value before main's handler
        code = exc.code
        usage = ["usage:"]
    out, err = capsys.readouterr()
    assert code == 2, (argv, err)
    assert out == ""
    assert "Traceback" not in err
    # one error line, after argparse's usage lines if argparse refused the value
    *before, last = err.splitlines()
    assert "error: " in last and "error: " not in "".join(before), err
    assert [line[:6] for line in before[:1]] == usage, err
    assert all(line.startswith(" ") for line in before[1:]), err


def test_typed_input_errors_are_bad_input_and_certificate_failures_are_not():
    # main maps exactly BadInput (and OSError) to exit 2
    for cls in (
        ParseError, ExponentOverflow, families.BadParams, families.OutOfTable,
        permstats.BadClassSize, permstats.BadGuard, permstats.SizeExceeded,
        permstats.UnknownStat, permstats.UnknownKind, permstats.NotInClass,
        ContextMismatch, BadLength, BadCoefficient, grammar.BadIterations, permstats.NoCycleForm,
        fsaction.ValueAbsent, shape.BadLength, shape.NotSymmetric,
        shape.NotUnivariate, shape.UnknownProperty,
        identities.BadOverride, identities.UnknownIdentity, identities.UnknownProfile,
    ):
        assert issubclass(cls, BadInput), cls
    assert not issubclass(fsaction.ContractViolation, BadInput)
    # the builtin base stays, and a KeyError keeps its quoted str
    assert issubclass(permstats.UnknownStat, KeyError)
    assert issubclass(permstats.NotInClass, ValueError)
    assert str(permstats.UnknownStat("bogus")) == "'bogus'"


def _fresh_x():
    """x in a context of its own: two calls give polynomials of two contexts."""
    return Context().var("x")


@pytest.mark.parametrize("call, error", [
    (lambda: _fresh_x() ** -1, ParseError),
    (lambda: _fresh_x() ** True, ParseError),
    (lambda: Context().monomial({"x": True}), ParseError),
    (lambda: Context().polynomial(["x", "x"], [((1, False), 1)]), ParseError),
    (lambda: grammar.Grammar(Context(), {"x": "x*y"}).iterate(_fresh_x(), -1),
     grammar.BadIterations),
    # a count that is a bool or not an int: True does not stand for 1
    pytest.param(lambda: grammar.Grammar(Context(), {"x": "x*y"}).iterate(_fresh_x(), True),
                 grammar.BadIterations, id="iterate-True"),
    pytest.param(lambda: grammar.Grammar(Context(), {"x": "x*y"}).iterate(_fresh_x(), 2.5),
                 grammar.BadIterations, id="iterate-2.5"),
    (lambda: (_fresh_x() ** 3).reverse_in("x", 1), BadLength),
    pytest.param(lambda: (_fresh_x() ** 3).reverse_in("x", True), BadLength,
                 id="reverse_in-True"),
    pytest.param(lambda: (_fresh_x() ** 3).reverse_in("x", 2.5), BadLength, id="reverse_in-2.5"),
    pytest.param(lambda: fsaction.act(fsaction.parse_cycles("(1,3,2)"), True),
                 fsaction.ValueAbsent, id="act-True"),
    pytest.param(lambda: fsaction.act(fsaction.parse_cycles("(1,3,2)"), 3.0),
                 fsaction.ValueAbsent, id="act-3.0"),
    (lambda: shape.CoeffSeq.from_poly(Context().poly("x*y"), "x"), shape.NotUnivariate),
    (lambda: shape.check(shape.CoeffSeq.make([1, 2, 1]), "bogus"), shape.UnknownProperty),
    (lambda: permstats.PermObject("stirling", 1, (1, 1), k=2).cycles(), permstats.NoCycleForm),
    (lambda: grammar.Grammar(Context(), {"x": _fresh_x()}), ContextMismatch),
    (lambda: _fresh_x() + _fresh_x(), ContextMismatch),
    (lambda: _fresh_x() - _fresh_x(), ContextMismatch),
    (lambda: _fresh_x() * _fresh_x(), ContextMismatch),
    (lambda: _fresh_x().substitute({"x": _fresh_x()}), ContextMismatch),
    pytest.param(lambda: permstats.base_stats("braid", (1,)), permstats.UnknownKind,
                 id="base_stats-braid"),
    # only a stirling word reads k
    pytest.param(lambda: permstats.base_stats("colored", (), k=2), permstats.BadClassSize,
                 id="base_stats-colored-k2"),
    # a bool or a float is not an int n, declared length or jobs count
    pytest.param(lambda: families.springer(True), families.BadParams, id="springer-True"),
    pytest.param(lambda: families.springer(2.0), families.BadParams, id="springer-2.0"),
    pytest.param(lambda: shape.CoeffSeq.make([1, 2], True), BadLength, id="make-True"),
    pytest.param(lambda: shape.CoeffSeq.make([1, 2], 2.5), BadLength, id="make-2.5"),
    pytest.param(lambda: shape.CoeffSeq.from_poly(_fresh_x(), "x", m=2.0), BadLength,
                 id="from_poly-m-2.0"),
    pytest.param(lambda: shape.gamma_assemble(Context(), {0: 1}, 2.5), BadLength,
                 id="gamma_assemble-2.5"),
    pytest.param(lambda: grammar.Grammar(Context(), {"x": 3}), ParseError, id="grammar-rule-3"),
    pytest.param(lambda: identities.run_suite(ids=["rec-anxq"], jobs="2"),
                 identities.BadOverride, id="run_suite-jobs-str"),
    pytest.param(lambda: identities.run_suite(ids=["rec-anxq"], jobs=2.5),
                 identities.BadOverride, id="run_suite-jobs-2.5"),
    pytest.param(lambda: identities.run_suite(ids=["rec-anxq"], jobs=0),
                 identities.BadOverride, id="run_suite-jobs-0"),
    pytest.param(lambda: identities.run_suite(ids=["rec-anxq"], jobs=-3),
                 identities.BadOverride, id="run_suite-jobs-neg"),
    pytest.param(lambda: identities.run_suite(ids=["rec-anxq"], jobs=True),
                 identities.BadOverride, id="run_suite-jobs-True"),
    # a shape coefficient is an int or a Fraction: no float, text or None
    pytest.param(lambda: shape.shape_report(shape.CoeffSeq.make([0.5, 1, 0.5])),
                 BadCoefficient, id="make-float"),
    pytest.param(lambda: shape.CoeffSeq.make(["1", "2", "1"]), BadCoefficient, id="make-str"),
    pytest.param(lambda: shape.CoeffSeq.make([None, 1, None]), BadCoefficient, id="make-None"),
    pytest.param(lambda: shape.CoeffSeq((1, 0.5), 1), BadCoefficient, id="CoeffSeq-float"),
    # bindings and points are mappings of names to values
    pytest.param(lambda: _fresh_x().substitute([("x", 1)]), ParseError, id="substitute-list"),
    pytest.param(lambda: _fresh_x().substitute(None), ParseError, id="substitute-None"),
    pytest.param(lambda: _fresh_x().eval_rational([("x", 1)]), ParseError,
                 id="eval_rational-list"),
    pytest.param(lambda: shape.partial_gamma_expand(Context().poly("x + y"), "x", "y", True),
                 BadLength, id="partial_gamma_expand-True"),
    pytest.param(lambda: shape.partial_gamma_expand(Context().poly("x + y"), "x", "y", "2"),
                 BadLength, id="partial_gamma_expand-str"),
])
def test_bad_arguments_at_the_public_boundary_raise_typed_errors(call, error):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, BadInput) and isinstance(exc.value, ValueError)


def test_an_error_that_is_not_bad_input_propagates(capsys, monkeypatch):
    def broken(args):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "_cmd_family", broken)
    with pytest.raises(ValueError, match="an internal fault"):
        main(["family", "--name", "A_pq", "--n", "2"])
    assert capsys.readouterr().err == ""


def test_rules_file_not_utf8_exits_2(capsys, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(
        capsys, "grammar", "derive", "--rules", str(rules), "--seed", "x", "--n", "1"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(rules) in err and "UTF-8" in err


def test_exponent_past_the_field_width_exits_2(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("x -> x*y\n")
    proc = run_cli_process(
        "grammar", "derive", "--rules", str(rules), "--seed", "x^524288", "--n", "1"
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "exponent of x exceeds 524287" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--name", "A_q", "--n", "3", "--k", "2"),
        ("family", "--name", "A_q", "--n", "3", "--k", "sym"),
        ("family", "--name", "one_over_k", "--n", "3", "--r", "2"),
        ("shape", "--family", "A_classic", "--n", "3", "--k", "2"),
        ("shape", "--family", "A_classic", "--n", "3", "--r", "sym"),
        # a point variable the family polynomial lacks, given last
        ("shape", "--family", "A_q", "--n", "3", "--q", "1", "--p", "1/2"),
        ("shape", "--family", "A_classic", "--n", "3", "--q", "7"),
        # A_pq at n=0 is the constant 1, so it has no p
        ("shape", "--family", "A_pq", "--n", "0", "--p", "1/2"),
    ],
)
def test_k_or_r_on_a_family_that_reads_none_exit_2(capsys, argv):
    # these used to print the family and exit 0, silently ignoring the flag
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"reads no {argv[-2][2:]}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--name", "one_over_k", "--n", "0", "--k", "0"),
        ("--name", "A_r", "--n", "0", "--r", "0"),
    ],
)
def test_bad_parameter_at_n_zero_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "family", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "positive integer" in err


def test_k_sym_on_a_k_family_is_symbolic(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "one_over_k", "--n", "2", "--k", "sym")
    assert code == 0
    assert out.strip() == "1 + k*x"


@pytest.mark.parametrize(
    "argv",
    [
        ("--kind", "colored", "--n", "2", "--r", "0"),
        ("--kind", "stirling", "--n", "2", "--k", "0"),
        ("--kind", "plain", "--n", "-1"),
        ("--kind", "plain", "--n", "2", "--r", "5"),
    ],
)
def test_enumerate_bad_sizes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "enumerate", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("family", "--name", "one_over_k", "--n", "3", "--k", "abc"), "--k"),
        (("family", "--name", "A_r", "--n", "3", "--r", "1.5"), "--r"),
        (("shape", "--family", "one_over_k", "--n", "3", "--k", "abc"), "--k"),
        (("shape", "--family", "A_r", "--n", "3", "--r", "two"), "--r"),
        (("verify", "--id", "rec-anjk", "--k", "abc"), "--k"),
        (("verify", "--id", "rec-arnk", "--r", "sym"), "--r"),
    ],
)
def test_non_integer_k_r_rejected_by_argparse(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def test_grammar_derive(capsys, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("I -> I*p*q\np -> x*y\nx -> x*y\ny -> x*y\n")
    code, out, _ = run_cli(
        capsys, "grammar", "derive", "--rules", str(rules), "--seed", "I", "--n", "2"
    )
    assert code == 0
    ctx = Context()
    assert ctx.poly(out.strip()) == ctx.poly("I*(p^2*q^2 + q*x*y)")


def test_shape_json(capsys):
    code, out, _ = run_cli(
        capsys, "shape", "--family", "A_pq", "--n", "6", "--p", "1/2",
        "--q", "1/3", "--report", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 5
    assert payload["verdicts"]["alternatingly_increasing"] is True


def test_shape_rejects_free_variables(capsys):
    code, _, err = run_cli(capsys, "shape", "--family", "A_pq", "--n", "3")
    assert code == 2
    assert "univariate" in err


def test_fs_action(capsys):
    code, out, _ = run_cli(
        capsys, "fs-action", "--perm", "(1,10,6,5,7,3,2,8)(4,9)", "--x", "3"
    )
    assert code == 0
    assert out.strip() == "(1,3,10,6,5,7,2,8)(4,9)"


def test_fs_action_classify(capsys):
    code, out, _ = run_cli(capsys, "fs-action", "--perm", "(1,4,2)(3)")
    assert code == 0
    assert "4:cpk" in out and "2:cdd" in out


def test_verify_text_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "cor-springer", "--max-n", "4")
    assert code == 0
    assert "cor-springer: pass" in out
    code, _, err = run_cli(capsys, "verify", "--id", "missing-id")
    assert code == 2
    assert "unknown identity" in err


@pytest.mark.parametrize(
    "ident, max_n", [("thm18-crun", "1"), ("rec-onek-decom", "0")]
)
def test_verify_without_comparisons_exits_1(capsys, ident, max_n):
    code, out, _ = run_cli(capsys, "verify", "--id", ident, "--max-n", max_n)
    assert code == 1
    assert f"{ident}: vacuous" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "thm18-crun", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["checks"] > 0
    assert "5" in payload["details"]["xi_plus[3]"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--id", "prop-ring-axioms", "--max-n", "1", "--profile", "quick"),
        ("--id", "rec-anxq", "--r", "3", "--max-n", "3"),
        ("--id", "stat-identities", "--max-n", "1"),
    ],
)
def test_verify_rejects_overrides_the_identity_does_not_read(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "does not take" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--id", "rec-anxq", "--max-n", "-3"),
        ("--id", "cor-springer", "--max-n", "-1"),
        ("--id", "rec-anjk", "--k", "-1"),
        ("--id", "rec-anjk", "--k", "0"),
        ("--id", "rec-arnk", "--r", "-2"),
        ("--id", "rec-arnk", "--r", "0"),
    ],
)
def test_verify_rejects_bounds_outside_their_domain(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "must be" in err


@pytest.mark.parametrize("jobs", ["-4", "0", "two"])
def test_suite_jobs_must_be_positive(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--ids", "cor-springer", "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --jobs:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "ids, message",
    [
        (",,", "names no identity"),
        ("", "names no identity"),
        ("cor-springer,nope", "unknown identity 'nope'"),
    ],
)
def test_suite_ids_naming_no_known_identity_exit_2(capsys, ids, message):
    code, out, err = run_cli(capsys, "suite", "--ids", ids)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def test_suite_subset(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--profile", "quick",
        "--ids", "cor-springer,rec-anxq", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"pass": 2, "fail": 0, "skipped": 0, "vacuous": 0}
    assert [r["id"] for r in payload["results"]] == ["cor-springer", "rec-anxq"]


def test_suite_text_table(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--profile", "quick", "--ids", "cor-springer"
    )
    assert code == 0
    assert "pass" in out and "total: 1" in out
