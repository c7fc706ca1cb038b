"""Command-line interface and concrete syntax round trips."""

import ast
import io
import random
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cochoice.cli import main
from cochoice.compiler import compile_expr
from cochoice.harness import gen_typed_source
from cochoice.parser import ParseError, _tokenize, parse
from cochoice.printer import format_expr, format_type, format_effect
from cochoice.syntax import TNAT, TArrow, TForall, alpha_eq, name_subst, size_of
from oracle import random_effect, reference_tokenize


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse/file errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def term_file(tmp_path, text, name="term.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_src_check_and_eval(tmp_path, capsys):
    f = term_file(tmp_path, "(\\x:nat. add x 1) (3 || 5)")
    code, out, _ = run(capsys, "src-check", f)
    assert code == 0 and out.strip() == "nat"
    code, out, _ = run(capsys, "src-eval", f)
    assert code == 0 and out.strip() == "(4 || 6)"


def test_src_check_failure_exit_code(tmp_path, capsys):
    f = term_file(tmp_path, "1 2")
    code, _, err = run(capsys, "src-check", f)
    assert code == 1 and "type error" in err


def test_parse_error_exit_code(tmp_path, capsys):
    f = term_file(tmp_path, "\\x:nat")
    code, _, err = run(capsys, "src-check", f)
    assert code == 2 and "parse error" in err


def test_deep_input_exit_code(tmp_path, capsys):
    f = term_file(tmp_path, "(" * 1000 + "1" + " || 2)" * 1000)
    code, _, err = run(capsys, "src-check", f)
    assert code == 2 and "input nested too deeply" in err


def test_src_step(tmp_path, capsys):
    f = term_file(tmp_path, "(\\x:nat. x) 1")
    code, out, _ = run(capsys, "src-step", f)
    assert code == 0 and out.strip() == "SR-Beta: 1"
    g = term_file(tmp_path, "((\\x:nat. x) 1 || 2)", "nested.txt")
    code, out, _ = run(capsys, "src-step", g)
    assert code == 0 and out.strip() == "SR-ChoiceL/SR-Beta: (1 || 2)"


ID_APP = "(\\x:nat. x) (1 ||{o} 2)"
ID_DIST = "TR-DistAppR: ((\\x:nat. x) 1 ||{o} (\\x:nat. x) 2)"


def test_tgt_step(tmp_path, capsys):
    f = term_file(tmp_path, ID_APP)
    code, out, _ = run(capsys, "tgt-step", f)
    assert code == 0 and out.splitlines() == [ID_DIST]
    code, out, _ = run(capsys, "tgt-step", f, "--delta", "o-")
    assert code == 0
    assert out.splitlines() == [ID_DIST, "TR-AppR/TR-WorldR: (\\x:nat. x) 2"]


def test_eval_trace_prints_successors_then_normal_forms(tmp_path, capsys):
    # each one-step successor of the input with its full rule path
    f = term_file(tmp_path, "(\\x:nat. x) (1 || 2)")
    code, out, _ = run(capsys, "src-eval", f, "--trace")
    assert code == 0
    assert out.splitlines() == [
        "SR-DistAppR: ((\\x:nat. x) 1 || (\\x:nat. x) 2)", "(1 || 2)"]
    g = term_file(tmp_path, ID_APP, "tgt.txt")
    code, out, _ = run(capsys, "tgt-eval", g, "--trace", "--delta", "o+")
    assert code == 0
    assert out.splitlines() == [
        ID_DIST, "TR-AppR/TR-WorldL: (\\x:nat. x) 1", "1"]


def test_tgt_check(tmp_path, capsys):
    f = term_file(tmp_path, "(1 ||{o b} 2)")
    code, out, _ = run(capsys, "tgt-check", f)
    assert code == 0 and out.strip() == "nat & o b"


def test_tgt_check_failure(tmp_path, capsys):
    # a reused name, a free variable, a number applied
    for text in ["((1 ||{o} 2) ||{o} 3)", "x", "(\\x:nat. x) 1 2"]:
        f = term_file(tmp_path, text)
        code, _, err = run(capsys, "tgt-check", f)
        assert code == 1 and "type error" in err


@pytest.mark.parametrize("i, seed, expected", [
    (37, ("o",), "nat -> all g1.{g1 o (o (b + o b) + b)} nat & {}"),
    (74, ("o",), "nat & o (b + o o b b)"),
    (185, ("o",),
     "(nat -> all a2.{a2 (b + o)*} nat) -> all a1.{a1 (b + o)*} nat & {}"),
    (259, (), "nat & b (b + o)* + o o (o (b + o b) + b + o b)"),
    (259, ("b", "o"),
     "nat & b o (b (b + o)* + o o (o (b + o b) + b + o b))"),
])
def test_tgt_check_prints_alternatives_in_a_fixed_order(
        tmp_path, capsys, i, seed, expected):
    m = name_subst(compile_expr(gen_typed_source(i, 5 + i % 26), "a", seed),
                   "a", ())
    code, out, _ = run(capsys, "tgt-check", term_file(tmp_path, format_expr(m)))
    assert code == 0 and out.strip() == expected


def test_tgt_eval_with_world(tmp_path, capsys):
    f = term_file(tmp_path, "(1 ||{o} 2)")
    code, out, _ = run(capsys, "tgt-eval", f, "--delta", "o+")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "tgt-eval", f, "--delta", "o-")
    assert code == 0 and out.strip() == "2"


def test_tgt_eval_nc(tmp_path, capsys):
    f = term_file(tmp_path, "(\\x:nat. x) (1 ||{o} 2)")
    code, out, _ = run(capsys, "tgt-eval-nc", f)
    assert code == 0 and out.strip() == "(1 ||{o} 2)"


def test_compile_erase_pseudo(tmp_path, capsys):
    f = term_file(tmp_path, "(1 || 2)")
    code, out, _ = run(capsys, "compile", f, "--seed-var", "al")
    assert code == 0 and out.strip() == "(1 ||{al b} 2)"
    code, out, _ = run(capsys, "compile", f, "--seed-var", "al", "--seed", "o o")
    assert code == 0 and out.strip() == "(1 ||{al o o b} 2)"

    g = term_file(tmp_path, out.strip(), "compiled.txt")
    code, out, _ = run(capsys, "erase", g)
    assert code == 0 and out.strip() == "(1 || 2)"
    code, out, _ = run(capsys, "pseudo", f)
    assert code == 0 and out.strip() == "(1 || 2)"


def test_bisim_and_end2end(tmp_path, capsys):
    f = term_file(tmp_path, "((1 || 2) || 3)")
    code, out, _ = run(capsys, "compile", f)
    m = term_file(tmp_path, out.strip().replace("a ", "").replace("{a", "{"),
                  "target.txt")
    code, out, _ = run(capsys, "bisim", f, m)
    assert code == 0 and out.startswith("status=OK explored=")
    code, out, _ = run(capsys, "end2end", f)
    assert code == 0 and "status=OK" in out


def test_bisim_precondition_exit_code(tmp_path, capsys):
    f = term_file(tmp_path, "1")
    g = term_file(tmp_path, "2", "tgt.txt")
    code, _, err = run(capsys, "bisim", f, g)
    assert code == 1 and "precondition" in err


def test_suite_line_format(capsys):
    code, out, _ = run(capsys, "suite", "--n", "2", "--seed", "7", "--size", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # 2 cases x 5 checks
    for line in lines:
        assert line.startswith("case=")
        assert " check=" in line
        parts = dict(p.split("=", 1) for p in line.split())
        assert parts["status"] in {"OK", "FUEL", "FAIL"}
        assert parts["status"] != "FAIL"
        assert int(parts["explored"]) > 0


def test_suite_fuel_lines_name_their_cause(capsys):
    code, out, _ = run(capsys, "suite", "--n", "1", "--seed", "3", "--size", "20")
    assert code == 0
    fuel = [dict(p.split("=", 1) for p in line.split())
            for line in out.splitlines() if "status=FUEL" in line]
    assert fuel
    assert all(parts["cause"] in {"depth", "states", "cycle"}
               for parts in fuel)


@pytest.mark.parametrize("argv", [
    ["src-eval", "FILE", "--fuel", "-5"],
    ["end2end", "FILE", "--fuel", "-1"],
    ["tgt-eval", "TGT", "--fuel", "0"],
    ["bisim", "FILE", "TGT", "--depth", "0"],
    ["suite", "--n", "1", "--depth", "-3"],
    ["suite", "--n", "-2"],
    ["suite", "--n", "1", "--size", "0"],
    ["suite", "--n", "two"],
])
def test_budgets_must_be_positive(tmp_path, capsys, argv):
    # a fuel, depth, size or program count below one is a usage error, not
    # a verdict
    files = {"FILE": term_file(tmp_path, "(1 || 2)"),
             "TGT": term_file(tmp_path, "(1 ||{o} 2)", "tgt.txt")}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and out == "" and "must be a positive integer" in err


@pytest.mark.parametrize("argv, message", [
    (["compile", "FILE", "--seed-var", "o"], "must be one name variable"),
    (["compile", "FILE", "--seed-var", ""], "parse error"),
    (["compile", "FILE", "--seed-var", "x y"], "must be one name variable"),
    (["compile", "FILE", "--seed", "a"], "a closed name"),
    (["compile", "FILE", "--seed", "o )"], "parse error"),
    (["src-check", "SQUARE"], "unexpected character '²'"),
    (["compile", "ADD"], "compile error: demo builtins have no compilation"),
    (["pseudo", "ADD"], "compile error: demo builtins have no compilation"),
])
def test_bad_inputs_are_usage_or_parse_errors(tmp_path, capsys, argv, message):
    # a seed variable that would not parse back, an open seed, a numeral
    # that is not ASCII, and a program the compiler refuses
    files = {"FILE": term_file(tmp_path, "(\\x:nat. (x || 7)) (3 || 5)"),
             "SQUARE": term_file(tmp_path, "(\\x:nat. x) ²", "square.txt"),
             "ADD": term_file(tmp_path, "add 1 2", "add.txt")}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and out == "" and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd, text, message", [
    ("src-check", "1 2", "applied a non-function of type nat"),
    ("src-check", "(\\x:nat->nat. x) 1",
     "argument has type nat, expected nat -> nat"),
    ("tgt-check", "((1 ||{o} 2) ||{o} 3)",
     "overlapping effects eps and eps, shared word eps"),
])
def test_type_errors_print_concrete_syntax(tmp_path, capsys, cmd, text,
                                           message):
    code, _, err = run(capsys, cmd, term_file(tmp_path, text))
    assert code == 1 and err == f"type error: {message}\n"
    assert not re.search(r"[A-Z]\w*\(", err)  # no dataclass repr


def test_effect_subcommands(capsys):
    code, out, _ = run(capsys, "effect", "member", "o b", "o (o+b)*")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "effect", "includes", "o o", "o*")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "effect", "disjoint", "o*", "b b*")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "effect", "quotient", "o", "o (o+b)")
    assert code == 0 and out.strip() == "b + o"
    code, _, err = run(capsys, "effect", "quotient", "o", "b")
    assert code == 1 and "coverage error" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(1 || 2)"))
    code, out, _ = run(capsys, "src-eval", "-")
    assert code == 0 and out.strip() == "(1 || 2)"


README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"(?:echo (.*?) \| )?cochoice (.*?)(?:\s+# (.*))?")


def readme_examples():
    """``(stdin, argv, output lines)`` of each ``cochoice`` command in the
    README's ``sh`` blocks that shows its output, in a ``# `` comment at
    the end of its line or on the comment lines right below it.  A command
    may read its input from an ``echo`` piped into it."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            m = EXAMPLE.fullmatch(line)
            if not m:
                continue
            piped, args, inline = m.groups()
            shown = [inline] if inline else []
            for below in lines[i + 1:] if not inline else []:
                if not below.startswith("# "):
                    break
                shown.append(below[2:])
            if shown:
                stdin = shlex.split(piped)[0] + "\n" if piped else ""
                out.append((stdin, shlex.split(args), shown))
    return out


def test_readme_examples_print_what_they_show(capsys, monkeypatch):
    examples = readme_examples()
    assert {argv[0] for _, argv, _ in examples} >= {"src-eval", "tgt-eval",
                                                     "effect"}
    for stdin, argv, shown in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv)
        assert (code, out.splitlines(), err) == (0, shown, ""), argv


# ------------------------------------------------- concrete syntax round trip

terms = st.builds(
    lambda seed, size: gen_typed_source(seed, size),
    st.integers(0, 10**6),
    st.integers(1, 16),
)


@settings(max_examples=100, deadline=None)
@given(terms, st.integers(0, 10**6))
def test_format_parse_round_trip_both_calculi(e, seed):
    assert alpha_eq(parse("src", format_expr(e)), e)
    m = compile_expr(e, "a", ("o",))
    assert alpha_eq(parse("tgt", format_expr(m)), m)
    # latent effects of every shape, {} and eps included, on both binders
    rng = random.Random(seed)
    phi = [random_effect(rng, rng.randrange(1, 10)) for _ in range(3)]
    t = TArrow(TArrow(TNAT, phi[0], TNAT), phi[1], TForall("al", phi[2], TNAT))
    assert alpha_eq(parse("type-tgt", format_type(t)), t)


LANGUAGES = ["src", "tgt", "name", "effect", "type-src", "type-tgt"]
SYNTAX = st.sampled_from(list("\\/().:{}|@+*-,>ob ax19") + ["nat", "fix",
                                                           "all", "eps"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LANGUAGES),
       st.lists(SYNTAX | st.characters(), max_size=30).map("".join))
@example("src", "²")
@example("tgt", "٣")
@example("src", "1" * 5000)
@example("name", "²")
@example("effect", "٣")
@example("type-src", "1" * 5000)
@example("type-tgt", "²")
def test_parse_raises_only_parse_errors(language, text):
    try:
        parse(language, text)
    except ParseError:
        pass


def same_tokens(text):
    """The one-pattern tokenizer and the symbol-by-symbol one give equal
    tokens, or raise equal errors."""
    try:
        want = reference_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert got.value == exc
    else:
        assert _tokenize(text) == want


def _test_strings():
    """Every string literal of the test files: the parse examples among
    them, and much other text."""
    out = set()
    for path in Path(__file__).parent.glob("*.py"):
        out.update(node.value for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return sorted(out)


def test_tokenizer_agrees_with_reference():
    examples = _test_strings()
    assert len(examples) > 300
    for text in examples:
        same_tokens(text)
    # the first programs of the translate benchmark's seed-0 corpus (size
    # budget 240, at least 120 nodes), printed in both calculi
    programs, g = [], 0
    while len(programs) < 30:
        e = gen_typed_source(g, 240)
        if size_of(e) >= 120:
            programs.append(e)
        g += 1
    for e in programs:
        m = compile_expr(e, "al", ("b", "o"))
        for text in (format_expr(e), format_expr(m), "\n".join(
                [format_expr(e), format_expr(m)]) + "\r\n"):
            same_tokens(text)
    for text in ["²", "٣", "x²", "x٣ y", "1²", "#", "|", "a | b", "/", "/\\",
                 "-", "->", "-{", "-}", "(1 ||\r\n 2)", "\r\r\n\t x",
                 "é", "\\é:nat. é", "x'' _y1", "eps o b12 ob", "", " ",
                 "\n\n  \u00a0"]:
        same_tokens(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(SYNTAX | st.characters(), max_size=30).map("".join))
@example("a\r\n²")
def test_tokenizer_agrees_with_reference_on_any_text(text):
    same_tokens(text)


def test_numerals_are_ascii_and_convertible():
    assert parse("src", "42") == parse("src", " 42 ")
    for text in ["²", "٣", "\\x:nat. x 1²"]:
        for language in ("src", "tgt"):
            with pytest.raises(ParseError):
                parse(language, text)
    # numerals of any length, past the digits int() and str() convert
    for language in ("src", "tgt"):
        long = parse(language, "1" * 5000)
        assert long.value == (10 ** 5000 - 1) // 9
        assert format_expr(long) == "1" * 5000


def test_long_numeral_sum_prints(tmp_path, capsys):
    nines = "9" * 4300
    f = term_file(tmp_path, f"add {nines} {nines}")
    code, out, err = run(capsys, "src-eval", f)
    assert code == 0 and err == ""
    assert out == "1" + "9" * 4299 + "8\n"  # 4,301 digits


def test_builtin_program_end2end_is_a_precondition_failure(tmp_path, capsys):
    code, out, err = run(capsys, "end2end", term_file(tmp_path, "add 1 2"))
    assert code == 1 and out == ""
    assert err == ("precondition violated: source term does not compile: "
                   "demo builtins have no compilation\n")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("src", "(1 ||")
    assert exc.value.line >= 1 and exc.value.column >= 1


def test_parse_stops_at_the_nesting_limit():
    # MAX_NESTING levels open the top-level term and one per parenthesis
    from cochoice.parser import MAX_NESTING
    assert MAX_NESTING == 150
    n = MAX_NESTING - 1
    assert parse("src", "(" * n + "1" + ")" * n) == parse("src", "1")
    assert parse("effect", "(" * n + "o" + ")" * n) == parse("effect", "o")
    for text in ["(" * (n + 1) + "1" + ")" * (n + 1),
                 "(" * 600 + "1" + ")" * 600,
                 "\\x:nat. " * 600 + "x"]:
        with pytest.raises(ParseError) as exc:
            parse("src", text)
        assert f"more than {MAX_NESTING} levels" in str(exc.value)
